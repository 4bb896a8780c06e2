"""Reference values the benchmark checks every case against.

Nothing here calls focklab: each reference is built from the mathematics of
the Bargmann-Fock space (basis e_n(z) = sqrt(pi^n / n!) z^n, measure
dlam = e^{-pi|z|^2} dA) with numpy and scipy only, and is computed once
during set-up, before any case is timed. A program change therefore cannot
move a reference along with the output it is compared to.

- Annular sectors: the closed form (angular integral of e^{i(n-m)theta})
  x (regularized incomplete gamma increment at s = (n + m)/2), with every
  shape evaluated by scipy.special.gammainc in one vectorized call.
- Off-center discs: T_{1_D(c,r)} = W_c T_{1_D(0,r)} W_c^*, where W_c is the
  Weyl translation and T_{1_D(0,r)} is diagonal with entries P(n+1, pi r^2).
  The columns of W_c follow from W_c e_{n+1} = sqrt(pi/(n+1)) (z - c) W_c e_n.
- Radial symbols and discretizations into full annuli: diagonal matrices.
- Sampled symbols: the grid's own product rule applied entry by entry.

Norms are the largest |eigenvalue| from numpy.linalg.eigvalsh.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gammaln, roots_legendre

TWO_PI = 2.0 * math.pi


def spectral_norm(matrix: np.ndarray) -> float:
    """max |eigenvalue| of a Hermitian matrix, from LAPACK."""
    return float(np.max(np.abs(np.linalg.eigvalsh(matrix))))


def _log_factorial(n: np.ndarray) -> np.ndarray:
    return gammaln(np.asarray(n, dtype=float) + 1.0)


def _angular_factors(theta_start: float, theta_end: float, truncation: int) -> np.ndarray:
    """int_{t1}^{t2} e^{ik theta} dtheta for k = -(N-1) .. N-1."""
    ks = np.arange(-(truncation - 1), truncation)
    out = np.empty(ks.size, dtype=complex)
    nonzero = ks != 0
    k = ks[nonzero]
    out[nonzero] = (np.exp(1j * k * theta_end) - np.exp(1j * k * theta_start)) / (1j * k)
    out[~nonzero] = theta_end - theta_start
    return out


def sector_matrix(pieces, truncation: int) -> np.ndarray:
    """Compression of sum_k c_k 1_{sector_k}; pieces are
    (r_inner, r_outer, theta_start, theta_end, coeff) tuples."""
    n = np.arange(truncation)
    ls = np.arange(2 * truncation - 1)
    shapes = ls / 2.0 + 1.0
    lf = _log_factorial(n)
    ll = np.add.outer(n, n)
    kk = np.subtract.outer(n, n)  # kk[m, n] = m - n; the factor uses n - m
    scale = np.exp(gammaln(ll / 2.0 + 1.0) - 0.5 * np.add.outer(lf, lf))
    acc = np.zeros((truncation, truncation), dtype=complex)
    for r_in, r_out, t1, t2, coeff in pieces:
        rad = gammainc(shapes, math.pi * r_out**2) - gammainc(shapes, math.pi * r_in**2)
        ang = _angular_factors(t1, t2, truncation)
        acc += coeff * ang[truncation - 1 - kk] * rad[ll]
    return acc * scale / TWO_PI


def disc_diagonal(radius: float, truncation: int) -> np.ndarray:
    """Diagonal of an origin-centered disc: P(n+1, pi r^2)."""
    return gammainc(np.arange(truncation) + 1.0, math.pi * radius**2)


def annulus_diagonal(r_inner: float, r_outer: float, truncation: int) -> np.ndarray:
    shapes = np.arange(truncation) + 1.0
    return gammainc(shapes, math.pi * r_outer**2) - gammainc(shapes, math.pi * r_inner**2)


def gaussian_diagonal(truncation: int) -> np.ndarray:
    """Diagonal of the radial symbol e^{-|z|^2}: (pi / (pi + 1))^(n+1)."""
    return (math.pi / (math.pi + 1.0)) ** (np.arange(truncation) + 1.0)


def displaced_disc_matrix(center: complex, radius: float, truncation: int) -> np.ndarray:
    """Compression of the disc indicator 1_{D(c, r)} through the Weyl
    translation: M = W diag(P(k+1, pi r^2)) W^H with W[m, k] = <W_c e_k, e_m>.

    Row m of column k+1 needs only rows m-1 and m of column k, so the first
    `truncation` rows are exact; the column count K only has to reach where
    P(k+1, pi r^2) has underflowed.
    """
    c = complex(center)
    mu = math.pi * abs(c) ** 2
    cols = truncation + int(math.ceil(mu + 12.0 * math.sqrt(mu + 1.0) + 40.0))
    rows = truncation
    m = np.arange(rows)
    w = np.empty((rows, cols), dtype=complex)
    if c == 0:
        col = np.zeros(rows, dtype=complex)
        col[0] = 1.0
    else:
        log_mag = -0.5 * mu + 0.5 * (m * math.log(math.pi) - _log_factorial(m)) + m * math.log(abs(c))
        col = np.exp(log_mag - 1j * m * np.angle(c))
    w[:, 0] = col
    sqrt_m = np.sqrt(m)
    shift_c = math.sqrt(math.pi) * c
    for k in range(cols - 1):
        nxt = -shift_c * col
        nxt[1:] += sqrt_m[1:] * col[:-1]
        col = nxt / math.sqrt(k + 1.0)
        w[:, k + 1] = col
    d = gammainc(np.arange(cols) + 1.0, math.pi * radius**2)
    return (w * d) @ w.conj().T


# ---------------------------------------------------------------------------
# radial profiles and their discretizations


def radial_profile(spec: dict, r: np.ndarray) -> np.ndarray:
    """Profile values of a radial symbol description (the CLI JSON form)."""
    r = np.asarray(r, dtype=float)
    kind = spec["profile"]
    if kind == "gaussian":
        return np.exp(-(r**2))
    if kind == "annulus":
        return np.where((r >= spec["r_inner"]) & (r <= spec["r_outer"]), spec["height"], 0.0)
    if kind == "table":
        radii = np.asarray(spec["radii"], dtype=float)
        out = np.interp(r, radii, np.asarray(spec["values"], dtype=float))
        return np.where(r > radii[-1], 0.0, out)
    raise ValueError(f"unknown radial profile {kind!r}")


GAUSSIAN_SUPPORT = 4.8  # the effective support the gaussian symbol declares


def radial_support(spec: dict) -> float:
    kind = spec["profile"]
    if kind == "gaussian":
        return GAUSSIAN_SUPPORT
    if kind == "annulus":
        return float(spec["r_outer"])
    return float(spec["radii"][-1])


def radial_diagonal(spec: dict, truncation: int, order: int = 200) -> np.ndarray:
    """Diagonal gamma_n = int phi(r) (pi r^2)^n e^{-pi r^2} / n! 2 pi r dr.

    Closed forms for the gaussian and the annulus; piecewise-linear tables
    integrate panel by panel between knots, where the integrand is a
    polynomial times a Gaussian, with a Gauss-Legendre rule of high order.
    """
    kind = spec["profile"]
    if kind == "gaussian":
        return gaussian_diagonal(truncation)
    if kind == "annulus":
        return spec["height"] * annulus_diagonal(spec["r_inner"], spec["r_outer"], truncation)
    radii = np.asarray(spec["radii"], dtype=float)
    edges = np.unique(np.concatenate([[0.0], radii]))
    x, wts = roots_legendre(order)
    n = np.arange(truncation)[:, None]
    gamma = np.zeros(truncation)
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (a + b) + 0.5 * (b - a) * x
        t = math.pi * r * r
        kern = np.exp(n * np.log(t) - t - _log_factorial(n))
        gamma += kern @ (0.5 * (b - a) * wts * TWO_PI * r * radial_profile(spec, r))
    return gamma


def radial_cells_diagonal(spec: dict, cells: int, truncation: int) -> np.ndarray:
    """Diagonal of the approximant that replaces a radial symbol by its
    values at the t-midpoints of `cells` full annuli, uniform in t = pi r^2
    up to the support."""
    t_edges = np.linspace(0.0, math.pi * radial_support(spec) ** 2, cells + 1)
    centers = 0.5 * (t_edges[:-1] + t_edges[1:])
    values = radial_profile(spec, np.sqrt(centers / math.pi))
    p = gammainc(np.arange(truncation)[:, None] + 1.0, t_edges[None, :])
    return np.diff(p, axis=1) @ values


# ---------------------------------------------------------------------------
# sampled symbols


def sampled_matrix(t_nodes, scaled_weights, values, truncation: int) -> np.ndarray:
    """M[m, n] = sum_j sw_j / M sum_i v_ji e_n(z_ji) conj(e_m(z_ji)) e^{-t_j},
    straight from the grid's product rule (weighted basis values in the log
    domain, so nothing overflows)."""
    t = np.asarray(t_nodes, dtype=float)
    vals = np.asarray(values, dtype=float)
    m_ang = vals.shape[1]
    theta = TWO_PI * np.arange(m_ang) / m_ang
    n = np.arange(truncation)
    mag = np.exp(0.5 * (n[:, None] * np.log(t)[None, :] - t[None, :] - _log_factorial(n)[:, None]))
    phase = np.exp(1j * np.outer(n, theta))                       # (N, M)
    basis = mag[:, :, None] * phase[:, None, :]                   # (N, K, M)
    weight = (np.asarray(scaled_weights, dtype=float)[:, None] * vals / m_ang)
    flat = basis.reshape(truncation, -1)
    return (flat.conj() * weight.reshape(-1)) @ flat.T


def sampled_value_at(t_nodes, values, t, theta) -> np.ndarray:
    """Bilinear reading of a sampled symbol: linear in t between radial nodes
    (flat before the first, zero past the last), periodic linear in theta."""
    t_nodes = np.asarray(t_nodes, dtype=float)
    vals = np.asarray(values, dtype=float)
    m_ang = vals.shape[1]
    t, theta = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(theta, dtype=float))
    pos = (theta % TWO_PI) / (TWO_PI / m_ang)
    i0 = np.floor(pos).astype(int) % m_ang
    i1 = (i0 + 1) % m_ang
    fa = pos - np.floor(pos)
    cols = np.stack([np.interp(t, t_nodes, vals[:, i]) for i in range(m_ang)], axis=-1)
    v0 = np.take_along_axis(cols, i0[..., None], axis=-1)[..., 0]
    v1 = np.take_along_axis(cols, i1[..., None], axis=-1)[..., 0]
    out = (1.0 - fa) * v0 + fa * v1
    return np.where(t > t_nodes[-1], 0.0, out)


def sampled_cells_matrix(t_nodes, values, cells: int, truncation: int) -> np.ndarray:
    """Compression of the cells x cells polar-cell approximant of a sampled
    symbol: cells uniform in t up to the last radial node and in theta, each
    carrying the symbol's value at its center."""
    t_edges = np.linspace(0.0, float(t_nodes[-1]), cells + 1)
    th_edges = np.linspace(0.0, TWO_PI, cells + 1)
    t_c = 0.5 * (t_edges[:-1] + t_edges[1:])
    th_c = 0.5 * (th_edges[:-1] + th_edges[1:])
    coeff = sampled_value_at(t_nodes, values, t_c[:, None], th_c[None, :])
    r_edges = np.sqrt(t_edges / math.pi)
    pieces = [
        (r_edges[j], r_edges[j + 1], th_edges[i], th_edges[i + 1], coeff[j, i])
        for j in range(cells) for i in range(cells)
    ]
    return sector_matrix(pieces, truncation)
