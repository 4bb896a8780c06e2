"""Toeplitz-operator compressions and their spectra.

assemble() produces the truncated matrix M[m, n] = int phi e_n conj(e_m) dlambda
for the first N basis elements, for every symbol type. Indicator pieces go
through region_compression(), which is closed form for every region: annular
sectors (and origin-centered discs) factor into angular integrals and
incomplete-gamma increments, and an off-center disc D(c, r) is the Weyl
translate W_c T_{1_D(0, r)} W_c^* of the diagonal centered disc. Sampled
symbols use their own grid. Radial symbols produce diagonal matrices via
radial_assemble(). rayleigh() is the quadratic form Re(f^H M f) of assemble().

operator_norm() takes the largest eigenvalue modulus from LAPACK
(numpy.linalg.eigvalsh); method="jacobi" runs a hand-rolled cyclic Jacobi
eigensolver instead, an independent check that does not depend on LAPACK.
"""
from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

from .fock import FockFunction
from .quadrature import MAX_RADIAL_ORDER, RadialRule
from .regions import TWO_PI, AnnularSector, Disc, Region
from .special import gammainc_lower, gammainc_lower_int_prefix, log_factorial
from .symbols import RadialSymbol, SampledSymbol, SimpleSymbol

__all__ = [
    "HermitianMatrix",
    "region_compression",
    "assemble",
    "radial_assemble",
    "operator_norm",
    "top_eigenpair",
    "jacobi_eigenvalues",
    "rayleigh",
]


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A square complex Hermitian matrix with JSON/CSV serialization."""

    data: np.ndarray

    def __post_init__(self):
        a = np.array(self.data, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("matrix data must be square and nonempty")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def dimension(self) -> int:
        return self.data.shape[0]

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.data - self.data.conj().T)))

    def to_json_dict(self) -> dict:
        flat = self.data.reshape(-1)
        return {
            "dimension": self.dimension,
            "entries": [[z.real, z.imag] for z in flat],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "HermitianMatrix":
        n = int(data["dimension"])
        entries = data["entries"]
        if len(entries) != n * n:
            raise ValueError("entry count does not match dimension")
        flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
        return cls(flat.reshape(n, n))

    @classmethod
    def from_json(cls, text: str) -> "HermitianMatrix":
        return cls.from_json_dict(json.loads(text))

    def write_csv(self, real_path, imag_path) -> None:
        np.savetxt(real_path, self.data.real, fmt="%.17g", delimiter=",")
        np.savetxt(imag_path, self.data.imag, fmt="%.17g", delimiter=",")


# ---------------------------------------------------------------------------
# assembly


def _sector_entries(region: AnnularSector, truncation: int) -> np.ndarray:
    """Closed-form compression of an annular-sector indicator.

    Entry (m, n) factors into an angular integral of e^{i(n-m)theta} and a
    radial incomplete-gamma increment at s = (n + m)/2:
        A_{n-m}/(2pi) * exp(lgamma(s+1) - (lf_n + lf_m)/2)
                      * (P(s+1, pi r_out^2) - P(s+1, pi r_in^2)).
    """
    n_idx = np.arange(truncation)
    x1 = math.pi * region.r_inner**2
    x2 = math.pi * region.r_outer**2

    if region.full_span:
        # Full annulus: angular integrals kill every off-diagonal entry and
        # the diagonal reduces to increments of integer incomplete gammas.
        diag = gammainc_lower_int_prefix(truncation, x2)
        if x1 > 0.0:
            diag = diag - gammainc_lower_int_prefix(truncation, x1)
        return np.diag(diag.astype(np.complex128))

    # Angular factors for k = -(N-1) .. N-1.
    ks = np.arange(-(truncation - 1), truncation)
    t1, t2 = region.theta_start, region.theta_end
    safe_k = np.where(ks == 0, 1, ks)
    ang = np.where(ks == 0, t2 - t1,
                   (np.exp(1j * ks * t2) - np.exp(1j * ks * t1)) / (1j * safe_k))

    # Radial factors for l = n + m = 0 .. 2N-2 (s = l/2), both radii at once.
    ls = np.arange(2 * truncation - 1)
    p = gammainc_lower(ls[:, None] / 2.0 + 1.0, np.array([x1, x2]))
    rad = p[:, 1] - p[:, 0]
    lgam = gammaln(ls / 2.0 + 1.0)

    lf = log_factorial(n_idx)
    ll = np.add.outer(n_idx, n_idx)          # ll[m, n] = m + n
    kk = -np.subtract.outer(n_idx, n_idx)    # kk[m, n] = n - m
    scale = np.exp(lgam[ll] - 0.5 * np.add.outer(lf, lf))
    return (ang[kk + truncation - 1] / TWO_PI) * scale * rad[ll]


@functools.lru_cache(maxsize=8)
def _hermite_eigh(size: int):
    """Eigenpairs (mu, V) of the size x size section of a + a^*: the Jacobi
    matrix with zero diagonal and off-diagonals sqrt(1), ..., sqrt(size-1).
    Read-only, since the cache hands the same arrays to every caller."""
    mu, v = eigh_tridiagonal(np.zeros(size), np.sqrt(np.arange(1.0, size)))
    mu.setflags(write=False)
    v.setflags(write=False)
    return mu, v


def _displaced_disc(region: Disc, truncation: int) -> np.ndarray:
    """Off-center disc indicator by translation invariance:
    T_{1_D(c, r)} = W_c diag(P(k+1, pi r^2)) W_c^*.

    W_c = exp(alpha a^* - conj(alpha) a) with alpha = sqrt(pi) conj(c) equals
    U exp(i |alpha| X) U^* for X = a + a^* and U = diag(e^{i m (arg alpha -
    pi/2)}), so the block P_N W_c P_K is U V e^{i |alpha| mu} V^T U^* from the
    eigenpairs of a finite section of X: a product of unitaries, which stays
    accurate where the column recurrence for W_c overflows. K stops where
    P(k+1, pi r^2) has underflowed; the section size (sqrt(max(N, K)) +
    |alpha| + 3)^2 keeps its boundary beyond where the columns carry mass,
    rounded up to a multiple of 64 so nearby calls share a cached section.
    """
    alpha = math.sqrt(math.pi) * region.center.conjugate()
    x = math.pi * region.radius**2
    cols = math.ceil(x + 12.0 * math.sqrt(x + 1.0) + 40.0)
    reach = (math.sqrt(max(truncation, cols)) + abs(alpha) + 3.0) ** 2
    mu, v = _hermite_eigh(64 * math.ceil(reach / 64.0))
    phase = abs(alpha) * mu
    v_rows, v_cols = v[:truncation], v[:cols]
    w = (v_rows * np.cos(phase)) @ v_cols.T + 1j * ((v_rows * np.sin(phase)) @ v_cols.T)
    psi = cmath.phase(alpha) - 0.5 * math.pi
    w *= np.exp(1j * psi * np.arange(truncation))[:, None]
    w *= np.exp(-1j * psi * np.arange(cols))[None, :]
    diag = gammainc_lower(np.arange(1.0, cols + 1.0), x)
    return (w * diag) @ w.conj().T


def region_compression(region: Region, truncation: int) -> np.ndarray:
    """G[m, n] = int_region e_n conj(e_m) dlambda for m, n < truncation.

    Closed form for every region: sectors and origin-centered discs by the
    sector formula, off-center discs by Weyl translation of the centered
    disc. int_region |f|^2 dlambda is the quadratic form Re(f^H G f).
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if isinstance(region, AnnularSector):
        return _sector_entries(region, truncation)
    if isinstance(region, Disc):
        if region.center == 0:
            return _sector_entries(AnnularSector(0.0, region.radius, 0.0, TWO_PI), truncation)
        return _displaced_disc(region, truncation)
    raise TypeError(f"unsupported region type: {type(region).__name__}")


def assemble(symbol, truncation: int) -> HermitianMatrix:
    """Compress a symbol to the first `truncation` basis elements.

    SimpleSymbol pieces sum their region compressions (closed form for every
    region). SampledSymbol uses its own grid; the grid must resolve the
    requested truncation (radial count >= truncation, angular count >=
    2*truncation - 1). RadialSymbol compressions are the diagonal ones of
    radial_assemble.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    if isinstance(symbol, RadialSymbol):
        return radial_assemble(symbol, truncation)

    if isinstance(symbol, SimpleSymbol):
        total = np.zeros((truncation, truncation), dtype=np.complex128)
        for region, coeff in symbol.pieces:
            total += coeff * region_compression(region, truncation)
        total = 0.5 * (total + total.conj().T)
        return HermitianMatrix(total)

    if isinstance(symbol, SampledSymbol):
        k_rad = symbol.rule.radial.count
        m_ang = symbol.rule.angular.count
        if truncation > k_rad:
            raise ValueError(
                f"truncation {truncation} exceeds the radial node count {k_rad}"
            )
        if m_ang < 2 * truncation - 1:
            raise ValueError(
                f"angular count {m_ang} cannot resolve truncation {truncation} "
                f"(need >= {2 * truncation - 1})"
            )
        n_idx = np.arange(truncation)
        lf = log_factorial(n_idx)
        t = symbol.rule.radial.nodes
        log_sw = np.log(symbol.rule.radial.scaled_weights)
        theta = symbol.rule.angular.nodes
        ks = np.arange(-(truncation - 1), truncation)
        ls = np.arange(2 * truncation - 1)

        # C[kidx, j] = sum_i v[j, i] e^{i k theta_i}
        e_mat = np.exp(1j * np.outer(theta, ks))             # (M, 2N-1)
        c_mat = (symbol.values @ e_mat).T                    # (2N-1, K)
        # T2w[l, j] = w_j t_j^{l/2} / Gamma(l/2 + 1), kept in log domain
        t2w = np.exp(
            0.5 * np.outer(ls, np.log(t)) - t[None, :] + log_sw[None, :]
            - gammaln(ls / 2.0 + 1.0)[:, None]
        )
        d_mat = t2w @ c_mat.T                                # (2N-1, 2N-1)

        ll = np.add.outer(n_idx, n_idx)
        kk = -np.subtract.outer(n_idx, n_idx)
        scale = np.exp(gammaln(ll / 2.0 + 1.0) - 0.5 * np.add.outer(lf, lf))
        total = scale * d_mat[ll, kk + truncation - 1] / m_ang
        total = 0.5 * (total + total.conj().T)
        return HermitianMatrix(total)

    raise TypeError(f"cannot assemble {type(symbol).__name__}")


# The gaussian profile integrates on a Gauss-Laguerre rule of max(80, N + 16)
# nodes, which may not exceed MAX_RADIAL_ORDER.
GAUSSIAN_MAX_TRUNCATION = MAX_RADIAL_ORDER - 16


def radial_assemble(symbol: RadialSymbol, truncation: int) -> HermitianMatrix:
    """Diagonal compression of a radial symbol.

    gamma_n = (1/n!) int_0^inf phi(sqrt(t/pi)) t^n e^{-t} dt. Profiles with
    unbounded support integrate on a Gauss-Laguerre rule; compactly supported
    profiles use composite Gauss-Legendre in r split at the profile
    breakpoints, so jumps never sit inside a panel and piecewise-polynomial
    profiles are integrated at spectral accuracy.
    """
    if not isinstance(symbol, RadialSymbol):
        raise TypeError("radial_assemble requires a RadialSymbol")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    n_idx = np.arange(truncation)
    lf = log_factorial(n_idx)

    if symbol.kind == "gaussian":
        if truncation > GAUSSIAN_MAX_TRUNCATION:
            raise ValueError(
                f"truncation {truncation} exceeds the largest supported truncation "
                f"{GAUSSIAN_MAX_TRUNCATION} for the gaussian radial symbol"
            )
        rul = RadialRule.gauss_laguerre(max(80, truncation + 16))
        t = rul.nodes
        vals = symbol.profile(rul.radii)
        # G[n, j] = w_j t_j^n / n!  via  exp(n ln t - t + ln sw - lf_n)
        g = np.exp(
            np.outer(n_idx, np.log(t)) - t[None, :]
            + np.log(rul.scaled_weights)[None, :] - lf[:, None]
        )
        gamma = g @ vals
    else:
        gamma = np.zeros(truncation)
        for r, w in symbol.panels(max(64, truncation + 8)):
            t = math.pi * r * r
            vals = symbol.profile(r)
            g = np.exp(np.outer(n_idx, np.log(t)) - t[None, :] - lf[:, None])
            gamma += g @ (w * TWO_PI * r * vals)

    return HermitianMatrix(np.diag(gamma.astype(np.complex128)))


# ---------------------------------------------------------------------------
# spectra


def _as_hermitian_array(matrix, tol: float = 1e-10) -> np.ndarray:
    a = matrix.data if isinstance(matrix, HermitianMatrix) else np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    return 0.5 * (a + a.conj().T)


def top_eigenpair(matrix):
    """(lambda, v) for the eigenvalue of largest magnitude, from LAPACK eigh;
    v has unit norm."""
    eigs, vecs = np.linalg.eigh(_as_hermitian_array(matrix))
    i = int(np.argmax(np.abs(eigs)))
    return float(eigs[i]), vecs[:, i]


def jacobi_eigenvalues(matrix, *, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """All eigenvalues (ascending) by cyclic complex Jacobi rotations.

    Each pivot (p, q) applies the unitary U = [[c, s e^{i phi}],
    [-s e^{-i phi}, c]] with phi = arg A[p,q], which zeroes the pivot exactly;
    sweeps stop when the off-diagonal Frobenius mass drops below tol times the
    full Frobenius norm.
    """
    a = _as_hermitian_array(matrix).copy()
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])

    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = math.sqrt(max(float(np.linalg.norm(a)) ** 2
                            - float(np.linalg.norm(np.diag(a))) ** 2, 0.0))
        if off <= tol * fro:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = a[p, q]
                ab = abs(beta)
                if ab <= 1e-300:
                    continue
                phase = beta / ab
                alpha = a[p, p].real
                gamma = a[q, q].real
                tau = (gamma - alpha) / (2.0 * ab)
                if abs(tau) > 1e154:  # tau*tau would overflow; use 1st order
                    t = 0.5 / tau
                else:
                    sign = 1.0 if tau >= 0.0 else -1.0
                    t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c

                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                a[p, q] = 0.0
                a[q, p] = 0.0
    return np.sort(np.diag(a).real)


def operator_norm(matrix, *, method: str = "auto") -> float:
    """Spectral norm of a Hermitian matrix: the largest eigenvalue modulus.

    method="auto" takes the spectrum from LAPACK (numpy.linalg.eigvalsh);
    "jacobi" diagonalizes with jacobi_eigenvalues, independently of LAPACK.
    """
    a = _as_hermitian_array(matrix)
    if method == "auto":
        eigs = np.linalg.eigvalsh(a)
    elif method == "jacobi":
        eigs = jacobi_eigenvalues(a)
    else:
        raise ValueError(f"unknown method: {method!r}")
    return float(np.max(np.abs(eigs)))


# ---------------------------------------------------------------------------
# quadratic forms


def rayleigh(symbol, f: FockFunction) -> float:
    """int phi |f|^2 dlambda for a unit-normalized or general f: the quadratic
    form Re(f^H M f) of M = assemble(symbol, N) at f's truncation N, for every
    symbol type (so a sampled symbol's grid must resolve N)."""
    v = f.coeffs
    return float(np.real(np.vdot(v, assemble(symbol, f.truncation).data @ v)))
