"""Toeplitz-operator compressions and their spectra.

assemble() produces the truncated matrix M[m, n] = int phi e_n conj(e_m) dlambda
for the first N basis elements, for every symbol type. Origin-centered
pieces are summed per radius x = pi r^2 (_per_radius, or a PolarGrid's own
arrays): partial annular sectors into one moment table D[l = m+n, k = n-m],
which one sector pass turns into M (_sector_compression; its gather,
_gather_moments, also serves sampled symbols, and reads its N-only scale
and mask from _gather_tables, built once per size), full annuli and
centered discs into one diagonal (_ring_diagonal: one table of Poisson
weights, one matrix-vector product and one prefix sum). A section made of
rings alone, like a radial one, stays a diagonal: a HermitianMatrix built
by _of_diagonal, checked in O(N), that keeps only it and builds the dense
data when that is first read.
_piece_compression builds only the parts its (region, coefficient) pieces
have: each off-center disc D(c, r) as the Weyl translate
W_c T_{1_D(0, r)} W_c^* of the centered disc, in real
arithmetic from the positive half-spectrum of a section of a + a^*
(_displaced_disc; _hermite_eigh takes it from multisection, a Newton step
and the Hermite recurrence of tridiagonal._polynomial_rows, with no LAPACK
call), then one matrix for the origin-centered rest. A SimpleSymbol is its
pieces, and region_compression() is the one-piece symbol ((region, 1),).
radial_assemble() gives radial symbols' diagonal compressions: the
gaussian's in closed form, a disc's or an annulus's as the ring it is
(_ring_diagonal, the bits of the equal centred Disc or full
AnnularSector), and a table's on RadialSymbol.panels(), a fixed rule for
every N. Ring diagonals, table panels and sampled grids take their Poisson
weights from special.poisson_weight, and the gather's scale
Gamma((m+n)/2 + 1) / sqrt(m! n!) is a ratio of Poisson weights from their
logs, special._log_poisson_weight: every Gamma value here is Loader's form.
rayleigh() is the quadratic form Re(f^H M f) of assemble().

operator_norm() and top_eigenpair() read the two ends of one spectrum,
_spectrum(): a kept diagonal d gives min d and max d under either method,
exactly and in O(N), and every other matrix goes to LAPACK
(numpy.linalg.eigvalsh, solved again at a power-of-two scale where LAPACK
would rescale by another factor) or, with method="jacobi", to the solver
of jacobi_eigenvalues. The norm is the larger modulus of the two ends.
top_eigenpair() takes that end, signed, and its eigenvector: e_i on a
kept diagonal, with no solver call, and otherwise by inverse iteration
(numpy.linalg.solve) on the matrix LAPACK solved, so no code here calls
numpy.linalg.eigh. The Jacobi solver makes no LAPACK call, and neither
does any assembly but a radial table's, whose Gauss-Legendre panels come
from numpy's leggauss (one eigvalsh call per order per process), so the
Jacobi path is LAPACK-free for every other symbol. _lead_block reduces
the matrix to a real symmetric tridiagonal form by Householder
reflections (_tridiagonal) and splits off the trailing block whose
couplings are negligible, its diagonal taken as eigenvalues;
tridiagonal._multisection finds the lead block's eigenvalues by
Sturm-count multisection.
jacobi_eigenvalues bisects every bracket of the lead block, the norm only
its two extreme ones (_extreme_eigenvalues), with the same results there.
"""
from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockFunction
from .regions import TWO_PI, AnnularSector, Disc, Region
from .special import _log_poisson_weight, gammainc_lower, poisson_weight
from .symbols import PolarGrid, RadialSymbol, SampledSymbol, SimpleSymbol
from .tridiagonal import _multisection, _polynomial_rows

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
    """A square complex matrix with JSON/CSV serialization, Hermitian by
    construction: finite entries with max |A - A^H| <= 1e-10 max |A_ij|, a
    test relative to the largest entry so that it holds at every scale, are
    stored, read-only, as (A + A^H) / 2; anything else raises ValueError.
    The check makes one pass for max |A_ij|, which is NaN or inf exactly
    when an entry is not finite, and builds A^H once, contiguous, for both
    the defect and the average.

    A section that assembly builds as a diagonal (_of_diagonal: radial
    sections, ring grids, centered discs and full annuli) is checked in O(N)
    instead and keeps only that diagonal, so _spectrum reads the ends of its
    spectrum off it under either method, exactly and in O(N); data, the
    dense diag(d), is built on its first read. A dense array passed to the
    constructor keeps no diagonal, even a diagonal one."""

    data: np.ndarray
    # the real diagonal d of data = diag(d), recorded by _of_diagonal
    _diagonal = None

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("matrix data must be square and nonempty")
        largest = float(np.max(np.abs(a)))
        # a NaN defect would pass the Hermitian test below
        if not math.isfinite(largest):
            raise ValueError("matrix entries must be finite")
        adjoint = np.conjugate(a.T, order="C")
        defect = float(np.max(np.abs(a - adjoint)))
        if defect > 1e-10 * largest:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} exceeds "
                             f"1e-10 times the largest entry {largest:.3e})")
        h = np.add(a, adjoint, out=adjoint)
        h *= 0.5
        h.setflags(write=False)
        object.__setattr__(self, "data", h)

    def __getattr__(self, name):
        # reached only for attributes not yet set: a diagonal section's data
        if name != "data" or self._diagonal is None:
            raise AttributeError(name)
        data = np.diag(self._diagonal.astype(np.complex128))
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        return data

    @classmethod
    def _of_diagonal(cls, d) -> "HermitianMatrix":
        """diag(d) for a real, finite, nonempty 1-d d, with d recorded: the
        checks and the record are O(N), and the data, built when first read,
        holds d's bits."""
        d = np.array(d)
        if d.ndim != 1 or d.shape[0] < 1:
            raise ValueError("a diagonal must be 1-d and nonempty")
        if not np.isrealobj(d):
            raise ValueError("a diagonal section's entries must be real")
        d = d.astype(np.float64, copy=False)
        if not np.all(np.isfinite(d)):
            raise ValueError("matrix entries must be finite")
        d.setflags(write=False)
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "_diagonal", d)
        return matrix

    @property
    def dimension(self) -> int:
        return len(self._diagonal) if self._diagonal is not None else self.data.shape[0]

    def to_json(self) -> str:
        entries = [[z.real, z.imag] for z in self.data.reshape(-1)]
        return json.dumps({"dimension": self.dimension, "entries": entries})

    def write_csv(self, real_path, imag_path) -> None:
        np.savetxt(real_path, self.data.real, fmt="%.17g", delimiter=",")
        np.savetxt(imag_path, self.data.imag, fmt="%.17g", delimiter=",")


# ---------------------------------------------------------------------------
# assembly


@functools.lru_cache(maxsize=8)
def _gather_tables(size: int):
    """The scale Gamma((m+n)/2 + 1) / sqrt(m! n!) and the mask m > n of
    _gather_moments for m, n < size. With s = (m+n)/2 the scale is the
    ratio sqrt(w(m, s) w(n, s)) / w(s, s) of Poisson weights
    w(b, x) = x^b e^{-x} / Gamma(b + 1), so it is exp(0.5 (L + L^T) - H)
    for L[m, n] = ln w(m, s) and the Hankel H[m, n] = ln w(s, s), each
    from special._log_poisson_weight: Loader's form, in which no term of
    size s ln s cancels. The diagonal is exactly 1 (L[m, m] and H[m, m]
    are the same computation), the table exactly symmetric, and no entry
    depends on size, so a leading block serves every smaller truncation.
    Read-only, since the cache hands the same arrays to every caller."""
    idx = np.arange(size)
    ls = np.arange(2 * size - 1)  # l = m + n
    s = ls / 2.0
    h = _log_poisson_weight(ls, s)
    # s[m + n] and h[m + n] at flat offset m + n: strided (Hankel) views
    s_mn, h_mn = (np.ndarray((size, size), np.float64, a, 0, (a.itemsize,) * 2) for a in (s, h))
    log_w = _log_poisson_weight(2 * idx[:, None], s_mn)
    scale = np.add(log_w, log_w.T)
    scale *= 0.5
    scale -= h_mn
    tables = np.exp(scale, out=scale), np.greater.outer(idx, idx)
    for table in tables:
        table.setflags(write=False)
    return tables


def _gather_moments(radial: np.ndarray, angular: np.ndarray, truncation: int) -> np.ndarray:
    """M[m, n] = Gamma((m+n)/2 + 1) / sqrt(m! n!) * D[m+n, n-m] for the moment
    table D = radial @ angular of a real symbol.

    radial is real with rows l = m + n = 0 .. 2N-2; angular is complex and
    C-contiguous with columns k = n - m = 0 .. N-1. A real symbol has
    D[l, -k] = conj(D[l, k]), so M below the diagonal is the conjugate
    transpose of M above it. D is one real GEMM on angular's interleaved real
    and imaginary parts. The scale (a ratio of Poisson weights, exactly 1 on
    the diagonal) and the mask are leading blocks of _gather_tables, built
    once per size rounded up to a multiple of 64.
    """
    n = truncation
    d = (radial @ angular.view(np.float64)).view(np.complex128)
    # D[m+n, n-m] sits at flat offset m(N-1) + n(N+1) of d for n >= m: a
    # strided view
    step = d.itemsize
    upper = np.ndarray((n, n), np.complex128, d, 0, ((n - 1) * step, (n + 1) * step))
    scale, lower = _gather_tables(64 * math.ceil(n / 64))
    out = np.where(lower[:n, :n], upper.T.conj(), upper)
    out *= scale[:n, :n]
    return out


def _per_radius(edges, values: np.ndarray):
    """The distinct x = pi r^2 of (r_inner, r_outer) edge pairs, in first-seen
    order over the outer radii and then the inner ones, and at each x the sum
    of +values[i] at pair i's outer radius and -values[i] at its inner one,
    the outer terms first, each in pair order."""
    index = {}
    at = [index.setdefault(math.pi * r**2, len(index))
          for r in [r_out for _, r_out in edges] + [r_in for r_in, _ in edges]]
    terms = np.concatenate([values, -values])
    if len(index) == len(at):  # every radius distinct: at is 0, 1, 2, ...
        # + 0.0, as a sum into zeros: a -0.0 becomes 0.0
        return list(index), terms + 0.0
    sums = np.zeros((len(index),) + values.shape[1:], dtype=values.dtype)
    np.add.at(sums, at, terms)
    return list(index), sums


def _arc_moments(t1, t2, truncation: int) -> np.ndarray:
    """A(k) = int_t1^t2 e^{ik theta} dtheta for k = 0 .. truncation-1, one
    row per arc (t1, t2 are column arrays)."""
    ik = 1j * np.arange(truncation)
    out = np.exp(ik * t2) - np.exp(ik * t1)
    out[:, 1:] /= ik[1:]
    out[:, 0] = (t2 - t1)[:, 0]
    return out


def _sector_compression(truncation: int, x, rows) -> np.ndarray:
    """The compression of a symbol that is constant on annular sectors
    centered at the origin, given per radius x = pi r^2.

    With x = pi r^2, entry (m, n) of a sector's compression factors into the
    angular integral A(k) of e^{ik theta} over its arc, k = n - m, and the
    radial increment P(l/2 + 1, x_out) - P(l/2 + 1, x_in), l = m + n:
        G[m, n] = Gamma(l/2 + 1) / sqrt(m! n!) * A(k) / (2pi) * increment.
    So every piece adds its c A(k) / (2pi) at its outer radius and subtracts
    it at its inner one: rows[j] is that sum at x[j], the moment table of
    _gather_moments once multiplied by P(l/2 + 1, x_j). Each incomplete
    gamma is evaluated once per radius. A full span kills every k != 0, so
    full rings are a diagonal (_ring_diagonal).
    """
    radial = gammainc_lower(truncation, x)[:, 1:].T  # a = 1, 3/2, ..., N down a column
    return _gather_moments(radial, rows, truncation)


def _ring_diagonal(x, w, truncation: int) -> np.ndarray:
    """gamma_n = sum_j w_j P(n + 1, x_j), n < truncation: the diagonal of
    the rings with summed weights w at the radii x = pi r^2.

    P(n + 1, x) = 1 - sum_{i <= n} e^{-x} x^i / i!, so gamma_n is sum_j w_j
    minus the prefix sum over i <= n of S_i = sum_j w_j poisson_weight(2i,
    x_j): one table of Poisson weights, one matrix-vector product and one
    length-N cumsum. Rings whose summed weight is exactly 0 (most radii of a
    discretized annulus) are dropped before the table is built. Real; a
    -0.0 entry becomes 0.0.
    """
    keep = w != 0.0
    x, w = np.asarray(x)[keep], w[keep]
    s = poisson_weight(2 * np.arange(truncation)[:, None], x) @ w
    return (np.sum(w) - np.cumsum(s)) + 0.0


def _grid_compression(grid: PolarGrid, truncation: int) -> np.ndarray:
    """The compression of a PolarGrid. Radius j is the outer edge of cell
    j-1 and the inner edge of cell j, so its weights are values[j-1] -
    values[j], with zero rows beyond both ends. A one-column full-span grid
    is rings, returned as its diagonal (1-d, _ring_diagonal); any other
    grid is one _sector_compression, its rows at radius j its weights times
    the angular cells' arc moments / 2pi."""
    x = math.pi * grid.radii**2
    v = grid.values
    w = np.concatenate([-v[:1], v[:-1] - v[1:], v[-1:]])
    if grid.full_span and w.shape[1] == 1:
        return _ring_diagonal(x, w[:, 0], truncation)
    theta = grid.theta_edges[:, None]
    arcs = _arc_moments(theta[:-1], theta[1:], truncation)
    return _sector_compression(truncation, x, w @ arcs / TWO_PI)


def _unit_columns(v: np.ndarray) -> np.ndarray:
    """v with each column scaled to unit 2-norm: first by the power of two
    that takes its largest entry into [1/2, 1), exactly, so that no sum of
    squares overflows, whatever the columns' scale."""
    v = np.ldexp(v, -np.frexp(np.abs(v).max(axis=0))[1])
    v /= np.sqrt(np.sum(v * v, axis=0))
    return v


# the rows of _hermite_eigh start at e^{-(size-1)/2} and peak near
# e^{(size-1)/2}; keep both, with e^16 to spare, inside long double's range
_HERMITE_MAX_SIZE = 1 + 2 * int(-np.finfo(np.longdouble).minexp * math.log(2.0) - 16.0)


@functools.lru_cache(maxsize=8)
def _hermite_eigh(size: int):
    """The positive half-spectrum of the size x size section of a + a^* (size
    even): the Jacobi matrix with zero diagonal and off-diagonals sqrt(1),
    ..., sqrt(size-1), in numpy alone, with no LAPACK call. Returns its
    positive eigenvalues mu (ascending) and the even and odd rows of their
    eigenvectors. mu are the roots of p_size, where p_m are its orthonormal
    polynomials, damped by p_0 = e^{-x^2/8} (tridiagonal._polynomial_rows;
    |p_m(x)| grows to about e^{x^2/4} inside the spectrum): _multisection
    brackets them, and one Newton step on p_size (p_m' = sqrt(m) p_{m-1}) in
    np.longdouble polishes them. The eigenvector of mu is (p_0(mu), ...,
    p_{size-1}(mu)), run in np.longdouble (64-bit mantissa on x86-64) and
    normalized by _unit_columns, whose squares cannot overflow. Every node
    lies below 2 sqrt(size - 1), so the rows stay within e^{+-(size-1)/2}
    of one: a size whose rows would leave long double's exponent range
    (above _HERMITE_MAX_SIZE: 22,679 with x86-64's 80-bit long double, 1,385
    where long double is float64) raises ValueError. Read-only, since the
    cache hands the same arrays to every caller."""
    if size > _HERMITE_MAX_SIZE:
        raise ValueError(f"an a + a^* section of size {size} is beyond long double's exponent "
                         f"range here (at most {_HERMITE_MAX_SIZE})")
    diag, root = np.zeros(size), np.sqrt(np.arange(size + 1, dtype=np.longdouble))
    x = _multisection(diag, np.sqrt(np.arange(1.0, size)), size,
                      np.arange(size // 2, size)).astype(np.longdouble)
    rows = _polynomial_rows(x, np.exp(-x * x / 8), diag, root[1:], size + 1)
    x -= rows[size] / (root[size] * rows[size - 1])
    v = _unit_columns(_polynomial_rows(x, np.exp(-x * x / 8), diag, root[1:], size))
    tables = x.astype(np.float64), v[0::2].astype(np.float64), v[1::2].astype(np.float64)
    for table in tables:
        table.setflags(write=False)
    return tables


def _displaced_disc(region: Disc, truncation: int) -> np.ndarray:
    """Off-center disc indicator by translation invariance:
    T_{1_D(c, r)} = W_c diag(P(k+1, pi r^2)) W_c^*.

    W_c = exp(alpha a^* - conj(alpha) a), alpha = sqrt(pi) conj(c), is
    U exp(i |alpha| X) U^* for X = a + a^* and U = diag(e^{i m psi}), psi =
    arg alpha - pi/2: a product of unitaries from the eigenpairs of a finite
    section of X, which stays accurate where the column recurrence for W_c
    overflows. X couples m only to m +- 1, so diag((-1)^m) maps the
    eigenvector v_j of mu_j > 0 onto that of -mu_j, and the pair adds
    2 v_j[m] v_j[k] times cos theta_j (m + k even) or i sin theta_j (m + k
    odd), theta_j = |alpha| mu_j, to entry (m, k) of exp(i |alpha| X). With
    Z = diag(e^{i m psi} i^(m mod 2)), T = Z Y diag(P) Y^T Z^* for the real
    Y[m, k] = 2 sum_{mu_j > 0} v_j[m] v_j[k] g_j: g_j = cos theta_j for m, k
    of equal parity, -sin theta_j for m even and k odd, +sin theta_j for m
    odd and k even. So Y is one real product per parity block, over the
    positive nodes alone, and Y diag(P) Y^T one real N x K x N product.
    K stops where P(k+1, pi r^2) has underflowed; the section size
    (sqrt(max(N, K)) + |alpha| + 3)^2 keeps its boundary beyond where the
    columns carry mass, rounded up to a multiple of 64 so nearby calls share
    a cached section.
    """
    alpha = math.sqrt(math.pi) * region.center.conjugate()
    x = math.pi * region.radius**2
    cols = math.ceil(x + 12.0 * math.sqrt(x + 1.0) + 40.0)
    reach = (math.sqrt(max(truncation, cols)) + abs(alpha) + 3.0) ** 2
    mu, even, odd = _hermite_eigh(64 * math.ceil(reach / 64.0))
    cos, sin = np.cos(abs(alpha) * mu), np.sin(abs(alpha) * mu)
    n = truncation
    rows_even, rows_odd = even[:(n + 1) // 2], odd[:n // 2]
    cols_even, cols_odd = even[:(cols + 1) // 2].T, odd[:cols // 2].T
    y = np.empty((n, cols))
    y[0::2, 0::2] = (rows_even * cos) @ cols_even
    y[1::2, 0::2] = (rows_odd * sin) @ cols_even
    y[0::2, 1::2] = (rows_even * -sin) @ cols_odd
    y[1::2, 1::2] = (rows_odd * cos) @ cols_odd
    # the factor 2 of Y, squared, rides on diag(P)
    r = (y * (4.0 * gammainc_lower(cols, x)[1::2])) @ y.T
    z = np.exp(1j * (cmath.phase(alpha) - 0.5 * math.pi) * np.arange(n))
    z[1::2] *= 1j
    return r * (z[:, None] * z.conj())


def _piece_compression(pieces, truncation: int) -> np.ndarray:
    """sum_p c_p G_p over (region, c_p) pieces, from the parts present, added
    in this order: c G for each off-center disc (_displaced_disc), in piece
    order, then, if any piece is origin-centered, one matrix: the partial
    sectors' pass (_sector_compression) or zeros, plus the diagonal of the
    centered discs and full annuli (_ring_diagonal). Where those rings are
    every piece, the result is that diagonal alone (1-d); no pieces give a
    zero diagonal."""
    n = truncation
    parts, rings, sectors = [], [], []
    for region, c in pieces:
        if isinstance(region, Disc):
            if region.center != 0:
                parts.append(c * _displaced_disc(region, n))
            else:
                rings.append((0.0, region.radius, c))
        elif region.full_span:
            rings.append((region.r_inner, region.r_outer, c))
        else:
            sectors.append((region, c))

    diagonal = np.zeros(n)
    if rings:
        x, w = _per_radius([ring[:2] for ring in rings], np.array([ring[2] for ring in rings]))
        diagonal = _ring_diagonal(x, w, n)
    if not (parts or sectors):  # rings alone, or no piece at all
        return diagonal
    if sectors:
        t1, t2, coeffs = np.array([(s.theta_start, s.theta_end, c) for s, c in sectors]).T[:, :, None]
        angular = _arc_moments(t1, t2, n) * (coeffs / TWO_PI)
        edges = [(s.r_inner, s.r_outer) for s, _ in sectors]
        parts.append(_sector_compression(n, *_per_radius(edges, angular)))
    elif rings:
        parts.append(np.zeros((n, n), dtype=np.complex128))
    if rings:  # onto the centered matrix, the last part
        parts[-1].reshape(-1)[::n + 1] += diagonal
    # sum starts from 0, so a -0.0 entry becomes 0.0
    return sum(parts)


def region_compression(region: Region, truncation: int) -> np.ndarray:
    """G[m, n] = int_region e_n conj(e_m) dlambda for m, n < truncation.

    _piece_compression of the one piece (region, 1): a centered disc or full
    annulus is a diagonal, any other sector one _sector_compression pass, and
    an off-center disc a Weyl translation. int_region |f|^2 dlambda is the
    quadratic form Re(f^H G f).
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if not isinstance(region, (Disc, AnnularSector)):
        raise TypeError(f"unsupported region type: {type(region).__name__}")
    g = _piece_compression(((region, 1.0),), truncation)
    return np.diag(g.astype(np.complex128)) if g.ndim == 1 else g


def assemble(symbol, truncation: int) -> HermitianMatrix:
    """Compress a symbol to the first `truncation` basis elements.

    SimpleSymbol pieces are compressed in closed form by _piece_compression,
    the path region_compression takes: each off-center disc by Weyl
    translation, the origin-centered pieces summed per radius into one
    sector pass and one diagonal. A PolarGrid is summed per radius from its
    arrays and is either one diagonal or one sector pass.
    SampledSymbol uses its own grid; the grid must resolve the
    requested truncation (radial count >= truncation, angular count >=
    2*truncation - 1). RadialSymbol compressions are the diagonal ones of
    radial_assemble.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    if isinstance(symbol, RadialSymbol):
        return radial_assemble(symbol, truncation)

    if isinstance(symbol, (SimpleSymbol, PolarGrid)):
        if isinstance(symbol, SimpleSymbol):
            section = _piece_compression(symbol.pieces, truncation)
        else:
            section = _grid_compression(symbol, truncation)
        # rings alone come back as their diagonal, which stays one
        if section.ndim == 1:
            return HermitianMatrix._of_diagonal(section)
        return HermitianMatrix(section)

    if isinstance(symbol, SampledSymbol):
        k_rad, m_ang = symbol.values.shape
        if truncation > k_rad:
            raise ValueError(
                f"truncation {truncation} exceeds the radial node count {k_rad}"
            )
        if m_ang < 2 * truncation - 1:
            raise ValueError(
                f"angular count {m_ang} cannot resolve truncation {truncation} "
                f"(need >= {2 * truncation - 1})"
            )
        # radial[l, j] = w_j t_j^{l/2} e^{-t_j} / Gamma(l/2 + 1)
        rul = symbol.radial
        radial = poisson_weight(np.arange(2 * truncation - 1)[:, None], rul.nodes,
                                np.log(rul.scaled_weights))
        # angular[j, k] = (1/M) sum_i v[j, i] e^{i k theta_i}, theta_i = 2pi i / M
        theta = TWO_PI * np.arange(m_ang) / m_ang
        angular = symbol.values @ np.exp(1j * np.outer(theta, np.arange(truncation))) / m_ang
        return HermitianMatrix(_gather_moments(radial, angular, truncation))

    raise TypeError(f"cannot assemble {type(symbol).__name__}")


def radial_assemble(symbol: RadialSymbol, truncation: int) -> HermitianMatrix:
    """Diagonal compression of a radial symbol.

    gamma_n = (1/n!) int_0^inf phi(sqrt(t/pi)) t^n e^{-t} dt, which is
    (pi/(pi+1))^{n+1} for the gaussian. A disc or an annulus is the ring it
    is: its edges go through _per_radius and _ring_diagonal, the path of a
    centred Disc or a full AnnularSector in a SimpleSymbol, with the same
    bits. A table uses the Gauss-Legendre panels in r of
    RadialSymbol.panels(), split at the profile breakpoints, so kinks never
    sit inside a panel and the piecewise-linear profile is integrated at
    spectral accuracy. Neither path depends on N beyond the entries it
    returns, so N has no cap.
    """
    if not isinstance(symbol, RadialSymbol):
        raise TypeError("radial_assemble requires a RadialSymbol")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    if symbol.kind == "gaussian":
        gamma = (math.pi / (math.pi + 1.0)) ** np.arange(1.0, truncation + 1.0)
    elif symbol.kind == "table":
        # every breakpoint panel in one product
        r, w = map(np.concatenate, zip(*symbol.panels()))
        gamma = (poisson_weight(2 * np.arange(truncation)[:, None], math.pi * r * r)
                 @ (w * TWO_PI * r * symbol.profile(r)))
    else:  # disc or annulus
        gamma = _ring_diagonal(*_per_radius([symbol.radii.tolist()], symbol.values), truncation)

    return HermitianMatrix._of_diagonal(gamma)


# ---------------------------------------------------------------------------
# spectra


def _hermitian(matrix) -> HermitianMatrix:
    """matrix itself if it is a HermitianMatrix, else one built from it."""
    return matrix if isinstance(matrix, HermitianMatrix) else HermitianMatrix(matrix)


def _scaled(data: np.ndarray):
    """(2^shift data, shift) for the power of two that brings the largest
    real or imaginary part of the complex data into [1/2, 1), exactly."""
    parts = data.view(np.float64)
    shift = -math.frexp(float(np.max(np.abs(parts))))[1]
    return np.ldexp(parts, shift).view(np.complex128), shift


def _tridiagonal(a: np.ndarray):
    """(d, e) of a real symmetric tridiagonal matrix, diagonal d and
    off-diagonal e >= 0, unitarily similar to the Hermitian a.

    Householder reflections H = I - 2 v v^H, one per column, each built from
    the column x below the diagonal and applied to the trailing block as
    H B H = B - v q^H - q v^H with q = 2 (B v - (v^H B v) v), give a Hermitian
    tridiagonal form whose off-diagonal entries are -x_0 ||x|| / |x_0|. The
    diagonal phase that makes them real and non-negative leaves e_j = ||x||.
    A column with ||x|| <= 2^-500, far below the tail split of a matrix
    scaled as jacobi_eigenvalues scales it, is taken as reduced already.
    ||x|| is summed as numpy.linalg.norm sums a complex vector, over a
    contiguous copy, so e_j has the bits numpy.linalg.norm(x) would give.
    """
    a = a.copy()
    size = a.shape[0]
    e = np.zeros(max(size - 1, 0))
    for j in range(size - 2):
        v = a[j + 1:, j].copy()
        e[j] = norm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
        if norm <= 2.0**-500:
            continue
        lead = abs(v[0])
        v[0] += (v[0] / lead if lead else 1.0) * norm
        v /= math.sqrt(2.0 * norm * (norm + lead))
        b = a[j + 1:, j + 1:]
        q = b @ v
        q -= np.vdot(v, q).real * v
        q *= 2.0
        update = v[:, None] * q.conj()
        update += q[:, None] * v.conj()
        b -= update
    if size > 1:
        e[-1] = abs(a[-1, -2])
    return a.diagonal().real, e


def _lead_block(matrix):
    """(d, e, k, shift) for jacobi_eigenvalues: A scaled by 2^shift, the power
    of two that brings its largest real or imaginary part into [1/2, 1), is
    reduced to the real tridiagonal form (d, e), and k is the size of the
    lead block, the smallest leading k x k block whose dropped couplings have
    2 sum_{j >= k-1} e_j^2 <= (1e-14 ||A||_F)^2. The eigenvalues of A are
    2^-shift times those of the lead block and the tail entries d[k:]."""
    a, shift = _scaled(_hermitian(matrix).data)
    d, e = _tridiagonal(a)
    # tails[k - 1] = 2 sum_{j >= k-1} e_j^2 for the lead sizes k = 1 .. N
    tails = np.append(np.cumsum(2.0 * e[::-1] ** 2)[::-1], 0.0)
    k = 1 + int(np.argmax(tails <= (1e-14 * float(np.linalg.norm(a))) ** 2))
    return d, e, k, shift


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues (ascending), in numpy alone: no LAPACK call. "Jacobi"
    names the real symmetric tridiagonal (Jacobi) matrix that is bisected.

    A is first scaled by a power of two, exactly, that brings its largest
    real or imaginary part into [1/2, 1), so ||A||_F neither overflows nor
    underflows. (1) Householder reflections reduce A to a real tridiagonal
    form (d, e). (2) The lead block is the smallest leading k x k block
    whose dropped couplings have 2 sum_{j >= k-1} e_j^2 <= (1e-14 ||A||_F)^2;
    the other d entries are returned as they are. (3) Sturm-count
    multisection (Barth, Martin & Wilkinson, Numer. Math. 9, 1967), on all
    k brackets (_multisection): eigenvalue j of the lead block starts in its
    Gershgorin bracket, and each round counts the eigenvalues below 16
    points inside every bracket in one _sturm_counts pass and keeps the two
    adjacent points between which the count passes j. The rounds, fixed up
    front, are the fewest that take the first bracket's width below 4 eps
    max|bracket|; the final brackets' midpoints are returned. Each
    eigenvalue is then off by at most the dropped couplings' 1e-14 ||A||_F
    (Weyl's inequality), plus half its final bracket, plus the Householder
    stage's backward error of a few eps ||A||_F. On the 50 random_symbol
    sections of acceptance criterion 7 (N = 60), k is 17-57 (median 32) and
    every eigenvalue is within 3.9e-15 of LAPACK's eigvalsh.
    """
    d, e, k, shift = _lead_block(matrix)
    eigs = np.concatenate([_multisection(d, e, k, np.arange(k)), d[k:]])
    return np.ldexp(np.sort(eigs), -shift)


def _extreme_eigenvalues(matrix):
    """(lambda_min, lambda_max) as jacobi_eigenvalues finds them, bit for bit,
    from the lead block's two extreme brackets and the tail d[k:] alone."""
    d, e, k, shift = _lead_block(matrix)
    eigs = np.concatenate([_multisection(d, e, k, np.array([0, k - 1])), d[k:]])
    return float(np.ldexp(np.min(eigs), -shift)), float(np.ldexp(np.max(eigs), -shift))


def _spectrum(h: HermitianMatrix, method: str):
    """(lo, hi, a, shift): the smallest and largest eigenvalues of 2^shift
    h, and the dense matrix a that LAPACK solved (None where none was).

    method is checked first: "auto" or "jacobi", else ValueError. A kept
    diagonal d (HermitianMatrix._of_diagonal) is its own spectrum under
    either method: lo = min d and hi = max d, exactly and in O(N), with no
    solver call and no dense data. "jacobi" takes the ends of any other
    matrix from _extreme_eigenvalues, scaled back already, and "auto" from
    numpy.linalg.eigvalsh, the first and last of its ascending list.

    zheevd scales a matrix whose largest entry lies outside [2^-485, 2^485],
    and the dsterf it calls a tridiagonal block whose largest entry lies
    below 2^-405, by factors that are not powers of two, which can move the
    last bit. The largest |eigenvalue| nu bounds both: A's largest entry lies
    in [nu / N, nu], and that of nu's block in [nu / 3, nu]. So where
    max(3 2^-405, N 2^-485) <= nu <= 2^485 (or nu = 0), neither scales,
    shift is 0 and a is h.data, with no pass beyond eigvalsh; elsewhere
    eigvalsh runs again on A scaled by the power of two of _scaled, which no
    LAPACK routine scales further.

    Off a kept diagonal, each end is accurate to a few eps max(|lo|, |hi|)
    absolute, not relative: an end far below the other in modulus may have
    no correct digit (diag(2^900, 2^-1000) gives lo = 0.0 under either
    method), so a caller that needs lo must not read it relatively."""
    if method not in ("auto", "jacobi"):
        raise ValueError(f"unknown method: {method!r}")
    d = h._diagonal
    if d is not None:
        return float(np.min(d)), float(np.max(d)), None, 0
    if method == "jacobi":
        return (*_extreme_eigenvalues(h), None, 0)
    a, shift = h.data, 0
    eigs = np.linalg.eigvalsh(a)
    nu = max(abs(eigs[0]), abs(eigs[-1]))
    if nu != 0.0 and not max(3.0 * 2.0**-405, len(eigs) * 2.0**-485) <= nu <= 2.0**485:
        a, shift = _scaled(a)
        eigs = np.linalg.eigvalsh(a)
    return float(eigs[0]), float(eigs[-1]), a, shift


def operator_norm(matrix, *, method: str = "auto") -> float:
    """Spectral norm of a Hermitian matrix: the largest eigenvalue modulus,
    max(|lo|, |hi|) 2^-shift from _spectrum's ends for the method.

    A section assembled as a diagonal d (HermitianMatrix._of_diagonal) is
    its own spectrum under either method, so its norm is max |d|, exactly
    and in O(N), with no solver call and no dense data. method="auto" takes
    every other matrix, a dense diagonal passed in included, to LAPACK
    (numpy.linalg.eigvalsh), exact under power-of-two scaling: where LAPACK
    would rescale by a factor that is not a power of two, _spectrum solves
    A scaled by one instead. On a diagonal zheevd makes no reflection and
    dsterf splits it into 1 x 1 blocks, so the two routes agree bit for bit
    at every scale.
    "jacobi" uses the solver of jacobi_eigenvalues, which makes no LAPACK
    call, but bisects only the two extreme brackets of its lead block: the
    norm is max(|lambda_min|, |lambda_max|), equal to max
    |jacobi_eigenvalues|.
    Assembly makes no LAPACK call either (_hermite_eigh included), so
    assemble followed by the Jacobi norm is LAPACK-free end to end, except
    for a radial table: its Gauss-Legendre panels come from numpy's
    leggauss, which calls eigvalsh once per order per process. Any other
    method raises ValueError, on a kept diagonal too.
    """
    lo, hi, _, shift = _spectrum(_hermitian(matrix), method)
    return math.ldexp(max(abs(lo), abs(hi)), -shift)


# top_eigenpair starts from the chirp e^{i _CHIRP m^2}. A constant start
# vector holds so little of some sector sections' top eigenvectors that one
# solve leaves residuals up to 1e-11 |lambda|, and half of them need two
_CHIRP = math.pi * (math.sqrt(5.0) - 1.0) / 2.0


def top_eigenpair(matrix):
    """(lambda, v) for the eigenvalue of largest magnitude, v of unit norm.

    lambda is the end of _spectrum(matrix, "auto") of larger modulus, and of
    an exact +-lambda tie the negative end, so |lambda| is what
    operator_norm reports, bit for bit. A section kept as its diagonal d
    (HermitianMatrix._of_diagonal) gives d[i] at the first index i where d
    equals lambda, and v = e_i: O(N), with no solver call and no dense
    data. Any other matrix's v comes from inverse iteration on the matrix
    _spectrum solved: solves of (A - sigma I) v = v, each normalized, from
    the chirp v_m = e^{i _CHIRP m^2}, with sigma = lambda + delta just above
    lambda, delta = 2^-52 |lambda| (2^-52 for the zero matrix). The solves
    stop once ||A v - lambda v|| <= 2^-46 |lambda|: after one on most
    sections, a second where the chirp has little of v, and at most three.
    A sigma that is exactly an eigenvalue, so that numpy.linalg.solve
    raises, moves to lambda - delta."""
    h = _hermitian(matrix)
    lo, hi, a, shift = _spectrum(h, "auto")
    lam = lo if abs(lo) >= abs(hi) else hi
    if a is None:  # a kept diagonal
        i = int(np.argmax(h._diagonal == lam))
        v = np.zeros(h.dimension, dtype=np.complex128)
        v[i] = 1.0
        return float(h._diagonal[i]), v
    delta = math.ldexp(abs(lam) or 1.0, -52)
    sigma, eye = lam + delta, np.eye(a.shape[0])
    v = np.exp(1j * _CHIRP * np.arange(a.shape[0]) ** 2)
    for _ in range(3):
        try:
            v = np.linalg.solve(a - sigma * eye, v)
        except np.linalg.LinAlgError:  # sigma is exactly an eigenvalue of a
            sigma = lam - delta
            v = np.linalg.solve(a - sigma * eye, v)
        v /= np.linalg.norm(v)
        if np.linalg.norm(a @ v - lam * v) <= 2.0**-46 * abs(lam):
            break
    return math.ldexp(lam, -shift), v


# ---------------------------------------------------------------------------
# quadratic forms


def _quadratic_form(matrix: np.ndarray, v: np.ndarray) -> float:
    """Re(v^H M v)."""
    return float(np.real(np.vdot(v, matrix @ v)))


def rayleigh(symbol, f: FockFunction) -> float:
    """int phi |f|^2 dlambda for a unit-normalized or general f: the quadratic
    form Re(f^H M f) of M = assemble(symbol, N) at f's truncation N, for every
    symbol type (so a sampled symbol's grid must resolve N)."""
    return _quadratic_form(assemble(symbol, f.truncation).data, f.coeffs)
