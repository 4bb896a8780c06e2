"""Toeplitz-operator compressions and their spectra.

assemble() produces the truncated matrix M[m, n] = int phi e_n conj(e_m) dlambda
for the first N basis elements, for every symbol type. The origin-centered
pieces of a symbol are compressed in one pass: partial annular sectors sum
into one moment table D[l = m+n, k = n-m], which one gather turns into M
(_gather_moments, shared with sampled symbols, which build D from their
grid), and full annuli and centered discs sum into one diagonal. An
off-center disc D(c, r) is the Weyl translate W_c T_{1_D(0, r)} W_c^* of the
diagonal centered disc. region_compression() is the same pass for one
region. radial_assemble() gives radial symbols' diagonal compressions, the
gaussian's in closed form and compact profiles' on RadialSymbol.panels(), a
fixed rule for every N; those panels and sampled grids share one radial
moment routine (_radial_moments).
rayleigh() is the quadratic form Re(f^H M f) of assemble().

operator_norm() takes the largest eigenvalue modulus from LAPACK
(numpy.linalg.eigvalsh); method="jacobi" runs jacobi_eigenvalues instead, a
round-robin Jacobi eigensolver in numpy that applies N/2 disjoint rotations
at a time: an independent check that does not depend on LAPACK.
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
    """A square complex matrix with JSON/CSV serialization, Hermitian by
    construction: finite entries with max |A - A^H| <= 1e-10 max |A_ij|, a
    test relative to the largest entry so that it holds at every scale, are
    stored, read-only, as (A + A^H) / 2; anything else raises ValueError."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("matrix data must be square and nonempty")
        # a NaN defect would pass the Hermitian test below
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        defect = float(np.max(np.abs(a - a.conj().T)))
        largest = float(np.max(np.abs(a)))
        if defect > 1e-10 * largest:
            raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} exceeds "
                             f"1e-10 times the largest entry {largest:.3e})")
        h = 0.5 * (a + a.conj().T)
        h.setflags(write=False)
        object.__setattr__(self, "data", h)

    @property
    def dimension(self) -> int:
        return self.data.shape[0]

    def to_json_dict(self) -> dict:
        entries = [[z.real, z.imag] for z in self.data.reshape(-1)]
        return {"dimension": self.dimension, "entries": entries}

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


def _gather_moments(radial: np.ndarray, angular: np.ndarray, truncation: int) -> np.ndarray:
    """M[m, n] = Gamma((m+n)/2 + 1) / sqrt(m! n!) * D[m+n, n-m] for the moment
    table D = radial @ angular of a real symbol.

    radial is real with rows l = m + n = 0 .. 2N-2; angular is complex and
    C-contiguous with columns k = n - m = 0 .. N-1. A real symbol has
    D[l, -k] = conj(D[l, k]), so M below the diagonal is the conjugate
    transpose of M above it. D is one real GEMM on angular's interleaved real
    and imaginary parts.
    """
    n = truncation
    d = (radial @ angular.view(np.float64)).view(np.complex128)
    # D[m+n, n-m] sits at flat offset m(N-1) + n(N+1) of d for n >= m, and
    # lgam[m+n] at offset m + n of lgam: both gathers are strided views.
    step = d.itemsize
    upper = np.ndarray((n, n), np.complex128, d, 0, ((n - 1) * step, (n + 1) * step))
    idx = np.arange(n)
    out = np.where(np.greater.outer(idx, idx), upper.T.conj(), upper)
    lgam = gammaln(np.arange(1.0, n + 0.5, 0.5))  # Gamma(l/2 + 1), l = 0 .. 2N-2
    hankel = np.ndarray((n, n), np.float64, lgam, 0, (lgam.itemsize,) * 2)
    lf = log_factorial(idx)
    out *= np.exp(hankel - 0.5 * np.add.outer(lf, lf))
    return out


def _radial_moments(t: np.ndarray, log_w, ls: np.ndarray) -> np.ndarray:
    """table[l, j] = w_j t_j^{l/2} e^{-t_j} / Gamma(l/2 + 1) for the orders
    l in ls at nodes t_j > 0, formed in the log domain so that neither the
    powers nor the gamma function overflow."""
    return np.exp(0.5 * np.outer(ls, np.log(t)) - t[None, :] + log_w
                  - gammaln(ls / 2.0 + 1.0)[:, None])


def _radius_index(edges):
    """The distinct x = pi r^2 over (r_inner, r_outer) edge pairs, and where
    each pair's x(r_outer), then each pair's x(r_inner), sits among them."""
    index = {}
    at = [index.setdefault(math.pi * r**2, len(index))
          for r in [r_out for _, r_out in edges] + [r_in for r_in, _ in edges]]
    return list(index), at


def _centred_compression(pieces, truncation: int) -> np.ndarray:
    """sum_p c_p G_p over (region, c_p) pieces whose regions are annular
    sectors or origin-centered discs, in one pass.

    With x = pi r^2, entry (m, n) of a sector's compression factors into the
    angular integral A(k) of e^{ik theta} over its arc, k = n - m, and the
    radial increment P(l/2 + 1, x_out) - P(l/2 + 1, x_in), l = m + n:
        G[m, n] = Gamma(l/2 + 1) / sqrt(m! n!) * A(k) / (2pi) * increment.
    A full span kills every k != 0, so annuli and centered discs sum into one
    diagonal of integer-shape increments. Partial sectors sum into one moment
    table D[l, k] = sum_p c_p increment_p(l) A_p(k) / (2pi) for
    _gather_moments. Both sums are taken per distinct radius, each piece
    adding its weight at its outer radius and subtracting it at its inner
    one, so each incomplete gamma is evaluated once per radius.
    """
    n = truncation
    rings, part = [], []
    for region, c in pieces:
        if isinstance(region, Disc):
            rings.append((0.0, region.radius, c))
        elif region.full_span:
            rings.append((region.r_inner, region.r_outer, c))
        else:
            part.append((region, c))

    if part:
        t1, t2, coeffs = np.array([(s.theta_start, s.theta_end, c) for s, c in part]).T[:, :, None]
        ks = np.arange(n)
        safe_k = np.where(ks == 0, 1, ks)
        angular = np.where(ks == 0, t2 - t1,
                           (np.exp(1j * ks * t2) - np.exp(1j * ks * t1)) / (1j * safe_k))
        angular *= coeffs / TWO_PI
        xs, at = _radius_index([(s.r_inner, s.r_outer) for s, _ in part])
        by_radius = np.zeros((len(xs), n), dtype=np.complex128)
        np.add.at(by_radius, at, np.concatenate([angular, -angular]))
        radial = gammainc_lower(np.arange(1.0, n + 0.5, 0.5)[:, None], xs)
        total = _gather_moments(radial, by_radius, n)
    else:
        total = np.zeros((n, n), dtype=np.complex128)

    if rings:
        xs, at = _radius_index([ring[:2] for ring in rings])
        coeffs = [ring[2] for ring in rings]
        by_radius = np.bincount(at, coeffs + [-c for c in coeffs], len(xs))
        total.reshape(-1)[::n + 1] += by_radius @ gammainc_lower_int_prefix(n, xs)
    return total


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
    sector formula of _centred_compression, off-center discs by Weyl
    translation of the centered disc. int_region |f|^2 dlambda is the
    quadratic form Re(f^H G f).
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if not isinstance(region, (AnnularSector, Disc)):
        raise TypeError(f"unsupported region type: {type(region).__name__}")
    if isinstance(region, Disc) and region.center != 0:
        return _displaced_disc(region, truncation)
    return _centred_compression(((region, 1.0),), truncation)


def assemble(symbol, truncation: int) -> HermitianMatrix:
    """Compress a symbol to the first `truncation` basis elements.

    SimpleSymbol pieces are compressed in closed form: the origin-centered
    ones in one batched pass, each off-center disc by Weyl translation.
    SampledSymbol uses its own grid; the grid must resolve the
    requested truncation (radial count >= truncation, angular count >=
    2*truncation - 1). RadialSymbol compressions are the diagonal ones of
    radial_assemble.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    if isinstance(symbol, RadialSymbol):
        return radial_assemble(symbol, truncation)

    if isinstance(symbol, SimpleSymbol):
        centred = []
        total = np.zeros((truncation, truncation), dtype=np.complex128)
        for region, coeff in symbol.pieces:
            if isinstance(region, Disc) and region.center != 0:
                total += coeff * _displaced_disc(region, truncation)
            else:
                centred.append((region, coeff))
        total += _centred_compression(centred, truncation)
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
        ls, rul = np.arange(2 * truncation - 1), symbol.rule.radial
        radial = _radial_moments(rul.nodes, np.log(rul.scaled_weights), ls)
        # angular[j, k] = (1/M) sum_i v[j, i] e^{i k theta_i}
        theta = symbol.rule.angular.nodes
        angular = symbol.values @ np.exp(1j * np.outer(theta, np.arange(truncation))) / m_ang
        return HermitianMatrix(_gather_moments(radial, angular, truncation))

    raise TypeError(f"cannot assemble {type(symbol).__name__}")


def radial_assemble(symbol: RadialSymbol, truncation: int) -> HermitianMatrix:
    """Diagonal compression of a radial symbol.

    gamma_n = (1/n!) int_0^inf phi(sqrt(t/pi)) t^n e^{-t} dt, which is
    (pi/(pi+1))^{n+1} for the gaussian. Compactly supported profiles use the
    Gauss-Legendre panels in r of RadialSymbol.panels(), split at the profile
    breakpoints, so jumps never sit inside a panel and piecewise-polynomial
    profiles are integrated at spectral accuracy. The panels are the same for
    every N, so no gamma_n depends on N and N has no cap.
    """
    if not isinstance(symbol, RadialSymbol):
        raise TypeError("radial_assemble requires a RadialSymbol")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    if symbol.kind == "gaussian":
        gamma = (math.pi / (math.pi + 1.0)) ** np.arange(1.0, truncation + 1.0)
    else:
        # every breakpoint panel in one product
        r, w = map(np.concatenate, zip(*symbol.panels()))
        gamma = (_radial_moments(math.pi * r * r, 0.0, 2 * np.arange(truncation))
                 @ (w * TWO_PI * r * symbol.profile(r)))

    return HermitianMatrix(np.diag(gamma.astype(np.complex128)))


# ---------------------------------------------------------------------------
# spectra


def _hermitian(matrix) -> HermitianMatrix:
    """matrix itself if it is a HermitianMatrix, else one built from it."""
    return matrix if isinstance(matrix, HermitianMatrix) else HermitianMatrix(matrix)


def top_eigenpair(matrix):
    """(lambda, v) for the eigenvalue of largest magnitude, from LAPACK eigh;
    v has unit norm."""
    eigs, vecs = np.linalg.eigh(_hermitian(matrix).data)
    i = int(np.argmax(np.abs(eigs)))
    return float(eigs[i]), vecs[:, i]


def _round_robin_permutation(n: int) -> np.ndarray:
    """perm (n even) such that a[perm][:, perm] moves the pairs (2i, 2i+1) of
    a to the next round-robin pairing: index 0 stays, and every other index
    moves one place along the cycle 2 -> 4 -> ... -> n-2 -> n-1 -> n-3 ->
    ... -> 1 -> 2. In n - 1 rounds every two indices share a pair exactly
    once, and the order is back where it started."""
    cycle = np.r_[2:n:2, n - 1:0:-2]
    perm = np.arange(n)
    perm[cycle] = np.roll(cycle, 1)
    return perm


def _pair_rotations(a: np.ndarray, negligible: float) -> np.ndarray:
    """U^H blocks, shape (n/2, 2, 2), of the complex rotations that zero the
    pivots a[2i, 2i+1] of a Hermitian a with n even.

    With beta = a[2i, 2i+1] = |beta| e^{i phi} and
    tau = (a[2i+1, 2i+1] - a[2i, 2i]) / (2 |beta|), the block is
    [[c, -s e^{i phi}], [s e^{-i phi}, c]] for t = sign(tau) / (|tau| +
    hypot(1, tau)), c = 1 / sqrt(1 + t^2), s = t c. Pivots with
    |beta| <= negligible get the identity, so tau is never formed from them.
    """
    n = a.shape[0]
    flat = a.reshape(-1)
    beta = flat[1::2 * n + 2]
    gap = flat[n + 1::2 * n + 2].real - flat[::2 * n + 2].real
    size = np.abs(beta)
    live = size > negligible
    tau = np.divide(gap, 2.0 * size, out=np.zeros(n // 2), where=live)
    t = np.copysign(live / (np.abs(tau) + np.hypot(1.0, tau)), tau)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = np.divide(beta, size, out=np.zeros(n // 2, dtype=np.complex128), where=live) * (t * c)
    g = np.empty((n // 2, 2, 2), dtype=np.complex128)
    g[:, 0, 0] = c
    g[:, 1, 1] = c
    g[:, 0, 1] = -s
    g[:, 1, 0] = s.conj()
    return g


def jacobi_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues (ascending) by round-robin complex Jacobi rotations.

    The parallel ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6:69,
    1985): each sweep has N - 1 rounds, and each round zeroes N/2 disjoint
    pivots at once. The pairs sit on adjacent rows (2i, 2i+1), so a round is
    one batched 2x2 rotation of the rows, the same on the conjugate
    transpose, and one fixed index permutation to the next pairing. An odd N
    is padded with a zero row and column, whose eigenvalue 0 is dropped.

    Sweeps stop once the off-diagonal part, measured directly, has
    ||A - diag A||_F <= 1e-13 ||A||_F. Rotations whose pivot is at most
    1e-13 ||A||_F / N are skipped: if every pivot were that small, the stop
    test would already hold. A RuntimeError names the 60-sweep limit if the
    test is still unmet after it. The matrix is first scaled by a power of
    two that brings its largest entry near 1, so ||A||_F overflows or
    underflows for no finite input. On the 50 random_symbol sections of
    acceptance criterion 7 (N = 60, ||A||_2 <= 1), 6-16 sweeps put every
    eigenvalue within 1e-14 of LAPACK's eigvalsh, and nudging every entry by
    one ulp leaves each sweep count unchanged.
    """
    a = _hermitian(matrix).data
    size = a.shape[0]
    n = size + size % 2
    half = n // 2
    m = np.zeros((n, n), dtype=np.complex128)
    m[:size, :size] = a
    # Scaled by a power of two, which is exact, so that the largest real or
    # imaginary part lies in [1/2, 1): ||A||_F then neither overflows nor
    # underflows. The eigenvalues are scaled back on return.
    parts = m.view(np.float64)
    shift = -math.frexp(float(np.max(np.abs(parts))))[1]
    np.ldexp(parts, shift, out=parts)
    perm = _round_robin_permutation(n)
    fro = float(np.linalg.norm(m))
    for sweep in range(61):
        off = float(np.linalg.norm(m - np.diag(m.diagonal())))
        if off <= 1e-13 * fro:
            # After whole sweeps the rows are back in their starting order,
            # so the padding row is the last one.
            return np.ldexp(np.sort(m.diagonal().real[:size]), -shift)
        if sweep == 60:
            raise RuntimeError(
                f"Jacobi did not reach ||A - diag A||_F <= 1e-13 ||A||_F within "
                f"the 60-sweep limit (off-diagonal norm {math.ldexp(off, -shift):.3e}, "
                f"||A||_F {math.ldexp(fro, -shift):.3e})")
        for _ in range(n - 1):
            g = _pair_rotations(m, 1e-13 * fro / n)
            x = np.matmul(g, m.reshape(half, 2, n)).reshape(n, n)         # U^H A
            m = np.matmul(g, x.conj().T.reshape(half, 2, n)).reshape(n, n)  # U^H (A U)
            m = m[perm][:, perm]


def operator_norm(matrix, *, method: str = "auto") -> float:
    """Spectral norm of a Hermitian matrix: the largest eigenvalue modulus.

    method="auto" takes the spectrum from LAPACK (numpy.linalg.eigvalsh);
    "jacobi" diagonalizes with jacobi_eigenvalues, independently of LAPACK.
    """
    h = _hermitian(matrix)
    if method == "auto":
        eigs = np.linalg.eigvalsh(h.data)
    elif method == "jacobi":
        eigs = jacobi_eigenvalues(h)
    else:
        raise ValueError(f"unknown method: {method!r}")
    return float(np.max(np.abs(eigs)))


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
