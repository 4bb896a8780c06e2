"""Truncated elements of the Gaussian-weighted space of entire functions.

The orthonormal basis is e_n(z) = sqrt(pi^n / n!) z^n for the inner product
<f, g> = int f conj(g) e^{-pi|z|^2} dA(z). A function is its coefficient
vector: compressions and Rayleigh quotients read the coefficients alone, and
the package evaluates no function at a point. weighted_basis_matrix gives
the weighted values e_n(z) e^{-pi|z|^2/2} at sample points for checks by
quadrature: the square root of the Poisson(pi|z|^2) weight at n, from
special.poisson_weight, times e^{i n arg z}, as coherent builds its
coefficients. Each has modulus at most one everywhere (the peak of |e_n|
e^{-pi|z|^2/2} sits at pi|z|^2 = n), so sums of them stay well scaled at any
point of the plane and for any truncation order.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .special import gammainc_lower, poisson_weight

DEFAULT_TRUNCATION = 64
TAIL_WARN_THRESHOLD = 1e-12

__all__ = [
    "DEFAULT_TRUNCATION",
    "FockFunction",
    "weighted_basis_matrix",
    "coherent",
    "random_unit",
]


def weighted_basis_matrix(truncation: int, z) -> np.ndarray:
    """Stack of weighted basis values w_n(z) = e_n(z) e^{-pi|z|^2/2}.

    Shape (truncation, *shape(z)). |w_n(z)|^2 is the Poisson(pi|z|^2)
    weight at n, taken from special.poisson_weight, and the phase of w_n(z)
    is n arg z, as for coherent's coefficients. So |w_n| <= 1 pointwise, and
    the matrix is safe to build for any sample points, including far-out
    quadrature nodes; at z = 0 it is e_0.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    ns = np.arange(truncation).reshape((truncation,) + (1,) * zz.ndim)
    phase = np.exp(1j * ns * np.angle(zz))
    return np.sqrt(poisson_weight(2 * ns, math.pi * np.abs(zz) ** 2)) * phase


@dataclass(frozen=True, eq=False)
class FockFunction:
    """Finite basis expansion f = sum_{n<N} coeffs[n] e_n."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.ndim != 1:
            raise ValueError(f"coefficients must be one-dimensional, got shape {c.shape}")
        if c.size < 1:
            raise ValueError("a FockFunction needs at least one coefficient")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> "FockFunction":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero function")
        return FockFunction(self.coeffs / n)

    def resized(self, truncation: int) -> "FockFunction":
        """Zero-pad or chop the coefficient vector to the given length."""
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        out = np.zeros(truncation, dtype=np.complex128)
        k = min(truncation, self.truncation)
        out[:k] = self.coeffs[:k]
        return FockFunction(out)


def coherent(w0: complex, truncation: int = DEFAULT_TRUNCATION) -> FockFunction:
    """Normalized kernel function K(., w0) / sqrt(K(w0, w0)), truncated.

    Coefficients a_n = e^{-pi|w0|^2/2} sqrt(pi^n/n!) conj(w0)^n: |a_n|^2 is
    the Poisson(pi|w0|^2) weight at n, taken from special.poisson_weight
    (e_0 at w0 = 0), and the phase of a_n is -n arg w0. The dropped tail
    mass is Pr[Poisson(pi|w0|^2) >= N]; when it exceeds 1e-12 a UserWarning
    flags the truncation as lossy (callers that probe under-resolved regimes
    on purpose can filter it).
    """
    w0 = complex(w0)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    mu = math.pi * abs(w0) ** 2
    ns = np.arange(truncation)
    coeffs = np.sqrt(poisson_weight(2 * ns, mu)) * np.exp(-1j * cmath.phase(w0) * ns)
    tail = float(gammainc_lower(truncation, mu)[-1])  # Pr[Poisson(mu) >= truncation]
    if tail > TAIL_WARN_THRESHOLD:
        warnings.warn(
            f"coherent state at |w0| = {abs(w0):.4g} loses tail mass "
            f"{tail:.3e} at truncation {truncation}",
            UserWarning,
            stacklevel=2,
        )
    return FockFunction(coeffs)


def random_unit(
    rng: np.random.Generator,
    degree: int = 20,
    truncation: int | None = None,
) -> FockFunction:
    """Random unit function with i.i.d. standard complex normal coefficients
    up to the given degree, then exact normalization."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = degree + 1
    if truncation is not None and truncation < n:
        raise ValueError(f"truncation {truncation} cannot hold degree {degree}")
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = FockFunction(coeffs).normalized()
    if truncation is not None and truncation != n:
        f = f.resized(truncation)
    return f
