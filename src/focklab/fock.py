"""Truncated elements of the Gaussian-weighted space of entire functions.

The orthonormal basis is e_n(z) = sqrt(pi^n / n!) z^n for the inner product
<f, g> = int f conj(g) e^{-pi|z|^2} dA(z). Every evaluation routine works
through the weighted form f(z) e^{-pi|z|^2/2}: each weighted basis term has
modulus at most one everywhere (the peak of |e_n| e^{-pi|z|^2/2} sits at
pi|z|^2 = n), so sums stay well scaled at any point of the plane and for any
truncation order.
"""
from __future__ import annotations

import cmath
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .special import LN_PI, log_factorial, poisson_tail

DEFAULT_TRUNCATION = 64
TAIL_WARN_THRESHOLD = 1e-12

__all__ = [
    "DEFAULT_TRUNCATION",
    "FockFunction",
    "basis_eval",
    "weighted_basis_eval",
    "weighted_basis_matrix",
    "kernel",
    "coherent",
    "inner",
    "pointwise_bound_check",
    "random_unit",
]


def _as_complex_array(z):
    return np.asarray(z, dtype=np.complex128)


def basis_eval(n: int, z):
    """e_n(z) = sqrt(pi^n / n!) z^n.

    The prefactor is built in the log domain (pi^n / n! overflows well before
    n = 256 otherwise); the monomial itself is left alone, so the value
    overflows only where the function genuinely does.
    """
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    zz = _as_complex_array(z)
    pref = math.exp(0.5 * (n * LN_PI - float(log_factorial(n))))
    out = pref * zz**n
    if np.ndim(z) == 0:
        return complex(out)
    return out


def weighted_basis_matrix(truncation: int, z) -> np.ndarray:
    """Stack of weighted basis values w_n(z) = e_n(z) e^{-pi|z|^2/2}.

    Shape (truncation, *shape(z)). |w_n| <= 1 pointwise, so the matrix is
    safe to build for any sample points, including far-out quadrature nodes.
    """
    zz = np.atleast_1d(_as_complex_array(z))
    ns = np.arange(truncation)
    az = np.abs(zz)
    zero = az == 0.0
    # log|z| with a placeholder at z = 0; those columns are patched afterwards.
    log_az = np.log(np.where(zero, 1.0, az))
    shape_pad = (truncation,) + (1,) * zz.ndim
    ncol = ns.reshape(shape_pad)
    pref = (0.5 * (ns * LN_PI - log_factorial(ns))).reshape(shape_pad)
    expo = pref + ncol * log_az[None] - 0.5 * math.pi * (az[None] ** 2)
    w = np.exp(expo + 1j * ncol * np.angle(zz)[None])
    if np.any(zero):
        w[:, zero] = 0.0
        w[0, zero] = 1.0
    return w


def weighted_basis_eval(n: int, z):
    """w_n(z) = e_n(z) e^{-pi|z|^2/2}, bounded by 1 in modulus."""
    if n < 0:
        raise ValueError(f"basis index must be >= 0, got {n}")
    out = weighted_basis_matrix(n + 1, z)[n]
    if np.ndim(z) == 0:
        return complex(out[0])
    return out


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

    def eval_weighted(self, z):
        """f(z) e^{-pi|z|^2/2}; safe at every point of the plane."""
        w = weighted_basis_matrix(self.truncation, z)
        out = np.tensordot(self.coeffs, w, axes=1)
        if np.ndim(z) == 0:
            return complex(out[0])
        return out

    def eval(self, z):
        """Plain value f(z); may overflow where the function itself does."""
        zz = _as_complex_array(z)
        out = self.eval_weighted(z) * np.exp(0.5 * math.pi * np.abs(zz) ** 2)
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "truncation": self.truncation,
                "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FockFunction":
        data = json.loads(text)
        coeffs = np.array([complex(re, im) for re, im in data["coeffs"]])
        if int(data["truncation"]) != coeffs.size:
            raise ValueError("truncation field disagrees with coefficient count")
        return cls(coeffs)


def inner(f: FockFunction, g: FockFunction) -> complex:
    """<f, g> = sum a_n conj(b_n) (shorter expansion zero-padded)."""
    k = min(f.truncation, g.truncation)
    return complex(np.sum(f.coeffs[:k] * np.conj(g.coeffs[:k])))


def kernel(z, w):
    """Reproducing kernel K(z, w) = e^{pi conj(w) z}."""
    zz = _as_complex_array(z)
    ww = _as_complex_array(w)
    out = np.exp(math.pi * np.conj(ww) * zz)
    if np.ndim(z) == 0 and np.ndim(w) == 0:
        return complex(out)
    return out


def coherent(w0: complex, truncation: int = DEFAULT_TRUNCATION) -> FockFunction:
    """Normalized kernel function K(., w0) / sqrt(K(w0, w0)), truncated.

    Coefficients a_n = e^{-pi|w0|^2/2} sqrt(pi^n/n!) conj(w0)^n; |a_n|^2 is
    the Poisson(pi|w0|^2) weight at n. The dropped tail mass is
    Pr[Poisson(pi|w0|^2) >= N]; when it exceeds 1e-12 a UserWarning flags the
    truncation as lossy (callers that probe under-resolved regimes on purpose
    can filter it).
    """
    w0 = complex(w0)
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    mu = math.pi * abs(w0) ** 2
    ns = np.arange(truncation)
    if w0 == 0:
        coeffs = np.zeros(truncation, dtype=np.complex128)
        coeffs[0] = 1.0
        return FockFunction(coeffs)
    log_mag = -0.5 * mu + 0.5 * (ns * LN_PI - log_factorial(ns)) + ns * math.log(abs(w0))
    phase = -ns * cmath.phase(w0)
    coeffs = np.exp(log_mag + 1j * phase)
    tail = poisson_tail(truncation, mu)
    if tail > TAIL_WARN_THRESHOLD:
        warnings.warn(
            f"coherent state at |w0| = {abs(w0):.4g} loses tail mass "
            f"{tail:.3e} at truncation {truncation}",
            UserWarning,
            stacklevel=2,
        )
    return FockFunction(coeffs)


def pointwise_bound_check(f: FockFunction, points) -> float:
    """max over the samples of |f(z)|^2 e^{-pi|z|^2}.

    For a unit function the reproducing property caps this at 1; the contract
    is max <= 1 + 1e-12 and callers assert it.
    """
    vals = np.abs(f.eval_weighted(np.asarray(points, dtype=np.complex128))) ** 2
    return float(np.max(vals))


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
