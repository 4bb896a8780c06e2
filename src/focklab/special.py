"""Small special-function kit shared by the quadrature and assembly code."""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc as _gammainc_scipy
from scipy.special import gammaln

LN_PI = math.log(math.pi)
_TINY = np.finfo(float).tiny

# ln(n!) table; 4096 covers every truncation and quadrature order we accept.
_LOG_FACTORIAL = gammaln(np.arange(4097, dtype=float) + 1.0)


def log_factorial(n):
    """ln(n!) for an int or integer array, from the precomputed table."""
    return _LOG_FACTORIAL[n]


def gammainc_lower(a, x):
    """Regularized lower incomplete gamma P(a, x) for real shape a > 0
    (vectorized, scipy's implementation)."""
    return _gammainc_scipy(np.asarray(a, dtype=float), np.asarray(x, dtype=float))


def gammainc_lower_int_prefix(a_max: int, x) -> np.ndarray:
    """P(a, x) for all integer a = 1 .. a_max in one pass, for a scalar x or
    an array of x; the result has shape x.shape + (a_max,).

    Uses the finite Poisson sum P(a, x) = 1 - sum_{j<a} e^{-x} x^j / j!,
    accumulating the pmf terms exp(j ln x - x - ln j!) by cumsum; for a_max
    in the hundreds the cumsum rounding stays far below 1e-13.
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.size and not x.min() >= 0.0:
        raise ValueError("x must be >= 0")
    x = x[..., None]
    # ln x is taken at max(x, tiny): at x = 0 every term past the first then
    # underflows to 0, and P = 1 - 1 = 0 exactly.
    terms = np.log(np.maximum(x, _TINY)) * np.arange(a_max)
    terms -= x
    terms -= _LOG_FACTORIAL[:a_max]
    np.exp(terms, out=terms)
    return 1.0 - terms.cumsum(axis=-1)


def poisson_tail(n: int, mu: float) -> float:
    """Pr[Poisson(mu) >= n]: the mass a degree-(n-1) truncation drops."""
    if n <= 0:
        return 1.0
    return float(_gammainc_scipy(n, mu))
