"""Small special-function kit shared by the quadrature and assembly code."""
from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc as _gammainc_scipy
from scipy.special import gammaln

LN_PI = math.log(math.pi)
_TINY = np.finfo(float).tiny


def log_factorial(n):
    """ln(n!) for an int or integer array, as gammaln(n + 1)."""
    return gammaln(np.asarray(n) + 1.0)


def gammainc_lower(a, x):
    """Regularized lower incomplete gamma P(a, x) for real shape a > 0
    (vectorized, scipy's implementation)."""
    return _gammainc_scipy(np.asarray(a, dtype=float), np.asarray(x, dtype=float))


def poisson_weight(a, x, log_w=0.0) -> np.ndarray:
    """w x^a e^{-x} / Gamma(a + 1) elementwise (numpy broadcasting), with
    log_w = ln w, formed in the log domain so that neither the power nor the
    gamma function overflows. ln x is taken at max(x, tiny): at x = 0 every
    weight with a > 0 underflows to 0 and a = 0 gives w."""
    return np.exp(a * np.log(np.maximum(x, _TINY)) - x + log_w - gammaln(a + 1.0))


def gammainc_lower_int_prefix(a_max: int, x) -> np.ndarray:
    """P(a, x) for all integer a = 1 .. a_max in one pass, for a scalar x or
    an array of x; the result has shape x.shape + (a_max,).

    Uses the finite Poisson sum P(a, x) = 1 - sum_{j<a} e^{-x} x^j / j!,
    accumulating the poisson_weight(j, x) terms by cumsum, so P(a, 0) = 0
    exactly. The cumsum rounding grows with x: at a_max = 256 the largest
    error against scipy.special.gammainc is 6e-15 at x = 40, 3e-14 at x = 80
    and 1.1e-13 at x = 200.
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.size and not x.min() >= 0.0:
        raise ValueError("x must be >= 0")
    return 1.0 - poisson_weight(np.arange(a_max), x[..., None]).cumsum(axis=-1)


def poisson_tail(n: int, mu: float) -> float:
    """Pr[Poisson(mu) >= n]: the mass a degree-(n-1) truncation drops."""
    if n <= 0:
        return 1.0
    return float(_gammainc_scipy(n, mu))
