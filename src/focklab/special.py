"""Small special-function kit shared by the quadrature and assembly code,
in numpy and the standard library alone: ln Gamma at half-integers, Poisson
weights, and the regularized lower incomplete gamma P(a, x) by prefixes:
gammainc_lower(a_max, x) at every a = 1/2, 1, ..., a_max, shape
x.shape + (2 a_max,), and gammainc_lower_int_prefix(a_max, x) at every
a = 1, 2, ..., a_max, shape x.shape + (a_max,). Every Poisson weight
x^b e^{-x} / Gamma(b + 1) in the package has one formula, Loader's
saddle-point form, formed by one helper (_log_weights) from the constants
of _lattice: poisson_weight gives it at any half-integer b, and
gammainc_lower sums it over a lattice slice. Assembly reads the Poisson
weights and gammainc_lower; gammainc_lower_int_prefix has no caller in the
package and stays for the tests and the benchmark's tracing.
"""
from __future__ import annotations

import functools
import math

import numpy as np

LN_PI = math.log(math.pi)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Cephes lgam (S. L. Moshier, Cephes Math Library) for x >= 1: a rational
# fit on [2, 3] reached by the recurrence below 13, Stirling's series above.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)


def _horner(x: float, coeffs) -> float:
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _lgam(x: float) -> float:
    """ln Gamma(x) for x >= 1 by Cephes lgam, operation for operation, so
    that it has the bits of scipy.special.gammaln (checked at every x = k/2
    + 1, k < 400,001); math.lgamma differs from those in about half the
    half-integers."""
    if x >= 13.0:
        q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # Cephes' ln sqrt(2 pi)
        if x > 1e8:
            return q
        p = 1.0 / (x * x)
        if x >= 1000.0:
            return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                        + 0.0833333333333333333333) / x
        return q + _horner(p, _LGAM_A) / x
    z, shift, u = 1.0, 0.0, x
    while u >= 3.0:
        shift -= 1.0
        u = x + shift
        z *= u
    if u < 2.0:  # x in [1, 2)
        z /= u
        shift += 1.0
        u = x + shift
    if u == 2.0:
        return math.log(z)
    x += shift - 2.0
    return math.log(z) + x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C)


_lgamma_halves = np.zeros(0)


def lgamma_halves(k_max: int) -> np.ndarray:
    """ln Gamma(k/2 + 1) for k = 0 .. k_max at least: one read-only table,
    built with _lgam and rebuilt at twice the length (1,024 at least)
    whenever a call asks past its end, so every caller reads the same bits."""
    global _lgamma_halves
    if len(_lgamma_halves) <= k_max:
        size = max(2 * len(_lgamma_halves), k_max + 1, 1024)
        table = np.array([_lgam(0.5 * k + 1.0) for k in range(size)])
        table.setflags(write=False)
        _lgamma_halves = table
    return _lgamma_halves


def log_factorial(n):
    """ln(n!) for an int or integer array n >= 0, read from lgamma_halves."""
    n = np.asarray(n)
    if n.size and not n.min() >= 0:
        raise ValueError("n must be >= 0")
    return lgamma_halves(2 * int(n.max(initial=0)))[2 * n]


def _stirling_series(b):
    """The asymptotic series of the Stirling error to five terms: at b >= 16
    its truncation error is below 2e-16."""
    inv2 = 1.0 / (b * b)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv2 / 1188) * inv2) * inv2) * inv2) / b


def _stirling_errors(b: np.ndarray) -> np.ndarray:
    """e(b) = ln Gamma(b + 1) - (b + 1/2) ln b + b - ln sqrt(2 pi) at
    half-integers b >= 1/2: _stirling_series at b >= 16, and below that the
    exact steps e(b) - e(b + 1) = sum_{k >= 1} z^(2k) / (2k + 1),
    z = 1 / (2b + 1), taken down from e(16) and e(16.5)."""
    out = _stirling_series(b)
    low = b < 16.0
    if low.any():
        exact = {}
        for v in (15.0, 15.5):
            value = _stirling_series(v + 1.0)
            while v > 0.0:
                z2 = 1.0 / (2.0 * v + 1.0) ** 2
                value += math.fsum(z2**k / (2 * k + 1) for k in range(1, 40))
                exact[v] = value
                v -= 1.0
        out[low] = [exact[v] for v in b[low]]
    return out


@functools.lru_cache(maxsize=8)
def _lattice(size: int) -> np.ndarray:
    """Row constants of gammainc_lower for b = j/2, j = 2 size down to 1, as
    one (3, size, 2) array: b, 1/b and -e(b) - ln sqrt(2 pi b), e the
    Stirling error. Column 0 holds the integers size .. 1, column 1 the
    half-integers size - 1/2 .. 1/2. Read-only, since the cache hands the
    same array to every caller."""
    b = np.arange(2 * size, 0, -1).reshape(size, 2) / 2.0
    const = -_stirling_errors(b.reshape(-1)).reshape(size, 2) - _LN_SQRT_2PI - 0.5 * np.log(b)
    rows = np.stack([b, 1.0 / b, const])
    rows.setflags(write=False)
    return rows


def _lattice_size(last: int) -> int:
    """The _lattice size that holds b = 1/2 .. last: 256 times a power of
    two, so that calls at nearby sizes share one cached table."""
    return 256 << max(0, math.ceil(math.log2(last / 256.0)))


def _log_weights(q, b, const, zero: bool):
    """ln w = const - b (q - 1 - ln q) of Loader's form, for q = x / b,
    formed in place in the order ln q, q - 1, times b, plus the constant
    (q itself is overwritten). zero says that some x is 0: there ln q =
    -inf, so ln w = -inf and the weight is 0."""
    if zero:
        with np.errstate(divide="ignore"):
            w = np.log(q)
    else:
        w = np.log(q)
    q -= 1.0
    w -= q
    w *= b
    w += const
    return w


def poisson_weight(k, x, log_w=0.0) -> np.ndarray:
    """w x^b e^{-x} / Gamma(b + 1) elementwise (numpy broadcasting) for the
    half-integers b = k / 2 of a non-negative integer array k and x >= 0,
    with log_w = ln w. Each weight is Loader's saddle-point form (C. Loader,
    "Fast and accurate computation of binomial probabilities", 2000), the
    form gammainc_lower sums:
        exp(ln w - e(b) - b (q - 1 - ln q)) / sqrt(2 pi b),  q = x / b,
    with b, 1/b and -e(b) - ln sqrt(2 pi b) read from _lattice (e the
    Stirling error), so no term of size b ln b cancels and the relative
    error does not grow with b. b = 0 gives w e^{-x}; at x = 0 every weight
    with b > 0 is 0."""
    k = np.asarray(k)
    x = np.asarray(x, dtype=float)
    size = _lattice_size(max(1, math.ceil(int(k.max()) / 2)))
    # b = k/2 sits at flat position 2 size - k; k = 0 reads b = 1/2 and is
    # replaced below
    b, inv_b, const = np.take(_lattice(size).reshape(3, -1), 2 * size - k, axis=1, mode="clip")
    w = np.asarray(_log_weights(x * inv_b, b, const + log_w, x.size > 0 and x.min() == 0.0))
    np.copyto(w, log_w - x, where=k == 0)
    return np.exp(w, out=w)


def _reach(a: float, x: float) -> float:
    """A k with sum_{i > k} w(a + i, x) < 2^-60 w(a, x) for 0 <= x <= a:
    the terms fall like e^{-i^2 / 2a} at worst, and like (x/a)^i where
    x <= a/2."""
    k = math.sqrt(80.0 * a) + 40.0
    if 2.0 * x <= a:
        k = min(k, 43.0 / math.log(a / x)) if x > 0.0 else 0.0
    return k


def gammainc_lower(a_max, x) -> np.ndarray:
    """P(a, x) for every a = 1/2, 1, 3/2, ..., a_max in one pass, for a
    half-integer a_max >= 1 and a scalar or 1-d x >= 0; the result has shape
    x.shape + (2 a_max,), column i holding a = (i + 1)/2. Any other a_max or
    x raises ValueError.

    P(a, x) = sum_{i >= 0} w(a + i, x) for the Poisson weights
    w(b, x) = x^b e^{-x} / Gamma(b + 1), positive terms whatever a and x.
    One table of the weights at b = 1/2, 1, ... up to where a_max's tail is
    negligible (_reach), in two interleaved runs of step 1 summed from the
    top down, holds every P at once; x above a_max + _reach(a_max, a_max)
    is taken at that value, where every P rounds to 1. Each weight is
    Loader's saddle-point form (C. Loader, "Fast and accurate computation of
    binomial probabilities", 2000)
        w(b, x) = exp(-e(b) - b (q - 1 - ln q)) / sqrt(2 pi b),  q = x / b,
    with the Stirling error e(b) from _lattice, so no term of size b cancels:
    ln q - (q - 1) is formed from q alone and is small where q is near 1.
    Against 40-digit values over a in {1/2, 1, ..., 240} and x = pi r^2,
    r in [0, 16] (step 0.1), the absolute error is at most 1.6e-15, and
    where P >= 1e-200 the relative error at most 1.3e-13; scipy.special.
    gammainc is within 1.6e-15 of it there, and off by up to 5.3e-13
    relative itself.
    """
    twice = 2.0 * np.asarray(a_max, dtype=float)
    if twice.ndim or not (2.0 <= twice < 2.0**62 and float(twice).is_integer()):
        raise ValueError(f"a_max must be a half-integer >= 1, got {a_max!r}")
    j_max, x = int(twice), np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    x_lo, x_hi = (flat[0], flat[0]) if len(flat) == 1 else (flat.min(), flat.max())
    if not x_lo >= 0.0:
        raise ValueError("x must be >= 0")
    a_max = 0.5 * j_max
    top = a_max + _reach(a_max, a_max)
    if x_hi > top:
        flat, x_hi = np.minimum(flat, top), top
    # weights from b = 1/2 up to the last one that counts
    if x_hi > a_max:
        last = math.ceil(x_hi + _reach(x_hi, x_hi))
    else:
        last = math.ceil(a_max + _reach(a_max, x_hi))
    size = _lattice_size(last)
    b, inv_b, const = _lattice(size)[:, size - last:]
    w = _log_weights(flat.reshape(-1, 1, 1) * inv_b, b, const, x_lo == 0.0)
    np.exp(w, out=w)
    # b = j/2 sits at flat position 2 last - j; a sum near 1 can round a few
    # ulps above it
    tails = np.minimum(w.cumsum(axis=1).reshape(len(w), -1), 1.0)
    return tails[:, 2 * last - j_max:][:, ::-1].reshape(x.shape + (j_max,))


def gammainc_lower_int_prefix(a_max: int, x) -> np.ndarray:
    """P(a, x) for all integer a = 1 .. a_max in one pass, for a scalar x or
    an array of x; the result has shape x.shape + (a_max,).

    Uses the finite Poisson sum P(a, x) = 1 - sum_{j<a} e^{-x} x^j / j!,
    accumulating the poisson_weight(j, x) terms by cumsum, so P(a, 0) = 0
    exactly. The cumsum rounding grows with x: at a_max = 256 the largest
    error against scipy.special.gammainc is 6e-15 at x = 40, 3e-14 at x = 80
    and 1.1e-13 at x = 200. Where P is below that rounding, 1 - cumsum can
    go negative (-2.2e-16 at P(41, pi 1.5^2), truly 2.0e-18), so the result
    is clipped to [0, 1]; gammainc_lower keeps relative accuracy there.

    Nothing in focklab calls it any more (ring diagonals take the prefix
    sum of their weighted Poisson terms directly, toeplitz._ring_diagonal):
    it is kept for the tests and the benchmark's tracing, with the other
    test-only names that are to leave the package.
    """
    if a_max < 1:
        raise ValueError("a_max must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.size and not x.min() >= 0.0:
        raise ValueError("x must be >= 0")
    out = 1.0 - poisson_weight(2 * np.arange(a_max), x[..., None]).cumsum(axis=-1)
    return np.clip(out, 0.0, 1.0, out=out)
