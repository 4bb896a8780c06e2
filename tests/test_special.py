import decimal
import math

import numpy as np
import pytest
from scipy.special import gammainc as scipy_gammainc

from focklab.special import (
    _log_poisson_weight,
    gammainc_lower,
    gammainc_lower_int_prefix,
    poisson_weight,
)


def test_gammainc_prefix_past_old_table():
    a = np.arange(1, 5001)
    for x in (0.0, 0.5, 3.0, 40.0):
        assert np.max(np.abs(gammainc_lower_int_prefix(5000, x) - scipy_gammainc(a, x))) < 1e-13


def test_gammainc_int_against_direct_sum():
    # P(a, x) = 1 - e^{-x} sum_{j<a} x^j / j!, for a vector of x with x = 0
    xs = np.array([0.0, 0.3, 1.0, 4.7, 30.0])
    prefix = gammainc_lower_int_prefix(20, xs)
    assert prefix.shape == (5, 20)
    for a in (1, 2, 5, 20):
        for x, got in zip(xs, prefix[:, a - 1]):
            direct = 1.0 - math.fsum(
                math.exp(-x) * x**j / math.factorial(j) for j in range(a)
            )
            assert abs(got - direct) < 5e-15
    assert np.all(prefix[0] == 0.0)


def test_gammainc_int_monotone_in_x():
    vals = gammainc_lower_int_prefix(4, np.linspace(0.0, 12.0, 50))[:, 3]
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0
    assert vals[-1] < 1.0


def test_gammainc_matches_scipy():
    a = np.arange(0.5, 12.75, 0.5)
    for x in (0.0, 0.4, 2.0, 9.3):
        assert np.max(np.abs(gammainc_lower(12.5, x) - scipy_gammainc(a, x))) < 2e-14


def test_gammainc_prefix_matches_scalar():
    a = np.arange(1, 61)
    for x in (0.2, 1.0, 3.7, 25.0):
        prefix = gammainc_lower_int_prefix(60, x)
        assert prefix.shape == (60,)
        assert np.max(np.abs(prefix - scipy_gammainc(a, x))) < 1e-13
    xs = np.array([[0.2, 1.0], [3.7, 25.0]])
    prefix = gammainc_lower_int_prefix(60, xs)
    assert prefix.shape == (2, 2, 60)
    assert np.max(np.abs(prefix - scipy_gammainc(a, xs[..., None]))) < 1e-13


def test_gammainc_prefix_is_a_probability():
    # 1 - cumsum rounds below zero where P is tiny: P(39..41, pi 1.5^2) are
    # 6.7e-17 .. 2.0e-18, once returned as -2.2e-16
    x = math.pi * 1.5**2
    got = gammainc_lower_int_prefix(41, x)[38:]
    assert np.all(got >= 0.0)
    assert np.max(np.abs(got - gammainc_lower(41, x)[[77, 79, 81]])) < 1e-16
    xs = np.array([0.0, 0.3, x, 25.0, 200.0])
    prefix = gammainc_lower_int_prefix(400, xs)
    assert np.all((prefix >= 0.0) & (prefix <= 1.0))


def test_gammainc_prefix_edge_cases():
    assert np.all(gammainc_lower_int_prefix(5, 0.0) == 0.0)
    with pytest.raises(ValueError):
        gammainc_lower_int_prefix(0, 1.0)
    with pytest.raises(ValueError):
        gammainc_lower_int_prefix(3, -0.1)
    with pytest.raises(ValueError, match="x must be >= 0"):
        gammainc_lower_int_prefix(3, np.array([0.0, 2.0, -1e-300]))
    with pytest.raises(ValueError, match="x must be >= 0"):
        gammainc_lower_int_prefix(3, np.array([1.0, math.nan]))


def test_poisson_tail():
    # Pr[Poisson(mu) >= n] = P(n, mu), the last entry of gammainc_lower(n, mu);
    # Pr[Poisson(mu) >= 1] = 1 - e^{-mu}
    assert abs(gammainc_lower(1, 2.0)[-1] - (1.0 - math.exp(-2.0))) < 1e-15
    # far tail is tiny
    assert gammainc_lower(80, 3.0)[-1] < 1e-60


# A 40-digit oracle for P(a, x) at every half-integer a: the Poisson weights
# w(b, x) = x^b e^{-x} / Gamma(b + 1) by the exact recurrences
# w(b + 1) = w(b) x / (b + 1) from w(0) = e^{-x} and w(1/2) = 2 sqrt(x/pi) e^{-x},
# and P(a, x) = sum_{b >= a} w(b, x), summed from far past a_max and x down.
# scipy.special.gammainc itself is off by up to 5.3e-13 relative on this grid.
_PI_40 = decimal.Decimal("3.141592653589793238462643383279502884197169")


def _decimal_gammainc(a_max: float, x: float) -> dict:
    with decimal.localcontext() as ctx:
        ctx.prec = 45
        dx = decimal.Decimal(x)
        top = int(max(a_max, x) + 40 * math.sqrt(max(a_max, x) + 1) + 100)
        out = {}
        for start, w in ((0.0, (-dx).exp()), (0.5, 2 * (dx / _PI_40).sqrt() * (-dx).exp())):
            weights = [w]
            for step in range(1, top):
                weights.append(weights[-1] * dx / decimal.Decimal(start + step))
            tail = decimal.Decimal(0)
            for step in range(top - 1, -1, -1):
                tail += weights[step]
                if start + step <= a_max:
                    out[start + step] = float(tail)
        return out


def test_gammainc_lower_against_40_digits_and_scipy():
    a = np.arange(0.5, 240.5, 0.5)
    radii = np.linspace(0.0, 16.0, 161)
    x = math.pi * radii**2
    got = gammainc_lower(240, x).T
    assert got.shape == (len(a), len(x))
    ref = np.array([[column[v] for v in a]
                    for column in map(lambda v: _decimal_gammainc(240.0, v), x)]).T
    assert np.max(np.abs(got - ref)) <= 4e-15
    # where P >= 1e-200 the weights are exp of exponents down to -460, whose
    # last-place roundings alone reach 3e-14 relative; 1.3e-13 is measured
    big = ref >= 1e-200
    assert np.max(np.abs(got - ref)[big] / ref[big]) <= 2e-13
    # scipy as the oracle, on a grid five times finer, from a = 1: at a = 1/2
    # scipy itself is 4.2e-15 off the 40-digit value (x = 1.057)
    x = math.pi * np.linspace(0.0, 16.0, 801) ** 2
    got = gammainc_lower(240, x)[:, 1:].T
    assert np.max(np.abs(got - scipy_gammainc(a[1:, None], x))) <= 4e-15


def test_gammainc_lower_shapes_and_edges():
    # column i holds a = (i + 1)/2: shape x.shape + (2 a_max,) for a scalar
    # or 1-d x, with x = 0 exactly, a = 1/2 and huge x
    a = np.arange(0.5, 3.75, 0.5)
    x = np.array([0.0, 0.3, 4.0, 1e300])
    grid = gammainc_lower(3.5, x)
    assert grid.shape == (4, 7)
    assert np.allclose(grid, scipy_gammainc(a, x[:, None]), rtol=0, atol=4e-15)
    assert np.all(grid[0] == 0.0) and np.all(1.0 - grid[-1] <= 2.5e-16)
    assert np.all(gammainc_lower(7, 1e300) == 1.0)
    assert gammainc_lower(3, x).shape == (4, 6)
    assert gammainc_lower(3.5, 4.0).shape == (7,)
    assert np.allclose(gammainc_lower(3.5, 4.0), scipy_gammainc(a, 4.0), rtol=0, atol=4e-15)
    assert math.isclose(gammainc_lower(1, 2.0)[0], math.erf(math.sqrt(2.0)), rel_tol=1e-15)


# a_max must be one half-integer >= 1
@pytest.mark.parametrize("a", [0.25, 1.3, 0.0, -1.0, math.nan, math.inf, [1.0, 2.75],
                               np.array([1.0, 2.75]), np.array([[1.0], [1.25]]),
                               np.array([0.0, 0.5]), np.array([math.nan, 1.0])])
def test_gammainc_lower_rejects_other_shapes(a):
    with pytest.raises(ValueError, match="half-integer"):
        gammainc_lower(a, 1.0)


def test_gammainc_lower_rejects_negative_x():
    for x in (-1e-300, math.nan, np.array([0.0, 2.0, -1e-300]), np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="x must be >= 0"):
            gammainc_lower(1.5, x)


def test_poisson_tail_against_40_digits():
    for n, mu in ((1, 0.3), (26, 4.3), (40, 15.7), (96, 2.4), (120, 130.0), (300, 80.0)):
        ref = _decimal_gammainc(n, mu)[float(n)]
        assert abs(gammainc_lower(n, mu)[-1] - ref) <= 1e-13 * ref


def _decimal_poisson_weight(j: int, x: float) -> decimal.Decimal:
    """x^b e^{-x} / Gamma(b + 1) at b = j/2 to 50 digits, by the recurrence
    w(b + 1) = w(b) x / (b + 1) from w(0) = e^{-x} or w(1/2) = 2 sqrt(x/pi)
    e^{-x}."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        dx = decimal.Decimal(x)
        b = decimal.Decimal(j % 2) / 2
        w = (-dx).exp() * (2 * (dx / _PI_40).sqrt() if j % 2 else 1)
        for _ in range(j // 2):
            b += 1
            w = w * dx / b
        return w


def test_poisson_weight_against_50_digits():
    # Loader's form: no term of size b ln b cancels, so the relative error
    # stays near 1e-13 out to b = 2,000 (the log-domain form it replaced was
    # 1.2e-12 relative and 8.7e-15 absolute off on this grid)
    worst_abs = worst_rel = 0.0
    for j in list(range(60)) + [101, 400, 401, 1000, 2001, 4000]:
        b = j / 2
        xs = [0.0, 1e-300, 0.3, 2.0, b + 3 * math.sqrt(b + 1), 2.5 * b + 5, 700.0]
        xs += [b - 3 * math.sqrt(b + 1)] if b > 3 * math.sqrt(b + 1) else []
        got = poisson_weight(np.array([j]), np.array(xs))
        for x, value in zip(xs, got):
            ref = _decimal_poisson_weight(j, x)
            err = float(abs(decimal.Decimal(float(value)) - ref))
            worst_abs = max(worst_abs, err)
            if ref >= decimal.Decimal("1e-200"):
                worst_rel = max(worst_rel, err / float(ref))
    assert worst_abs <= 2.5e-16
    assert worst_rel <= 2e-13


def test_poisson_weight_edges_and_log_weight():
    # b = 0 is w e^{-x}, x = 0 gives 0 for every b > 0, and log_w scales
    k = np.arange(6)[:, None]
    x = np.array([0.0, 0.5, 3.0])
    got = poisson_weight(k, x)
    assert got.shape == (6, 3)
    assert np.array_equal(got[0], np.exp(-x))
    assert got[0, 0] == 1.0 and np.all(got[1:, 0] == 0.0)
    scaled = poisson_weight(k, x, math.log(0.25))
    assert np.allclose(scaled, 0.25 * got, rtol=1e-15, atol=0)
    assert np.array_equal(poisson_weight(0, x, math.log(0.25)), np.exp(math.log(0.25) - x))


def test_log_poisson_weight_is_the_exponent():
    # poisson_weight is exp of it, bit for bit: ln w - x at b = 0 and -inf
    # at x = 0 for every b > 0
    k = np.arange(9)[:, None]
    x = np.array([0.0, 0.5, 3.0, 40.0])
    log_w = _log_poisson_weight(k, x, math.log(0.25))
    assert np.array_equal(np.exp(log_w), poisson_weight(k, x, math.log(0.25)))
    assert np.array_equal(log_w[0], math.log(0.25) - x) and np.all(log_w[1:, 0] == -np.inf)
