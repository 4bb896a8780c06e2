import math

import numpy as np
import pytest
from scipy.special import gammainc as scipy_gammainc

from focklab.special import (
    gammainc_lower,
    gammainc_lower_int_prefix,
    log_factorial,
    poisson_tail,
)


def test_log_factorial_values():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert math.isclose(log_factorial(5), math.log(120.0), rel_tol=1e-14)
    arr = log_factorial(np.array([0, 3, 10]))
    assert np.allclose(arr, [0.0, math.log(6.0), math.log(3628800.0)], rtol=1e-14)


def test_log_factorial_has_no_cap():
    assert log_factorial(5000) == math.lgamma(5001)
    arr = log_factorial(np.array([4096, 4097, 100000]))
    assert np.allclose(arr, [math.lgamma(n + 1) for n in (4096, 4097, 100000)], rtol=1e-15)


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
    for a in (1.0, 1.5, 2.0, 3.5, 7.0, 12.5):
        for x in (0.0, 0.4, 2.0, 9.3):
            assert abs(gammainc_lower(a, x) - float(scipy_gammainc(a, x))) < 2e-14


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
    assert poisson_tail(0, 5.0) == 1.0
    assert poisson_tail(-2, 5.0) == 1.0
    # Pr[Poisson(mu) >= 1] = 1 - e^{-mu}
    assert abs(poisson_tail(1, 2.0) - (1.0 - math.exp(-2.0))) < 1e-15
    # far tail is tiny
    assert poisson_tail(80, 3.0) < 1e-60
