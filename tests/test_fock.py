import cmath
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.fock import FockFunction, coherent, random_unit, weighted_basis_matrix
from plane_oracles import (
    basis_eval,
    default_plane_rule,
    eval_weighted,
    evaluate,
    grid,
    inner,
    integrate,
    integrate_plane,
    kernel,
)


class TestBasis:
    def test_high_order(self):
        # ln n! has no cap on n
        assert basis_eval(5000, 0.1) == 0.0
        f = coherent(0.5 + 0.2j, 5000)
        assert math.isclose(f.norm(), 1.0, rel_tol=1e-13)
        # |w_n| peaks at pi |z|^2 = n with the value sqrt(n^n e^{-n} / n!)
        n = 5000
        peak = math.exp(0.5 * (n * math.log(n) - n - math.lgamma(n + 1)))
        got = abs(weighted_basis_matrix(n + 1, math.sqrt(n / math.pi))[n, 0])
        assert math.isclose(got, peak, rel_tol=1e-9)

    def test_high_order_modulus_in_log_domain(self):
        # pi^n / n! underflows and z^n overflows here; the value is e^{-1.98}
        n = 5000
        expect = math.exp(0.5 * (n * math.log(math.pi) - math.lgamma(n + 1))
                          + n * math.log(24.2))
        assert math.isclose(abs(basis_eval(n, 24.2)), expect, rel_tol=1e-9)
        # a value below the smallest double underflows to 0, not nan
        assert basis_eval(1000, 5.0) == 0.0

    def test_low_order_values(self):
        assert basis_eval(0, 0.7 + 0.2j) == 1.0 + 0.0j
        # e_1(z) = sqrt(pi) z
        z = 0.4 - 1.1j
        assert cmath.isclose(basis_eval(1, z), math.sqrt(math.pi) * z, rel_tol=1e-14)
        assert basis_eval(3, 0.0) == 0.0

    def test_orthonormality_via_quadrature(self):
        rule = default_plane_rule()
        nodes = grid(rule)
        w = weighted_basis_matrix(12, nodes)
        gram = np.empty((12, 12), dtype=complex)
        for m in range(12):
            for n in range(12):
                gram[m, n] = integrate(rule, np.conj(w[m]) * w[n] * np.exp(
                    math.pi * np.abs(nodes) ** 2))
        assert np.max(np.abs(gram - np.eye(12))) < 1e-13

    def test_weighted_eval_bounded(self):
        # |e_n(z)| e^{-pi |z|^2 / 2} <= 1 everywhere
        for n in (0, 1, 5, 40):
            for z in (0.0, 0.3 + 0.1j, 2.0 - 1.5j, 4.0j):
                assert abs(weighted_basis_matrix(n + 1, z)[n, 0]) <= 1.0 + 1e-12

    def test_weighted_matrix_at_origin(self):
        w = weighted_basis_matrix(5, np.array([0.0 + 0.0j]))
        assert np.allclose(w[:, 0], [1, 0, 0, 0, 0], atol=0.0)


class TestKernel:
    def test_partial_sums_converge_to_kernel(self):
        z, w0 = 0.8 + 0.2j, -0.3 + 0.9j
        total = sum(basis_eval(n, z) * np.conj(basis_eval(n, w0)) for n in range(80))
        assert cmath.isclose(total, kernel(z, w0), rel_tol=1e-12)

    def test_reproducing_property(self):
        # f(w) = int f(z) conj(K(z, w)) dlambda(z)
        f = FockFunction(np.array([0.5, -0.25j, 0.1, 0.05]))
        w0 = 0.4 - 0.6j

        def integrand(z):
            return evaluate(f, z) * np.conj(kernel(z, w0))

        val = integrate_plane(integrand)
        assert abs(val - evaluate(f, w0)) < 1e-12


class TestCoherent:
    def test_at_origin_is_ground_state(self):
        f = coherent(0.0, 8)
        expect = np.zeros(8, dtype=complex)
        expect[0] = 1.0
        assert np.array_equal(f.coeffs, expect)

    def test_coefficients_are_poisson(self):
        w0 = 0.6 + 0.8j
        mu = math.pi * abs(w0) ** 2
        f = coherent(w0, 48)
        probs = np.abs(f.coeffs) ** 2
        for n in (0, 1, 7, 20):
            expect = math.exp(-mu) * mu**n / math.factorial(n)
            assert math.isclose(probs[n], expect, rel_tol=1e-12)

    def test_coefficients_against_50_digits(self):
        # |a_n|^2 is the Poisson weight of special.poisson_weight (Loader's
        # form); the log-domain formula it replaced was 3.7e-15 off here
        w0 = 6.0 - 4.0j
        mu = math.pi * abs(w0) ** 2
        probs = np.abs(coherent(w0, 900).coeffs) ** 2
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            pmf = [(-decimal.Decimal(mu)).exp()]
            for n in range(1, 900):
                pmf.append(pmf[-1] * decimal.Decimal(mu) / n)
        assert max(abs(float(decimal.Decimal(p) - q)) for p, q in zip(probs, pmf)) <= 2e-16

    def test_norm_close_to_one(self):
        f = coherent(1.1 - 0.4j, 64)
        assert abs(f.norm() - 1.0) < 1e-13

    def test_peak_value(self):
        # the state concentrated at w0 = 1 evaluates to e^{pi/2} there
        f = coherent(1.0, 64)
        assert abs(evaluate(f, 1.0) - math.exp(math.pi / 2.0)) < 1e-10

    def test_truncation_warning(self):
        with pytest.warns(UserWarning):
            coherent(3.0, 20)


class TestFockFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            FockFunction(np.array([]))
        with pytest.raises(ValueError):
            FockFunction(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            FockFunction(np.ones((2, 2)))

    def test_norm_and_normalized(self):
        f = FockFunction(np.array([3.0, 4.0j]))
        assert math.isclose(f.norm(), 5.0, rel_tol=1e-15)
        g = f.normalized()
        assert math.isclose(g.norm(), 1.0, rel_tol=1e-15)
        with pytest.raises(ValueError):
            FockFunction(np.array([0.0])).normalized()

    def test_resized(self):
        f = FockFunction(np.array([1.0, 2.0]))
        assert f.resized(4).coeffs.tolist() == [1.0, 2.0, 0.0, 0.0]
        assert f.resized(1).coeffs.tolist() == [1.0]

    def test_inner_against_quadrature(self):
        f = FockFunction(np.array([0.3, -0.2j, 0.7]))
        g = FockFunction(np.array([1.0, 0.5, 0.1j, 0.0]))
        val = integrate_plane(lambda z: evaluate(f, z) * np.conj(evaluate(g, z)))
        assert abs(inner(f, g) - val) < 1e-12

    def test_eval_weighted_matches_eval(self):
        f = FockFunction(np.array([0.2, 0.4, -0.1]))
        z = np.array([0.3 + 0.1j, -1.2j])
        lhs = eval_weighted(f, z)
        rhs = evaluate(f, z) * np.exp(-math.pi * np.abs(z) ** 2 / 2.0)
        assert np.allclose(lhs, rhs, rtol=1e-13)


class TestPointwiseBound:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=12))
    def test_unit_functions_bounded(self, raw):
        coeffs = np.array(raw, dtype=complex)
        if np.linalg.norm(coeffs) < 1e-6:
            coeffs[0] += 1.0
        f = FockFunction(coeffs).normalized()
        zs = np.array([0.0, 0.5 + 0.5j, -1.0 + 2.0j, 3.0, -2.5j])
        assert np.max(np.abs(eval_weighted(f, zs)) ** 2) <= 1.0 + 1e-12


class TestRandomUnit:
    def test_unit_norm_and_shape(self):
        rng = np.random.default_rng(11)
        f = random_unit(rng, degree=20, truncation=48)
        assert f.truncation == 48
        assert abs(f.norm() - 1.0) < 1e-14
        assert np.all(f.coeffs[21:] == 0.0)

    def test_reproducible(self):
        a = random_unit(np.random.default_rng(3), degree=10)
        b = random_unit(np.random.default_rng(3), degree=10)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            random_unit(np.random.default_rng(0), degree=10, truncation=5)
