import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from focklab.quadrature import RadialRule, gauss_legendre, integrate_region
from focklab.regions import AnnularSector, Disc
from focklab.symbols import SampledSymbol
from focklab.toeplitz import assemble
from focklab.tridiagonal import _multisection
from plane_oracles import default_plane_rule, grid, integrate, integrate_plane, radii, weights

TWO_PI = 2.0 * math.pi


class TestRadialRule:
    def test_one_point(self):
        rule = RadialRule.gauss_laguerre(1)
        assert np.allclose(rule.nodes, [1.0], atol=1e-14)
        assert np.allclose(weights(rule), [1.0], atol=1e-14)

    def test_two_point_closed_form(self):
        # nodes 2 -+ sqrt(2), weights (2 +- sqrt(2))/4
        rule = RadialRule.gauss_laguerre(2)
        s = math.sqrt(2.0)
        assert np.allclose(rule.nodes, [2.0 - s, 2.0 + s], atol=1e-13)
        assert np.allclose(weights(rule), [(2.0 + s) / 4.0, (2.0 - s) / 4.0], atol=1e-13)

    def test_moments_exact(self):
        # int t^k e^{-t} dt = k! for k <= 2K-1
        rule = RadialRule.gauss_laguerre(8)
        for k in range(16):
            got = float(np.dot(weights(rule), rule.nodes**k))
            assert math.isclose(got, math.factorial(k), rel_tol=5e-13)

    @pytest.mark.parametrize("count", [80, 240, 252, 256])
    def test_weights_sum_to_one(self, count):
        # int e^{-t} dt = 1; at K = 252 float64 Christoffel sums come out 3.1e-14 short
        assert abs(float(np.sum(weights(RadialRule.gauss_laguerre(count)))) - 1.0) <= 1e-15

    def test_scaled_weights_consistent(self):
        # scaled weights are w_j e^{t_j}, computed without overflow; w_j
        # from scipy's Gauss-Laguerre rule
        rule = RadialRule.gauss_laguerre(20)
        direct = scipy.special.roots_laguerre(20)[1] * np.exp(rule.nodes)
        assert np.allclose(rule.scaled_weights, direct, rtol=1e-10)

    def test_nodes_positive_increasing(self):
        rule = RadialRule.gauss_laguerre(80)
        assert rule.nodes[0] > 0.0
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.scaled_weights > 0.0)

    def test_radii_map(self):
        rule = RadialRule.gauss_laguerre(5)
        assert np.allclose(radii(rule), np.sqrt(rule.nodes / math.pi), atol=0.0)

    def test_built_once_per_count(self):
        rule = RadialRule.gauss_laguerre(80)
        assert RadialRule.gauss_laguerre(80) is rule
        assert RadialRule.gauss_laguerre(81) is not rule
        for array in (rule.nodes, rule.scaled_weights):
            assert not array.flags.writeable

    def test_count_validation(self):
        with pytest.raises(ValueError):
            RadialRule.gauss_laguerre(0)
        with pytest.raises(ValueError):
            RadialRule.gauss_laguerre(100000)


def _scaled_laguerre(t, count):
    """q_k(t) = L_k(t) e^{-t/2} for k < count, by the Laguerre recurrence
    written out: the construction RadialRule.gauss_laguerre used before it
    took its rows from tridiagonal._polynomial_rows, kept as an oracle."""
    q = np.zeros((count, t.size), dtype=t.dtype)
    q[0] = np.exp(-0.5 * t)
    if count > 1:
        q[1] = (1.0 - t) * q[0]
    for k in range(1, count - 1):
        q[k + 1] = ((2.0 * k + 1.0 - t) * q[k] - k * q[k - 1]) / (k + 1.0)
    return q


def _polished_laguerre(nodes, count):
    """(nodes, weights, scaled weights) of the rule RadialRule.gauss_laguerre
    gives from these starting nodes, by the oracle's Newton step
    t q_K / (K (q_K - q_{K-1})) and Christoffel sums."""
    t = nodes.astype(np.longdouble)
    q = _scaled_laguerre(t, count + 1)
    denom = count * (q[count] - q[count - 1])
    safe = np.where(denom == 0.0, 1.0, denom)
    t = np.sort(t - np.where(denom == 0.0, 0.0, t * q[count] / safe))
    q = _scaled_laguerre(t, count)
    nodes = t.astype(np.float64)
    scaled = (1.0 / np.sum(q * q, axis=0)).astype(np.float64)
    scaled /= np.sum(scaled * np.exp(-nodes))
    return nodes, scaled * np.exp(-nodes), scaled


def _lapack_seeded_laguerre(count):
    """(nodes, weights, scaled weights) of the rule RadialRule.gauss_laguerre
    built when LAPACK (scipy.linalg.eigh_tridiagonal) gave the nodes that its
    Newton polish starts from; the polish and the weights are its own."""
    nodes, _ = scipy.linalg.eigh_tridiagonal(2.0 * np.arange(count) + 1.0, np.arange(1.0, count))
    return _polished_laguerre(nodes, count)


def test_rules_match_scaled_laguerre_oracle():
    # the rows (-1)^k L_k e^{-t/2} of the shared recurrence differ from the
    # oracle's L_k e^{-t/2} in sign alone, so every rule keeps its bits
    RadialRule.gauss_laguerre.cache_clear()
    for count in [*range(1, 81), 128, 200, 256]:
        rule = RadialRule.gauss_laguerre(count)
        diag, off = 2.0 * np.arange(count) + 1.0, np.arange(1.0, count)
        oracle = _polished_laguerre(_multisection(diag, off, count, np.arange(count)), count)
        for got, old in zip((rule.nodes, weights(rule), rule.scaled_weights), oracle):
            assert np.array_equal(got, old)


class TestLaguerreWithoutLapack:
    """The nodes come from Sturm multisection, not LAPACK; the polish that
    follows makes the rule what the LAPACK-seeded one was, to an ulp."""

    def test_counts_to_80(self):
        moved = []
        for count in range(1, 81):
            rule = RadialRule.gauss_laguerre(count)
            for got, old in zip((rule.nodes, weights(rule), rule.scaled_weights),
                                _lapack_seeded_laguerre(count)):
                assert np.all(np.abs(got - old) <= np.spacing(old))
                moved += [count] * int(np.count_nonzero(got != old))
            if count in (1, 2, 8, 24, 80):
                assert count not in moved
        # one weight (and its scaled weight) at K = 19 and the first node at K = 62
        assert moved == [19, 19, 62]

    @pytest.mark.parametrize("count", [160, 256])
    def test_large_counts(self, count):
        rule = RadialRule.gauss_laguerre(count)
        for got, old in zip((rule.nodes, weights(rule), rule.scaled_weights),
                            _lapack_seeded_laguerre(count)):
            assert np.all(np.abs(got - old) <= 1e-15 * old)


class TestAngularRule:
    """The uniform angles 2pi i / M of a sampled symbol's columns."""

    def test_uniform_nodes(self):
        # column i is read back at 2pi i / M, and midway at the half-step
        sym = SampledSymbol(np.arange(8.0)[None, :], 7.0)
        t = sym.radial.nodes[0]
        theta = TWO_PI * np.arange(8) / 8.0
        np.testing.assert_allclose(sym.value_at(t, theta), np.arange(8.0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(sym.value_at(t, theta + TWO_PI / 16.0),
                                   [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 3.5], rtol=0, atol=1e-14)

    def test_kills_low_harmonics(self):
        # sum_i e^{ik theta_i} = 0 for 0 < |k| < M: a constant table on
        # M = 16 angles compresses to the identity at N = 8, every
        # off-diagonal entry one such sum (|k| <= 7)
        sym = SampledSymbol(np.ones((8, 16)), 1.0)
        assert np.max(np.abs(assemble(sym, 8).data - np.eye(8))) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError, match="one column"):
            SampledSymbol(np.zeros((5, 0)), 1.0)


class TestPlaneIntegration:
    def test_gaussian_mass(self):
        # int e^{-pi |z|^2} dA = 1, realized as integrate of the constant 1
        rule = default_plane_rule()
        nodes = grid(rule)
        assert math.isclose(integrate(rule, np.ones(nodes.shape)), 1.0, rel_tol=1e-13)

    def test_default_rule_built_once(self):
        assert default_plane_rule() is default_plane_rule()

    def test_second_moment(self):
        # int |z|^2 e^{-pi |z|^2} dA = 1/pi
        val = integrate_plane(lambda z: np.abs(z) ** 2)
        assert math.isclose(val, 1.0 / math.pi, rel_tol=1e-12)

    def test_angular_harmonic_vanishes(self):
        val = integrate_plane(lambda z: (z / np.where(np.abs(z) > 0, np.abs(z), 1.0)) ** 3)
        assert abs(val) < 1e-12


class TestGaussLegendre:
    def test_cubic_exact(self):
        x, w = gauss_legendre(2, 0.0, 1.0)
        assert math.isclose(float(np.dot(w, x**3)), 0.25, rel_tol=1e-14)

    def test_interval_mapping(self):
        x, w = gauss_legendre(12, 2.0, 5.0)
        assert np.all((x > 2.0) & (x < 5.0))
        assert math.isclose(float(np.sum(w)), 3.0, rel_tol=1e-14)

    def test_cached_rule_is_not_shared(self):
        x1, w1 = gauss_legendre(9, 0.0, 1.0)
        x1[:] = 0.0
        w1[:] = 0.0
        x2, w2 = gauss_legendre(9, 0.0, 1.0)
        assert math.isclose(float(np.sum(w2)), 1.0, rel_tol=1e-14)
        assert np.all(np.diff(x2) > 0.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            gauss_legendre(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(2000, 0.0, 1.0)


class TestRegionIntegration:
    def test_origin_disc_weighted_mass(self):
        # int_{|z|<R} e^{-pi|z|^2} dA = 1 - e^{-pi R^2}
        for x in (0.5, 1.0, 2.0):
            disc = Disc(0.0, math.sqrt(x / math.pi))
            val = integrate_region(lambda z: np.ones(z.shape), disc)
            assert math.isclose(val, -math.expm1(-x), rel_tol=1e-12)

    def test_disc_area_unweighted(self):
        disc = Disc(1.0 + 2.0j, 0.7)
        val = integrate_region(lambda z: np.ones(z.shape), disc, include_weight=False)
        assert math.isclose(val, math.pi * 0.49, rel_tol=1e-12)

    def test_sector_weighted_mass(self):
        # span/(2pi) * (e^{-x1} - e^{-x2})
        sector = AnnularSector(0.3, 1.1, 0.4, 2.9)
        x1 = math.pi * 0.09
        x2 = math.pi * 1.21
        expect = (2.5 / TWO_PI) * (math.exp(-x1) - math.exp(-x2))
        val = integrate_region(lambda z: np.ones(z.shape), sector)
        assert math.isclose(val, expect, rel_tol=1e-12)

    def test_sector_area_unweighted(self):
        sector = AnnularSector(0.5, 1.5, 0.0, math.pi)
        val = integrate_region(lambda z: np.ones(z.shape), sector, include_weight=False)
        assert math.isclose(val, sector.area, rel_tol=1e-12)

    def test_off_center_disc_against_dblquad(self):
        from scipy.integrate import dblquad

        disc = Disc(0.8 + 0.3j, 0.6)

        def integrand(rho, theta):
            z = disc.center + rho * np.exp(1j * theta)
            return rho * math.exp(-math.pi * abs(z) ** 2)

        oracle, err = dblquad(integrand, 0.0, TWO_PI, 0.0, disc.radius,
                              epsabs=1e-13, epsrel=1e-13)
        val = integrate_region(lambda z: np.ones(z.shape), disc)
        assert abs(val - oracle) < 1e-11

    def test_nonradial_integrand_on_sector(self):
        # int_sector Re(z) dA in polar coordinates has a closed form
        sector = AnnularSector(0.0, 2.0, 0.0, math.pi / 2.0)
        val = integrate_region(lambda z: z.real, sector, include_weight=False)
        expect = (2.0**3 / 3.0) * (math.sin(math.pi / 2.0) - math.sin(0.0))
        assert math.isclose(val, expect, rel_tol=1e-12)

    def test_complex_integrand_returns_complex(self):
        sector = AnnularSector(0.1, 1.0, 0.2, 1.2)
        val = integrate_region(lambda z: z, sector, include_weight=False)
        assert isinstance(val, complex)
