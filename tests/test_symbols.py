"""Symbol containers and polar-grid discretization."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from focklab import (
    AngularRule,
    AnnularSector,
    Disc,
    ProductRule,
    RadialRule,
    RadialSymbol,
    SampledSymbol,
    SimpleSymbol,
    discretize,
    radial_assemble,
)

TWO_PI = 2.0 * math.pi


class TestSimpleSymbol:
    def test_l1_linf(self):
        sym = SimpleSymbol(
            (
                (Disc(0.0, 1.0), 2.0),
                (AnnularSector(1.5, 2.0, 0.0, math.pi), -0.5),
            )
        )
        expect_l1 = 2.0 * math.pi + 0.5 * (math.pi / 2.0) * (2.0**2 - 1.5**2)
        assert math.isclose(sym.l1_norm(), expect_l1, rel_tol=1e-14)
        assert sym.linf_norm() == 2.0

    def test_empty_symbol(self):
        sym = SimpleSymbol(())
        assert sym.l1_norm() == 0.0
        assert sym.linf_norm() == 0.0

    def test_scaled(self):
        sym = SimpleSymbol(((Disc(0.0, 1.0), 1.5),))
        doubled = sym.scaled(2.0)
        assert doubled.pieces[0][1] == 3.0
        assert math.isclose(doubled.l1_norm(), 2.0 * sym.l1_norm(), rel_tol=1e-15)

    def test_overlapping_pieces_raise(self):
        with pytest.raises(ValueError, match="disjoint"):
            SimpleSymbol(((Disc(0.0, 1.0), 1.0), (Disc(0.5, 1.0), 1.0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleSymbol(((Disc(0.0, 1.0), math.inf),))
        with pytest.raises(TypeError):
            SimpleSymbol((("not a region", 1.0),))

    def test_json_round_trip(self):
        sym = SimpleSymbol(
            (
                (Disc(0.3 + 0.2j, 0.4), 1.25),
                (AnnularSector(1.0, 2.0, 0.5, 1.5), -0.75),
            )
        )
        assert [list(piece) for piece in sym.to_json_dict()["pieces"]] == [
            ["disc", "coeff"], ["sector", "coeff"]]
        back = SimpleSymbol.from_json(sym.to_json())
        assert len(back.pieces) == 2
        disc, c0 = back.pieces[0]
        assert disc.center == 0.3 + 0.2j and disc.radius == 0.4 and c0 == 1.25
        sector, c1 = back.pieces[1]
        assert (sector.r_inner, sector.r_outer) == (1.0, 2.0)
        assert (sector.theta_start, sector.theta_end) == (0.5, 1.5)
        assert c1 == -0.75

    def test_bad_json_piece(self):
        with pytest.raises(ValueError):
            SimpleSymbol.from_json_dict({"pieces": [{"coeff": 1.0}]})


class TestRadialSymbol:
    def test_disc_profile(self):
        sym = RadialSymbol.disc(1.5, height=-2.0)
        assert math.isclose(sym.l1_norm(), 2.0 * math.pi * 1.5**2, rel_tol=1e-13)
        assert sym.linf_norm() == 2.0
        vals = sym.profile(np.array([0.0, 1.49, 1.51]))
        assert vals[0] == -2.0 and vals[1] == -2.0 and vals[2] == 0.0
        assert sym.tail_l1_beyond(1.5) == 0.0

    def test_disc_is_centred_annulus(self):
        for radius, height in ((1.5, -2.0), (0.8, 1.0), (math.sqrt(1.0 / math.pi), 0.25)):
            disc = RadialSymbol.disc(radius, height)
            ring = RadialSymbol.annulus(0.0, radius, height)
            r = np.linspace(0.0, 2.0 * radius, 101)
            assert np.array_equal(disc.profile(r), ring.profile(r))
            assert np.array_equal(radial_assemble(disc, 30).data,
                                  radial_assemble(ring, 30).data)
            assert disc.to_json_dict() == {
                "radial": {"profile": "disc", "radius": radius, "height": height}}
        with pytest.raises(ValueError, match="disc radius must be positive"):
            RadialSymbol.disc(0.0)

    def test_annulus_profile(self):
        sym = RadialSymbol.annulus(0.5, 1.25, height=3.0)
        expect = 3.0 * math.pi * (1.25**2 - 0.5**2)
        assert math.isclose(sym.l1_norm(), expect, rel_tol=1e-13)
        assert sym.breakpoints == (0.5,)
        vals = sym.profile(np.array([0.3, 0.8, 1.3]))
        assert vals[0] == 0.0 and vals[1] == 3.0 and vals[2] == 0.0

    def test_gaussian_profile(self):
        sym = RadialSymbol.gaussian()
        # int e^{-r^2} dA = pi, split as quadrature-inside plus analytic tail
        assert abs(sym.l1_norm() - math.pi) < 1e-12
        assert sym.linf_norm() == 1.0
        r = sym.support_radius
        assert math.isclose(
            sym.tail_l1_beyond(r), math.pi * math.exp(-(r**2)), rel_tol=1e-15
        )

    def test_table_l1_against_quad(self):
        radii = [0.0, 0.5, 1.0, 1.5]
        values = [1.0, -0.3, 0.4, 0.0]
        sym = RadialSymbol.table(radii, values)
        pts = sorted(set(radii[1:-1]) | set(sym.breakpoints))
        ref = quad(
            lambda r: abs(np.interp(r, radii, values)) * TWO_PI * r,
            0.0, 1.5, points=pts, limit=200, epsabs=1e-13, epsrel=1e-13,
        )[0]
        assert abs(sym.l1_norm() - ref) < 1e-12

    def test_table_breakpoints_include_sign_changes(self):
        sym = RadialSymbol.table([0.0, 0.5, 1.0], [1.0, -0.3, 0.4])
        # crossings of the interpolant: 1 -> -0.3 on [0, 0.5], -0.3 -> 0.4 on [0.5, 1]
        cross1 = 0.5 * (1.0 / 1.3)
        cross2 = 0.5 + 0.5 * (0.3 / 0.7)
        for c in (cross1, cross2, 0.5):
            assert any(abs(b - c) < 1e-14 for b in sym.breakpoints)
        vals = sym.profile(np.asarray(sym.breakpoints))
        assert abs(vals[0]) < 1e-15 or abs(vals[1]) < 1e-15

    def test_table_validation(self):
        with pytest.raises(ValueError):
            RadialSymbol.table([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            RadialSymbol.table([1.0, 0.5], [1.0, 2.0])
        with pytest.raises(ValueError):
            RadialSymbol.table([-0.5, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            RadialSymbol.table([0.0, 1.0], [1.0, math.nan])

    def test_declared_bound_spot_check(self):
        with pytest.raises(ValueError, match="sup bound"):
            RadialSymbol(
                kind="table",
                linf=0.1,
                support_radius=1.0,
                breakpoints=(),
                params={},
                profile_fn=lambda r: np.ones_like(r),
            )

    def test_profile_t_matches_profile(self):
        sym = RadialSymbol.gaussian()
        r = np.array([0.2, 1.0, 2.5])
        np.testing.assert_allclose(
            sym.profile_t(math.pi * r**2), sym.profile(r), rtol=1e-14
        )

    def test_json_round_trip(self):
        for sym in (
            RadialSymbol.disc(0.8, height=2.0),
            RadialSymbol.annulus(0.3, 1.1, height=-1.0),
            RadialSymbol.gaussian(),
            RadialSymbol.table([0.0, 0.4, 1.2], [0.5, -0.5, 0.0]),
        ):
            back = RadialSymbol.from_json_dict(sym.to_json_dict())
            assert back.kind == sym.kind
            assert back.support_radius == sym.support_radius
            assert math.isclose(back.l1_norm(), sym.l1_norm(), rel_tol=1e-14)
            r = np.linspace(0.0, sym.support_radius, 37)
            np.testing.assert_allclose(back.profile(r), sym.profile(r), atol=1e-15)

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown radial profile"):
            RadialSymbol.from_json_dict({"radial": {"profile": "mystery"}})


def _smooth_sampled(radial_count=40, angular_count=64):
    rule = ProductRule(
        RadialRule.gauss_laguerre(radial_count), AngularRule(angular_count)
    )
    z = rule.grid()
    values = np.exp(-np.abs(z) ** 2) * (1.0 + 0.3 * np.cos(np.angle(z)))
    return SampledSymbol(rule, values, float(np.max(np.abs(values))))


class TestSampledSymbol:
    def test_shape_validation(self):
        rule = ProductRule(RadialRule.gauss_laguerre(5), AngularRule(8))
        with pytest.raises(ValueError, match="shape"):
            SampledSymbol(rule, np.zeros((5, 7)), 1.0)

    def test_bound_validation(self):
        rule = ProductRule(RadialRule.gauss_laguerre(5), AngularRule(8))
        with pytest.raises(ValueError, match="sup bound"):
            SampledSymbol(rule, np.full((5, 8), 2.0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            SampledSymbol(rule, np.full((5, 8), math.inf), 1.0)

    def test_l1_oracle(self):
        # phi = e^{-t} on its own grid: l1 = sum of the bare Laguerre weights = 1
        rule = ProductRule(RadialRule.gauss_laguerre(30), AngularRule(16))
        values = np.tile(np.exp(-rule.radial.nodes)[:, None], (1, 16))
        sym = SampledSymbol(rule, values, 1.0)
        assert abs(sym.l1_norm() - 1.0) < 1e-13

    def test_value_at_nodes(self):
        sym = _smooth_sampled(12, 16)
        t = sym.rule.radial.nodes
        theta = sym.rule.angular.nodes
        got = sym.value_at(t[:, None], theta[None, :])
        np.testing.assert_allclose(got, sym.values, rtol=0, atol=1e-12)

    def test_value_at_properties(self):
        sym = _smooth_sampled(12, 16)
        # flat left of the first node
        assert sym.value_at(0.0, 0.3) == sym.value_at(sym.rule.radial.nodes[0], 0.3)
        # periodic in theta
        assert math.isclose(
            float(sym.value_at(1.0, 0.7)),
            float(sym.value_at(1.0, 0.7 + TWO_PI)),
            rel_tol=1e-12,
        )
        # zero beyond the last node
        assert sym.value_at(sym.rule.radial.nodes[-1] * 1.01, 0.0) == 0.0

    def test_interpolation_between_nodes(self):
        sym = _smooth_sampled(12, 16)
        nodes = sym.rule.radial.nodes
        tm = 0.5 * (nodes[3] + nodes[4])
        lo = float(sym.value_at(nodes[3], 0.0))
        hi = float(sym.value_at(nodes[4], 0.0))
        mid = float(sym.value_at(tm, 0.0))
        assert math.isclose(mid, 0.5 * (lo + hi), rel_tol=1e-12)


def _radial_estimate_reference(sym, radial_cells):
    """Per-cell scipy.integrate reference for int |phi - phi_d| dA."""
    edges_t = np.linspace(0.0, math.pi * sym.support_radius**2, radial_cells + 1)
    radii = np.sqrt(edges_t / math.pi)
    cvals = sym.profile_t(0.5 * (edges_t[:-1] + edges_t[1:]))
    total = 0.0
    for j in range(radial_cells):
        pts = sorted(
            set(float(b) for b in sym.breakpoints if radii[j] < b < radii[j + 1])
        )
        total += quad(
            lambda r: abs(float(sym.profile(np.array([r]))[0]) - cvals[j]) * TWO_PI * r,
            radii[j], radii[j + 1],
            points=pts or None, limit=300, epsabs=1e-13, epsrel=1e-13,
        )[0]
    return total + sym.tail_l1_beyond(sym.support_radius)


class TestDiscretize:
    def test_aligned_disc_is_exact(self):
        sym = RadialSymbol.disc(1.2, height=0.75)
        approx, err = discretize(sym, 6)
        assert err <= 1e-14
        assert all(c == 0.75 for _, c in approx.pieces)
        assert math.isclose(approx.l1_norm(), sym.l1_norm(), rel_tol=1e-13)

    def test_piece_layout(self):
        sym = RadialSymbol.disc(1.0)
        approx, _ = discretize(sym, 4, 3)
        assert len(approx.pieces) == 12
        # radial coefficient repeats across the angular index
        coeffs = [c for _, c in approx.pieces]
        for j in range(4):
            assert len(set(coeffs[3 * j: 3 * j + 3])) == 1
        # cells cover the support disc: areas add up
        total_area = sum(
            (math.pi / 2.0) * (s.r_outer**2 - s.r_inner**2) * 0.0
            + 0.5 * (s.theta_end - s.theta_start) * (s.r_outer**2 - s.r_inner**2)
            for s, _ in approx.pieces
        )
        assert math.isclose(total_area, math.pi, rel_tol=1e-12)

    def test_cells_hold_python_floats(self):
        radial, _ = discretize(RadialSymbol.gaussian(), 16, 3)
        sampled, _ = discretize(_smooth_sampled(), 4, 5)
        for approx in (radial, sampled):
            for cell, coeff in approx.pieces:
                fields = (cell.r_inner, cell.r_outer, cell.theta_start, cell.theta_end, coeff)
                assert all(type(v) is float for v in fields)

    def test_gaussian_errors_shrink(self):
        sym = RadialSymbol.gaussian()
        errs = [discretize(sym, m)[1] for m in (8, 16, 32)]
        assert errs[0] > errs[1] > errs[2] > 0.0

    def test_gaussian_estimate_matches_reference(self):
        sym = RadialSymbol.gaussian()
        _, est = discretize(sym, 12)
        ref = _radial_estimate_reference(sym, 12)
        assert est >= ref - 1e-10
        assert abs(est - ref) < 1e-9

    def test_table_estimate_matches_reference(self):
        sym = RadialSymbol.table([0.0, 0.5, 1.0, 1.5], [1.0, -0.3, 0.4, 0.0])
        _, est = discretize(sym, 7)
        ref = _radial_estimate_reference(sym, 7)
        assert est >= ref - 1e-10
        assert abs(est - ref) < 1e-9

    def test_unaligned_annulus_jump(self):
        # the inner edge lands strictly inside the first cell
        sym = RadialSymbol.annulus(0.35, 1.0, height=2.0)
        _, est = discretize(sym, 4)
        ref = _radial_estimate_reference(sym, 4)
        assert est > 0.0
        assert abs(est - ref) < 1e-10

    def test_sampled_estimate_conservative(self):
        sym = _smooth_sampled()
        approx, est = discretize(sym, 6, 4)
        assert len(approx.pieces) == 24
        # dense midpoint reference on the same cells
        t_max = float(sym.rule.radial.nodes[-1])
        t_edges = np.linspace(0.0, t_max, 7)
        a_edges = np.linspace(0.0, TWO_PI, 5)
        cvals = sym.value_at(
            (0.5 * (t_edges[:-1] + t_edges[1:]))[:, None],
            (0.5 * (a_edges[:-1] + a_edges[1:]))[None, :],
        )
        sub_t, sub_a = 96, 48
        dt, da = t_edges[1] - t_edges[0], a_edges[1] - a_edges[0]
        tt = t_edges[:-1][:, None] + (np.arange(sub_t) + 0.5)[None, :] / sub_t * dt
        aa = a_edges[:-1][:, None] + (np.arange(sub_a) + 0.5)[None, :] / sub_a * da
        vals = sym.value_at(tt[:, None, :, None], aa[None, :, None, :])
        ref = float(
            np.sum(np.abs(vals - cvals[:, :, None, None]).mean(axis=(2, 3)))
            * dt * da / TWO_PI
        )
        assert est >= ref - 1e-10
        assert est <= 1.35 * ref + 1e-9

    def test_gaussian_tail_guard(self):
        # a support of 2 leaves the tail pi e^{-4} = 0.0575 beyond it
        cut = dataclasses.replace(RadialSymbol.gaussian(), support_radius=2.0)
        with pytest.raises(ValueError, match="tail mass 5.754e-02 .* exceeds the limit 1e-06"):
            discretize(cut, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            discretize(RadialSymbol.disc(1.0), 0)
        with pytest.raises(TypeError):
            discretize(SimpleSymbol(((Disc(0.0, 1.0), 1.0),)), 4)
