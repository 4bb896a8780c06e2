"""Inequality reports and the verification experiments."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import experiments, toeplitz
from focklab import (
    AngularRule,
    AnnularSector,
    Disc,
    FockFunction,
    ProductRule,
    RadialRule,
    RadialSymbol,
    SampledSymbol,
    SimpleSymbol,
    WeightedPartition,
    approximation_experiment,
    area,
    assemble,
    coherent,
    integrate_region,
    make_report,
    random_partition,
    random_region,
    random_symbol,
    random_unit,
    rayleigh,
    sharpness_experiment,
    symbol_norm_bound,
    verify_concentration,
    verify_norm_bound,
    verify_weighted_partition,
)

ONE_MINUS_EXP_NEG_PI = 0.9567860817362276
PI_OVER_PI_PLUS_ONE = math.pi / (math.pi + 1.0)


class TestMakeReport:
    def test_margin_and_holds(self):
        rep = make_report("demo", 1.0, 3.0, 1e-10)
        assert rep.margin == 2.0
        assert rep.holds

    def test_boundary_holds_at_negative_slack(self):
        rep = make_report("demo", 1.0, 0.9, 0.1)
        assert math.isclose(rep.margin, -0.1)
        assert rep.holds

    def test_fails_below_slack(self):
        rep = make_report("demo", 1.0, 0.9, 0.01)
        assert not rep.holds

    def test_json_dict_keys(self):
        rep = make_report("demo", 0.0, 1.0, 1e-10, metadata={"k": 1})
        d = rep.to_json_dict()
        assert set(d) == {"experiment", "lhs", "rhs", "margin", "holds",
                          "slack", "metadata"}
        assert d["metadata"] == {"k": 1}


class TestSymbolNormBound:
    def test_disc_area_pi(self):
        assert math.isclose(
            symbol_norm_bound(math.pi, 1.0), ONE_MINUS_EXP_NEG_PI, rel_tol=1e-15
        )

    def test_scaling(self):
        assert math.isclose(
            symbol_norm_bound(2.0, 2.0), 2.0 * (1.0 - math.exp(-1.0)), rel_tol=1e-15
        )

    def test_small_ratio_keeps_precision(self):
        assert math.isclose(symbol_norm_bound(1e-12, 1.0), 1e-12, rel_tol=1e-10)

    def test_zero_linf(self):
        assert symbol_norm_bound(0.0, 0.0) == 0.0
        assert symbol_norm_bound(5.0, 0.0) == 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            symbol_norm_bound(-1.0, 1.0)
        with pytest.raises(ValueError):
            symbol_norm_bound(1.0, -1.0)

    @settings(derandomize=True, max_examples=60)
    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    def test_bound_below_both_norms(self, l1, linf):
        b = symbol_norm_bound(l1, linf)
        assert 0.0 <= b <= min(l1, linf) * (1.0 + 1e-12) + 1e-300


class TestVerifyConcentration:
    def test_basis_state_on_unit_disc(self):
        f = FockFunction([0.0, 1.0])
        rep = verify_concentration(f, Disc(0.0, 1.0))
        # int_{|z|<1} |e_1|^2 dlambda = 1 - (1 + pi) e^{-pi}
        expect_lhs = 1.0 - (1.0 + math.pi) * math.exp(-math.pi)
        assert abs(rep.lhs - expect_lhs) < 1e-12
        assert math.isclose(rep.rhs, ONE_MINUS_EXP_NEG_PI, rel_tol=1e-15)
        assert math.isclose(rep.margin, math.pi * math.exp(-math.pi), rel_tol=1e-9)
        assert rep.holds
        assert rep.metadata["region"]["disc"]["radius"] == 1.0

    def test_coherent_state_saturates(self):
        center = 0.7 + 0.3j
        f = coherent(center, 48)
        rep = verify_concentration(f, Disc(center, 0.6))
        assert rep.holds
        assert -1e-10 < rep.margin < 1e-8

    def test_sector_region(self):
        f = random_unit(np.random.default_rng(1), 10)
        rep = verify_concentration(f, AnnularSector(0.2, 1.1, 0.4, 2.6))
        assert rep.holds
        assert rep.margin > 0.0

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            verify_concentration(FockFunction([2.0]), Disc(0.0, 1.0))

    def test_against_region_quadrature(self):
        # The closed-form compression against integrate_region at twice the
        # orders the quadrature path used, on random discs and sectors.
        rng = np.random.default_rng(41)
        for n in (32, 96):
            for _ in range(10):
                region = random_region(rng)
                f = random_unit(rng, int(rng.integers(0, 26)), truncation=n)
                quad = integrate_region(
                    lambda z: np.abs(f.eval_weighted(z)) ** 2, region,
                    radial_order=2 * max(64, n + 8),
                    angular_order=2 * max(128, 2 * n + 16),
                    include_weight=False,
                )
                assert abs(verify_concentration(f, region).lhs - quad) < 1e-12


class TestVerifyWeightedPartition:
    def test_unit_weights_match_union(self):
        f = random_unit(np.random.default_rng(2), 12)
        halves = WeightedPartition(
            (
                (AnnularSector(0.5, 1.2, 0.0, math.pi), 1.0),
                (AnnularSector(0.5, 1.2, math.pi, 2.0 * math.pi), 1.0),
            )
        )
        union = AnnularSector(0.5, 1.2, 0.0, 2.0 * math.pi)
        rep = verify_weighted_partition(f, halves)
        rep_union = verify_concentration(f, union)
        assert abs(rep.lhs - rep_union.lhs) < 1e-12
        assert abs(rep.rhs - rep_union.rhs) < 1e-15
        assert rep.holds and rep_union.holds

    def test_piece_integrals_in_metadata(self):
        f = random_unit(np.random.default_rng(3), 8)
        part = WeightedPartition(((Disc(0.0, 0.8), 0.5),))
        rep = verify_weighted_partition(f, part)
        piece = rep.metadata["pieces"][0]
        assert piece["weight"] == 0.5
        assert math.isclose(rep.lhs, 0.5 * piece["integral"], rel_tol=1e-14)

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WeightedPartition(((Disc(0.0, 1.0), 1.5),))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            WeightedPartition(
                ((Disc(0.0, 1.0), 0.5), (Disc(0.1, 1.0), 0.5))
            )

    def test_is_simple_symbol(self):
        pieces = ((Disc(0.3 + 0.2j, 0.4), 0.7),
                  (AnnularSector(0.9, 1.6, 0.5, 2.5), 0.3),
                  (AnnularSector(1.7, 2.0, 0.0, 2.0 * math.pi), 1.0))
        part = WeightedPartition(pieces)
        assert isinstance(part, SimpleSymbol)
        assert part.l1_norm() == float(sum(eps * area(r) for r, eps in pieces))
        with pytest.raises(TypeError):
            WeightedPartition((("not a region", 0.5),))

    def test_lhs_is_toeplitz_quadratic_form(self):
        # the lemma's left-hand side is <T_phi f, f> for phi = sum eps_k 1_{Omega_k}
        rng = np.random.default_rng(41)
        for _ in range(10):
            f = random_unit(rng, int(rng.integers(2, 20)), truncation=24)
            part = random_partition(rng)
            lhs = verify_weighted_partition(f, part).lhs
            assert abs(lhs - rayleigh(part, f)) <= 1e-12

    def test_random_cases_hold(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = random_unit(rng, int(rng.integers(2, 14)))
            rep = verify_weighted_partition(f, random_partition(rng))
            assert rep.holds


class TestVerifyNormBound:
    def test_gaussian_radial(self):
        rep = verify_norm_bound(RadialSymbol.gaussian(), 40)
        assert rep.holds
        assert abs(rep.lhs - PI_OVER_PI_PLUS_ONE) < 1e-11
        assert math.isclose(rep.rhs, ONE_MINUS_EXP_NEG_PI, rel_tol=1e-12)

    def test_unit_disc_indicator_touches_bound(self):
        sym = SimpleSymbol(((Disc(0.0, 1.0), 1.0),))
        rep = verify_norm_bound(sym, 40)
        assert rep.holds
        # the norm of this compression is exactly the bound value
        assert abs(rep.lhs - rep.rhs) < 1e-10

    def test_sampled_symbol(self):
        rule = ProductRule(RadialRule.gauss_laguerre(50), AngularRule(80))
        z = rule.grid()
        values = np.exp(-np.abs(z) ** 2) * (1.0 + 0.4 * np.cos(np.angle(z)))
        sym = SampledSymbol(rule, values, float(np.max(np.abs(values))))
        rep = verify_norm_bound(sym, 20)
        assert rep.holds
        assert rep.metadata["l1"] > 0.0


class TestSharpness:
    def test_origin(self):
        reports = sharpness_experiment(0.0, math.sqrt(1.0 / math.pi), 40)
        names = [r.experiment for r in reports]
        assert names == [
            "sharpness-rayleigh-equality",
            "sharpness-rayleigh-below-norm",
            "sharpness-norm-below-bound",
        ]
        assert all(r.holds for r in reports)
        assert abs(reports[0].lhs) < 1e-10
        assert reports[0].metadata["equality"] is True

    def test_off_center(self):
        reports = sharpness_experiment(0.7 + 0.3j, 0.6, 48)
        assert all(r.holds for r in reports)
        assert reports[2].metadata["eigvec_overlap"] > 0.999
        assert math.isclose(
            reports[2].metadata["top_eigenvalue"], reports[1].rhs, rel_tol=1e-9
        )

    def test_assembles_once(self, monkeypatch):
        calls = []

        def counting(symbol, truncation):
            calls.append(truncation)
            return assemble(symbol, truncation)

        monkeypatch.setattr(experiments, "assemble", counting)
        monkeypatch.setattr(toeplitz, "assemble", counting)
        reports = sharpness_experiment(0.7 + 0.3j, 0.6, 48)
        assert calls == [48]
        assert reports[0].metadata["rayleigh"] == rayleigh(
            SimpleSymbol(((Disc(0.7 + 0.3j, 0.6), 1.0),)), coherent(0.7 + 0.3j, 48))


class TestApproximation:
    def test_report_structure(self):
        reports = approximation_experiment(RadialSymbol.gaussian(), [4, 8], 25)
        names = [r.experiment for r in reports]
        assert names == [
            "approx-stage-bound",
            "approx-stage-bound",
            "approx-monotone-error",
            "approx-composite-dominates",
            "approx-convergence",
        ]
        stage = reports[0]
        for key in ("grid", "cells", "l1", "linf", "l1_error_estimate",
                    "composite_bound"):
            assert key in stage.metadata
        assert stage.metadata["cells"] == 16  # m^2 radial cells

    def test_stage_and_domination_hold_on_coarse_grids(self):
        reports = approximation_experiment(RadialSymbol.gaussian(), [4, 8], 25)
        by_name = {r.experiment: r for r in reports}
        assert all(
            r.holds for r in reports if r.experiment == "approx-stage-bound"
        )
        assert by_name["approx-monotone-error"].holds
        assert by_name["approx-composite-dominates"].holds
        # coarse grids cannot reach the 5e-3 convergence window: honest FAIL
        assert not by_name["approx-convergence"].holds

    def test_errors_decrease(self):
        reports = approximation_experiment(RadialSymbol.gaussian(), [4, 8, 16], 25)
        errs = [
            r.metadata["l1_error_estimate"]
            for r in reports
            if r.experiment == "approx-stage-bound"
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_grid_validation(self):
        sym = RadialSymbol.gaussian()
        with pytest.raises(ValueError):
            approximation_experiment(sym, [], 20)
        with pytest.raises(ValueError):
            approximation_experiment(sym, [4, 4], 20)
        with pytest.raises(ValueError):
            approximation_experiment(sym, [0, 4], 20)


class TestRandomInputs:
    def test_region_reproducible(self):
        a = random_region(np.random.default_rng(17))
        b = random_region(np.random.default_rng(17))
        assert type(a) is type(b)
        if isinstance(a, Disc):
            assert a.center == b.center and a.radius == b.radius
        else:
            assert (a.r_inner, a.r_outer, a.theta_start, a.theta_end) == (
                b.r_inner, b.r_outer, b.theta_start, b.theta_end
            )

    def test_regions_have_positive_area(self):
        from focklab import area

        rng = np.random.default_rng(21)
        for _ in range(50):
            assert area(random_region(rng)) > 0.0

    def test_partition_weights_in_range(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            part = random_partition(rng)
            assert len(part.pieces) >= 1
            assert all(0.0 <= eps <= 1.0 for _, eps in part.pieces)

    def test_symbol_mixes_signs(self):
        rng = np.random.default_rng(23)
        signs = set()
        for _ in range(20):
            sym = random_symbol(rng)
            assert len(sym.pieces) >= 2
            for _, c in sym.pieces:
                assert -1.0 <= c <= 1.0
                signs.add(c > 0.0)
        assert signs == {True, False}
