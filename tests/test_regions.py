import cmath
import itertools
import json
import math
import re

import numpy as np
import pytest

from focklab import regions
from focklab.regions import (
    TWO_PI,
    AnnularSector,
    Disc,
    area,
    disjoint,
    region_to_json,
)

_TOL = 1e-12


def _band(region):
    if isinstance(region, AnnularSector):
        return region.r_inner, region.r_outer
    dist = abs(region.center)
    return max(0.0, dist - region.radius), dist + region.radius


def _arc(region):
    """(start, span) of an arc covering the region, or None for all angles."""
    if isinstance(region, AnnularSector):
        if region.theta_end - region.theta_start >= TWO_PI - _TOL:
            return None
        return region.theta_start % TWO_PI, region.theta_end - region.theta_start
    dist = abs(region.center)
    if dist <= region.radius + _TOL:
        return None
    half = math.asin(min(1.0, region.radius / dist))
    return (cmath.phase(region.center) - half) % TWO_PI, 2.0 * half


def _pair_disjoint(r1, r2):
    """Brute-force oracle for one pair: discs by center distance, anything
    else certified apart by its radial bands or its angular arcs."""
    if isinstance(r1, Disc) and isinstance(r2, Disc):
        return abs(r1.center - r2.center) >= r1.radius + r2.radius - _TOL
    (lo1, hi1), (lo2, hi2) = _band(r1), _band(r2)
    if min(hi1, hi2) - max(lo1, lo2) <= _TOL:
        return True
    arc1, arc2 = _arc(r1), _arc(r2)
    if arc1 is None or arc2 is None:
        return False
    (start1, span1), (start2, span2) = arc1, arc2
    s = (start2 - start1) % TWO_PI
    overlap = 0.0
    for shift in (s, s - TWO_PI):
        overlap += max(0.0, min(span1, shift + span2) - max(0.0, shift))
    return overlap <= _TOL


def _brute_force_disjoint(regions):
    return all(_pair_disjoint(regions[i], regions[j])
               for i in range(len(regions)) for j in range(i + 1, len(regions)))


def _polar_lattice(radial, angular, r_max=2.0):
    r_edges = np.sqrt(np.linspace(0.0, r_max**2, radial + 1))
    t_edges = np.linspace(0.0, TWO_PI, angular + 1)
    return [
        AnnularSector(float(r_edges[i]), float(r_edges[i + 1]),
                      float(t_edges[j]), float(t_edges[j + 1]))
        for i in range(radial)
        for j in range(angular)
    ]


class TestShapes:
    def test_disc_area(self):
        assert math.isclose(area(Disc(1.0 + 1.0j, 2.0)), 4.0 * math.pi, rel_tol=1e-15)

    def test_sector_area(self):
        s = AnnularSector(1.0, 2.0, 0.0, math.pi)
        assert math.isclose(area(s), 0.5 * math.pi * 3.0, rel_tol=1e-15)

    def test_full_annulus_area(self):
        s = AnnularSector(0.0, 1.0, 0.0, TWO_PI)
        assert math.isclose(area(s), math.pi, rel_tol=1e-15)
        assert s.full_span

    def test_disc_validation(self):
        with pytest.raises(ValueError):
            Disc(0.0, 0.0)
        with pytest.raises(ValueError):
            Disc(complex("inf"), 1.0)

    def test_sector_validation(self):
        with pytest.raises(ValueError):
            AnnularSector(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            AnnularSector(-0.1, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            AnnularSector(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            AnnularSector(0.0, 1.0, 0.0, 7.0)

    def test_radius_limit(self):
        # pi r^2 must be finite: r = 1e154 once gave NaN matrix entries, and
        # r = 1e200 an OverflowError
        limit = re.escape(f"{regions.R_MAX:.4g}")
        for r in (1e154, 1e200):
            with pytest.raises(ValueError, match=limit):
                Disc(0.0, r)
            with pytest.raises(ValueError, match=limit):
                Disc(complex(0.0, -r), 1.0)
            with pytest.raises(ValueError, match=limit):
                AnnularSector(0.0, r, 0.0, 1.0)
        assert math.isfinite(Disc(0.0, 7.5e153).area)
        assert math.isfinite(AnnularSector(7e153, 7.5e153, 0.0, TWO_PI).area)

    def test_radii_and_angles_stored_as_float(self):
        # Disc(0, True).radius was True, and AnnularSector(0, 1, 0, 3) wrote
        # {"r": [0, 1], "theta": [0, 3]} into report metadata
        disc = Disc(0, True)
        assert type(disc.radius) is float and disc.radius == 1.0
        sector = AnnularSector(0, 1, 0, 3)
        fields = (sector.r_inner, sector.r_outer, sector.theta_start, sector.theta_end)
        assert [type(x) for x in fields] == [float] * 4
        assert (json.dumps(region_to_json(sector))
                == '{"sector": {"r": [0.0, 1.0], "theta": [0.0, 3.0]}}')
        assert (json.dumps(region_to_json(disc))
                == '{"disc": {"center": [0.0, 0.0], "radius": 1.0}}')

    def test_area_type_error(self):
        with pytest.raises(TypeError):
            area("not a region")


class TestDisjoint:
    def test_separated_discs(self):
        assert disjoint([Disc(0.0, 1.0), Disc(3.0, 1.0)])

    def test_touching_discs_count_as_disjoint(self):
        assert disjoint([Disc(0.0, 1.0), Disc(2.0, 1.0)])

    def test_overlapping_discs(self):
        assert not disjoint([Disc(0.0, 1.0), Disc(1.5, 1.0)])

    def test_nested_annuli(self):
        a = AnnularSector(0.0, 1.0, 0.0, TWO_PI)
        b = AnnularSector(1.0, 2.0, 0.0, TWO_PI)  # touching radially
        c = AnnularSector(2.5, 3.0, 0.0, TWO_PI)
        assert disjoint([a, b, c])

    def test_same_band_abutting_arcs(self):
        a = AnnularSector(1.0, 2.0, 0.0, 1.0)
        b = AnnularSector(1.0, 2.0, 1.0, 2.0)
        assert disjoint([a, b])

    def test_same_band_overlapping_arcs(self):
        a = AnnularSector(1.0, 2.0, 0.0, 1.5)
        b = AnnularSector(1.0, 2.0, 1.0, 2.0)
        assert not disjoint([a, b])

    def test_wraparound_arcs(self):
        # arc crossing 0 overlaps an arc near 0 even though raw starts differ
        a = AnnularSector(1.0, 2.0, 5.5, 5.5 + 1.5)  # wraps past 2pi
        b = AnnularSector(1.0, 2.0, 0.1, 0.4)
        assert not disjoint([a, b])
        c = AnnularSector(1.0, 2.0, 1.0, 2.0)
        assert disjoint([a, c])

    def test_disc_clear_of_sector_band(self):
        disc = Disc(4.0, 0.5)
        sector = AnnularSector(0.0, 2.0, 0.0, TWO_PI)
        assert disjoint([disc, sector])

    def test_disc_angularly_clear_of_sector(self):
        # disc sits near angle 0, sector spans angles around pi
        disc = Disc(2.0 + 0.0j, 0.3)
        sector = AnnularSector(1.5, 2.5, math.pi - 0.5, math.pi + 0.5)
        assert disjoint([disc, sector])

    def test_disc_conservative_refusal(self):
        # same band, same angles: cannot certify
        disc = Disc(2.0 + 0.0j, 0.3)
        sector = AnnularSector(1.5, 2.5, -0.5, 0.5)
        assert not disjoint([disc, sector])

    def test_origin_disc_blocks_every_angle(self):
        disc = Disc(0.1, 0.5)  # contains the origin
        sector = AnnularSector(0.2, 0.8, 1.0, 2.0)
        assert not disjoint([disc, sector])

    def test_empty_and_single(self, monkeypatch):
        # decided before the sweep computes a single band
        def no_sweep(region):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(regions, "_radial_band", no_sweep)
        assert disjoint([])
        assert disjoint([Disc(0.0, 1.0)])
        assert disjoint(iter([AnnularSector(1.0, 2.0, 0.0, 1.0)]))


class TestVectorizedPath:
    """disjoint's sorted sweep against a brute-force pairwise oracle."""

    @staticmethod
    def _random_piece(rng):
        """A disc, sector, full annulus or arc wrapping past 2pi, drawn from a
        few shared edge values so that touching edges are common."""
        u = rng.uniform()
        if u < 0.3:
            center = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            return Disc(center, float(rng.choice([0.5, 1.0, rng.uniform(0.05, 1.5)])))
        r1 = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, rng.uniform(0.0, 2.5)]))
        r2 = r1 + float(rng.choice([0.5, 1.0, rng.uniform(0.05, 1.5)]))
        if u < 0.45:
            return AnnularSector(r1, r2, 0.0, TWO_PI)
        start = float(rng.choice([0.0, 1.0, math.pi, 5.5, rng.uniform(-TWO_PI, TWO_PI)]))
        span = float(rng.choice([1e-13, 1.0, math.pi, 2.0, rng.uniform(0.05, TWO_PI - 0.05)]))
        return AnnularSector(r1, r2, start, start + span)

    def _random_family(self, rng):
        """Random pieces, or cells of a rotated polar lattice (disjoint, with
        touching edges and an arc across 2pi), sometimes with a random piece
        added; now and then a disc gets a touching neighbour or a cell is
        duplicated."""
        if rng.uniform() < 0.4:
            family = [self._random_piece(rng) for _ in range(int(rng.integers(2, 6)))]
        else:
            r_edges = np.cumsum(rng.choice([0.5, 1.0, rng.uniform(0.1, 1.0)], size=4))
            arcs = int(rng.integers(1, 5))
            t_edges = rng.uniform(0.0, TWO_PI) + np.linspace(0.0, TWO_PI, arcs + 1)
            family = [
                AnnularSector(float(r_edges[i]), float(r_edges[i + 1]),
                              float(t_edges[j]), float(t_edges[j + 1]))
                for i in range(3) for j in range(arcs) if rng.uniform() < 0.6
            ] + [self._random_piece(rng) for _ in range(int(rng.integers(0, 2)))]
        discs = [r for r in family if isinstance(r, Disc)]
        if discs and rng.uniform() < 0.5:
            disc, radius = discs[0], float(rng.uniform(0.05, 1.0))
            step = cmath.exp(1j * rng.uniform(0.0, TWO_PI)) * (disc.radius + radius)
            family.append(Disc(disc.center + step, radius))
        if family and rng.uniform() < 0.15:
            family.append(family[int(rng.integers(len(family)))])
        return family

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        verdicts = []
        for _ in range(2500):
            family = self._random_family(rng)
            expect = _brute_force_disjoint(family)
            assert disjoint(family) == expect, family
            assert disjoint(family[::-1]) == expect, family
            verdicts.append(expect)
        # Both answers occur often enough to exercise both.
        assert 500 < sum(verdicts) < 2000

    def test_every_ordering_of_small_families(self):
        # Library callers pass a handful of regions; the sweep's sort and
        # early break must not depend on the order they come in.
        rng = np.random.default_rng(300)
        families = 0
        while families < 300:
            family = self._random_family(rng)
            if not 2 <= len(family) <= 5:
                continue
            families += 1
            for ordering in itertools.permutations(family):
                assert disjoint(ordering) == _brute_force_disjoint(ordering), ordering

    def test_generator_input(self):
        cells = [AnnularSector(0.0, 1.0, 0.0, 1.0), AnnularSector(0.0, 1.0, 1.0, 2.0),
                 Disc(3.0, 0.5)]
        assert disjoint(r for r in cells)
        assert not disjoint(r for r in cells[1:] + [Disc(3.5, 0.5)])

    def test_large_lattices(self):
        annuli = _polar_lattice(4096, 1, r_max=4.8)
        cells = _polar_lattice(64, 64)
        for family in (annuli, cells):
            assert disjoint(family)
            assert not disjoint(family + [family[len(family) // 3]])
            assert not disjoint([family[-1]] + family)

    def test_lattice_family_disjoint(self):
        r_edges = np.linspace(0.0, 2.0, 9)
        t_edges = np.linspace(0.0, TWO_PI, 9)
        cells = [
            AnnularSector(float(r_edges[i]), float(r_edges[i + 1]),
                          float(t_edges[j]), float(t_edges[j + 1]))
            for i in range(8)
            for j in range(8)
        ]
        assert disjoint(cells)

    def test_lattice_with_duplicate_not_disjoint(self):
        r_edges = np.linspace(0.1, 2.0, 7)
        cells = [
            AnnularSector(float(r_edges[i]), float(r_edges[i + 1]), 0.0, 1.0)
            for i in range(6)
        ] * 6  # 36 cells, each one six times
        assert not disjoint(cells)

