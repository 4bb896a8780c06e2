"""Symbol containers and polar-grid discretization."""
import dataclasses
import json
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from focklab import cli, symbols
from focklab import (
    AnnularSector,
    Disc,
    PolarGrid,
    RadialRule,
    RadialSymbol,
    SampledSymbol,
    SimpleSymbol,
    discretize,
    radial_assemble,
)
from focklab.regions import region_to_json
from plane_oracles import grid, seeded_radials, segments_abs_integral

TWO_PI = 2.0 * math.pi


def _read(tmp_path, data):
    """The symbol cli.load_symbol reads from data written to a file."""
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(data))
    return cli.load_symbol(path)


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

    def test_overlapping_pieces_raise(self):
        with pytest.raises(ValueError, match="disjoint"):
            SimpleSymbol(((Disc(0.0, 1.0), 1.0), (Disc(0.5, 1.0), 1.0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleSymbol(((Disc(0.0, 1.0), math.inf),))
        with pytest.raises(TypeError):
            SimpleSymbol((("not a region", 1.0),))

    def test_json_round_trip(self, tmp_path):
        # a symbol file's pieces are region_to_json's form plus a coeff
        pieces = ((Disc(0.3 + 0.2j, 0.4), 1.25), (AnnularSector(1.0, 2.0, 0.5, 1.5), -0.75))
        back = _read(tmp_path, {"pieces": [{**region_to_json(region), "coeff": coeff}
                                           for region, coeff in pieces]})
        assert len(back.pieces) == 2
        disc, c0 = back.pieces[0]
        assert disc.center == 0.3 + 0.2j and disc.radius == 0.4 and c0 == 1.25
        sector, c1 = back.pieces[1]
        assert (sector.r_inner, sector.r_outer) == (1.0, 2.0)
        assert (sector.theta_start, sector.theta_end) == (0.5, 1.5)
        assert c1 == -0.75

    def test_bad_json_piece(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="exactly one 'disc' or 'sector'"):
            _read(tmp_path, {"pieces": [{"coeff": 1.0}]})


def _annulus_closure(r_inner, r_outer, height=1.0):
    r_inner, r_outer, height = float(r_inner), float(r_outer), float(height)

    def prof(r):
        return np.where((r >= r_inner) & (r <= r_outer), height, 0.0)

    return prof


def _table_closure(radii, values):
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    support = float(radii[-1])

    def prof(r):
        out = np.interp(r, radii, values)
        return np.where(np.asarray(r) > support, 0.0, out)

    return prof


# The profile closures RadialSymbol's builtins built before a symbol stored
# its parameters: the bit-for-bit oracles of RadialSymbol.profile.
_CLOSURES = {
    "disc": lambda radius, height=1.0: _annulus_closure(0.0, radius, height),
    "annulus": _annulus_closure,
    "gaussian": lambda: (lambda r: np.exp(-(r**2))),
    "table": _table_closure,
}

# A table from the approximation benchmark (seed 1) whose last edge
# sqrt(t / pi) lands an ulp beyond its support; its profile turns at the
# knots 0.451 and 0.924.
_EDGE_RADII = [0.0, 0.4509803531452335, 0.9243293048079853, 1.2091957781879055,
               1.6473244771888087]
_EDGE_VALUES = [0.08821288581299291, 0.3171597256152179, -0.770006049933502,
                -0.747410968126246, 0.9510549808319149]
_EDGE_TABLE = RadialSymbol.table(_EDGE_RADII, _EDGE_VALUES)

_BUILTIN_ARGS = [
    ("disc", (0.8,)),
    ("disc", (1.5, -2.0)),
    ("annulus", (0.0, 1.1)),
    ("annulus", (0.3, 1.1, -1.0)),
    ("gaussian", ()),
    ("table", (_EDGE_RADII, _EDGE_VALUES)),
    ("table", ([0.25, 0.6, 1.3], [0.5, 1.0, 0.0])),
    ("table", ([0.0, 0.5, 1.0, 1.5], [1.0, -0.3, 0.4, 0.0])),
]
_BUILTINS = [getattr(RadialSymbol, kind)(*args) for kind, args in _BUILTIN_ARGS]


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
            assert (disc.kind, ring.kind) == ("disc", "annulus")
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

    def test_table_huge_values_cross_without_overflow(self):
        # v0 * v1 overflowed here once, with a RuntimeWarning; the signs alone
        # say the same
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sym = RadialSymbol.table([0.0, 1.0, 2.0], [1e200, -1e200, 0.0])
        assert sym.breakpoints == (0.5, 1.0)
        assert sym.linf == 1e200

    def test_table_overflowing_slope_raises(self):
        # once "profile exceeds its declared sup bound", after np.interp's
        # knot slope overflowed
        with pytest.raises(ValueError, match="knot slope between radii 0.0 and 1.0"):
            RadialSymbol.table([0.0, 1.0, 2.0], [1e308, -1e308, 0.0])
        with pytest.raises(ValueError, match="knot slope"):
            RadialSymbol.table([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0])

    def test_constructor_takes_parameters_only(self):
        # a sup bound, support or breakpoints the profile lacks was once
        # declarable, checked at 513 sample radii only
        ring = RadialSymbol("annulus", (0.4, 1.1), (2.0,))
        assert (ring.linf, ring.support_radius, ring.breakpoints) == (2.0, 1.1, (0.4,))
        for extra in ({"linf": 0.1}, {"support_radius": 1.0}, {"breakpoints": ()},
                      {"profile_fn": lambda r: np.ones_like(r)}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                RadialSymbol("annulus", (0.4, 1.1), (2.0,), **extra)
        with pytest.raises(TypeError):
            RadialSymbol("table", lambda r: r, (1.0, 0.0))
        for field_name in ("linf", "support_radius", "breakpoints"):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(ring, **{field_name: 0.5})

    @pytest.mark.parametrize("kind, radii, values, message", [
        ("bump", (0.0, 1.0), (1.0,), "unknown radial profile kind 'bump'"),
        ("gaussian", (0.0, 1.0), (), "gaussian profile takes no radii or values"),
        ("annulus", (0.0, 1.0), (1.0, 2.0), r"annulus takes radii \(r_inner, r_outer\)"),
        ("disc", (0.0, 0.5, 1.0), (1.0,), r"disc takes radii \(r_inner, r_outer\)"),
        ("disc", (0.2, 1.0), (1.0,), "disc inner radius must be 0, got 0.2"),
        ("disc", (0.0, -1.0), (1.0,), "disc radius must be positive"),
        ("annulus", (1.0, 0.5), (1.0,), "need 0 <= r_inner < r_outer"),
        ("annulus", (0.0, 1.0), (math.inf,), "annulus height must be finite"),
        ("disc", (0.0, 1.0), (math.nan,), "disc height must be finite"),
        ("annulus", (0.5, math.inf), (1.0,), "support radius must be positive and finite"),
        ("table", (0.0, math.inf), (1.0, 0.0), "support radius must be positive and finite"),
    ])
    def test_bad_parameters_raise(self, kind, radii, values, message):
        with pytest.raises(ValueError, match=message):
            RadialSymbol(kind, radii, values)

    def test_json_round_trip(self, tmp_path):
        for spec, sym in (
            ({"profile": "disc", "radius": 0.8, "height": 2.0},
             RadialSymbol.disc(0.8, height=2.0)),
            ({"profile": "disc", "radius": 0.8}, RadialSymbol.disc(0.8)),
            ({"profile": "annulus", "r_inner": 0.3, "r_outer": 1.1, "height": -1.0},
             RadialSymbol.annulus(0.3, 1.1, height=-1.0)),
            ({"profile": "gaussian"}, RadialSymbol.gaussian()),
            ({"profile": "table", "radii": [0.0, 0.4, 1.2], "values": [0.5, -0.5, 0.0]},
             RadialSymbol.table([0.0, 0.4, 1.2], [0.5, -0.5, 0.0])),
        ):
            back = _read(tmp_path, {"radial": spec})
            assert back.kind == sym.kind
            assert back.support_radius == sym.support_radius
            assert math.isclose(back.l1_norm(), sym.l1_norm(), rel_tol=1e-14)
            r = np.linspace(0.0, sym.support_radius, 37)
            np.testing.assert_allclose(back.profile(r), sym.profile(r), atol=1e-15)

    def test_unknown_profile_raises(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="unknown radial profile"):
            _read(tmp_path, {"radial": {"profile": "mystery"}})

    @pytest.mark.parametrize("spec, accepts", [
        ({"profile": "disc", "radius": 1, "hieght": 0.5}, "radius, height"),
        ({"profile": "annulus", "r_inner": 0.5, "r_outer": 1.0, "radius": 2}, "r_inner, r_outer, height"),
        ({"profile": "gaussian", "scale": 3}, "no other key"),
        ({"profile": "table", "radii": [0, 1], "values": [1, 0], "height": 2}, "radii, values"),
    ])
    def test_unknown_profile_key_raises(self, tmp_path, spec, accepts):
        # a misspelt or foreign key was once dropped: the disc above read
        # height 1.0 and the gaussian ignored its scale
        unknown = (set(spec) - {"profile"} - set(accepts.split(", "))).pop()
        message = f"takes no key {unknown}; it accepts {accepts}$"
        with pytest.raises(cli.ConfigError, match=message):
            _read(tmp_path, {"radial": spec})

    @pytest.mark.parametrize("make", [
        lambda r: RadialSymbol.disc(r),
        lambda r: RadialSymbol.annulus(0.5, r, -1.0),
        lambda r: RadialSymbol.table([0.0, 1.0, r], [1.0, 0.5, 0.0]),
    ])
    def test_support_radius_cap(self, make):
        cap = symbols._MAX_SUPPORT_RADIUS
        assert make(cap).support_radius == cap
        for radius in (math.nextafter(cap, math.inf), 1e200):
            with pytest.raises(ValueError, match="support radius must be at most 10000"):
                make(radius)

    def test_declared_turns_construct(self):
        # seeded tables whose values alternate in sign: a crossing breakpoint
        # between every two knots
        rng = np.random.default_rng(5)
        for _ in range(200):
            radii = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.8, size=6))])
            values = rng.uniform(0.1, 1.0, size=radii.size) * (-1.0) ** np.arange(radii.size)
            assert len(RadialSymbol.table(radii, values).breakpoints) == 11
        # a copy derives the same data from the same parameters
        for sym in _BUILTINS:
            copy = dataclasses.replace(sym)
            assert (copy.kind, copy.linf, copy.support_radius, copy.breakpoints) == (
                sym.kind, sym.linf, sym.support_radius, sym.breakpoints)

    def test_parameters_stored_read_only(self):
        radii, values = np.array([0.0, 0.5, 1.0]), np.array([1.0, -0.5, 0.0])
        sym = RadialSymbol.table(radii, values)
        radii[1], values[1] = 0.9, 5.0
        assert sym.radii[1] == 0.5 and sym.values[1] == -0.5
        for arr in (sym.radii, sym.values):
            assert arr.dtype == np.float64 and not arr.flags.writeable

    @pytest.mark.parametrize("index", range(len(_BUILTIN_ARGS)))
    def test_profile_bits_match_closures(self, index):
        # the profile closures the builtins once built, applied to radii
        # through every knot and edge, one ulp either side, and the support
        kind, args = _BUILTIN_ARGS[index]
        sym = getattr(RadialSymbol, kind)(*args)
        closure = _CLOSURES[kind](*args)
        knots = np.array([0.0, *sym.radii, sym.support_radius, *sym.breakpoints])
        r = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                            np.linspace(0.0, 1.3 * sym.support_radius, 97)])
        r = r[r >= 0.0]
        assert np.array_equal(sym.profile(r), closure(np.asarray(r, dtype=float)))
        assert np.array_equal(sym.profile(r[:, None]), closure(r[:, None]))
        assert sym.profile(0.5) == closure(np.asarray(0.5))
        assert sym.linf == np.max(np.abs(sym.profile(knots)))

    def test_seeded_table_bits_and_linf(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            count = int(rng.integers(2, 9))
            radii = rng.uniform(0.0, 0.3) * (rng.random() < 0.5) + np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.05, 0.8, size=count - 1))])
            values = rng.uniform(-2.0, 2.0, size=count)
            sym = RadialSymbol.table(radii, values)
            closure = _CLOSURES["table"](radii, values)
            knots = np.concatenate([[0.0], radii, sym.breakpoints])
            r = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                                rng.uniform(0.0, 1.2 * radii[-1], size=64)])
            r = r[r >= 0.0]
            assert np.array_equal(sym.profile(r), closure(r))
            assert sym.linf == np.max(np.abs(sym.profile(radii)))


def _smooth_sampled(radial_count=40, angular_count=64):
    z = grid((RadialRule.gauss_laguerre(radial_count), angular_count))
    values = np.exp(-np.abs(z) ** 2) * (1.0 + 0.3 * np.cos(np.angle(z)))
    return SampledSymbol(values, float(np.max(np.abs(values))))


def _value_at_broadcast_first(sym, t, theta):
    """SampledSymbol.value_at as it read with t and theta broadcast to their
    common shape before any index work: the bit-for-bit oracle."""
    t, theta = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(theta, dtype=float))
    nodes = sym.radial.nodes
    m = sym.values.shape[1]
    pos = (theta % TWO_PI) / (TWO_PI / m)
    i0 = np.floor(pos).astype(int) % m
    i1 = (i0 + 1) % m
    fa = pos - np.floor(pos)
    j = np.searchsorted(nodes, t)
    j0 = np.clip(j - 1, 0, nodes.size - 1)
    j1 = np.clip(j, 0, nodes.size - 1)
    denom = np.where(j1 == j0, 1.0, nodes[j1] - nodes[j0])
    ft = np.where(j1 == j0, 0.0, (t - nodes[j0]) / denom)
    v = ((1 - ft) * ((1 - fa) * sym.values[j0, i0] + fa * sym.values[j0, i1])
         + ft * ((1 - fa) * sym.values[j1, i0] + fa * sym.values[j1, i1]))
    return np.where(t > nodes[-1], 0.0, v)


class TestSampledSymbol:
    def test_shape_validation(self):
        # the table must be 2-d with a row and a column, and K at most 256
        for shape in ((5,), (5, 8, 1), (0, 8), (257, 1)):
            with pytest.raises(ValueError, match="shape|radial node count"):
                SampledSymbol(np.zeros(shape), 1.0)

    def test_bound_validation(self):
        with pytest.raises(ValueError, match="sup bound"):
            SampledSymbol(np.full((5, 8), 2.0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            SampledSymbol(np.full((5, 8), math.inf), 1.0)

    def test_l1_oracle(self):
        # phi = e^{-t} on its own grid: l1 = sum of the bare Laguerre weights = 1
        rule = RadialRule.gauss_laguerre(30)
        values = np.tile(np.exp(-rule.nodes)[:, None], (1, 16))
        sym = SampledSymbol(values, 1.0)
        assert sym.radial is rule
        assert abs(sym.l1_norm() - 1.0) < 1e-13

    def test_value_at_nodes(self):
        sym = _smooth_sampled(12, 16)
        t = sym.radial.nodes
        theta = TWO_PI * np.arange(16) / 16
        got = sym.value_at(t[:, None], theta[None, :])
        np.testing.assert_allclose(got, sym.values, rtol=0, atol=1e-12)

    def test_value_at_properties(self):
        sym = _smooth_sampled(12, 16)
        # flat left of the first node
        assert sym.value_at(0.0, 0.3) == sym.value_at(sym.radial.nodes[0], 0.3)
        # periodic in theta
        assert math.isclose(
            float(sym.value_at(1.0, 0.7)),
            float(sym.value_at(1.0, 0.7 + TWO_PI)),
            rel_tol=1e-12,
        )
        # zero beyond the last node
        assert sym.value_at(sym.radial.nodes[-1] * 1.01, 0.0) == 0.0

    def test_interpolation_between_nodes(self):
        sym = _smooth_sampled(12, 16)
        nodes = sym.radial.nodes
        tm = 0.5 * (nodes[3] + nodes[4])
        lo = float(sym.value_at(nodes[3], 0.0))
        hi = float(sym.value_at(nodes[4], 0.0))
        mid = float(sym.value_at(tm, 0.0))
        assert math.isclose(mid, 0.5 * (lo + hi), rel_tol=1e-12)

    @pytest.mark.parametrize("layout", ["scalar-row", "row-scalar", "column-row",
                                        "discretize", "outside"])
    def test_value_at_matches_broadcast_first(self, layout):
        sym = _smooth_sampled(12, 16)
        last = float(sym.radial.nodes[-1])
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, 1.1 * last, size=23)
        theta = rng.uniform(-3.0 * TWO_PI, 3.0 * TWO_PI, size=17)
        t[:3] = last, np.nextafter(last, np.inf), 0.0
        theta[:4] = 0.0, -1e-300, TWO_PI, -TWO_PI
        args = {
            "scalar-row": (1.7, theta),
            "row-scalar": (t, -0.4),
            "column-row": (t[:, None], theta[None, :]),
            "discretize": (t[:6].reshape(2, 1, 3, 1), theta[:8].reshape(1, 2, 1, 4)),
            "outside": (np.array([1.5 * last, last, 2.0]), np.array([-7.0, 13.0, 4 * TWO_PI])),
        }[layout]
        got = sym.value_at(*args)
        expect = _value_at_broadcast_first(sym, *args)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)

    def test_value_at_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            _smooth_sampled(12, 16).value_at(np.zeros(3), np.zeros(4))


def _radial_estimate_reference(sym, radial_cells):
    """Per-cell scipy.integrate reference for int |phi - phi_d| dA, each cell
    split at its breakpoints and at its centre radius, where phi = phi_d."""
    edges_t = np.linspace(0.0, math.pi * sym.support_radius**2, radial_cells + 1)
    radii = np.sqrt(edges_t / math.pi)
    radii[-1] = sym.support_radius
    r_mid = np.sqrt(0.5 * (edges_t[:-1] + edges_t[1:]) / math.pi)
    cvals = sym.profile(r_mid)
    total = 0.0
    for j in range(radial_cells):
        pts = sorted(
            set(float(b) for b in sym.breakpoints if radii[j] < b < radii[j + 1])
            | {float(r_mid[j])}
        )
        total += quad(
            lambda r: abs(float(sym.profile(np.array([r]))[0]) - cvals[j]) * TWO_PI * r,
            radii[j], radii[j + 1],
            points=pts, limit=300, epsabs=1e-17, epsrel=1e-13,
        )[0]
    return total + sym.tail_l1_beyond(sym.support_radius)


# pi to 50 digits, for the exact references below
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _segments(sym, radial_cells):
    """(edges, c): discretize's segments of a radial symbol, built apart from
    discretize's own interleaving: the cell edges, breakpoints and centre
    radii merged by np.unique, each segment given the value of the cell
    holding its middle."""
    t = np.linspace(0.0, math.pi * sym.support_radius**2, radial_cells + 1)
    radii = np.sqrt(t / math.pi)
    radii[-1] = sym.support_radius
    r_mid = np.sqrt(0.5 * (t[:-1] + t[1:]) / math.pi)
    edges = np.unique(np.concatenate([radii, sym.breakpoints, r_mid]))
    cell = np.searchsorted(radii, 0.5 * (edges[:-1] + edges[1:]), side="right") - 1
    return edges, sym.profile(r_mid)[cell]


def _exact_abs_mass(sym, edges, c) -> float:
    """sum_k 2pi int |phi - c_k| r dr over the segments, in fractions, for a
    disc, annulus or table: each term is rational in the float edges, cell
    values and (for a table) the profile's float values at the edges, which
    a table's line interpolates; a line whose ends differ in sign is split
    at its exact root."""
    c = np.broadcast_to(c, (edges.size - 1,))
    phi = sym.profile(edges)
    total = Fraction(0)
    for k in range(edges.size - 1):
        lo, hi, ck = Fraction(edges[k]), Fraction(edges[k + 1]), Fraction(c[k])
        if sym.kind != "table":
            r_inner, r_outer = (Fraction(r) for r in sym.radii)
            v = Fraction(sym.values[0]) if r_inner <= lo and hi <= r_outer else 0
            total += abs(v - ck) * (hi - lo) * (hi + lo)
            continue
        g_lo, g_hi = Fraction(phi[k]) - ck, Fraction(phi[k + 1]) - ck
        pieces = [(lo, hi, g_lo, g_hi)]
        if g_lo * g_hi < 0:
            x = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            pieces = [(lo, x, g_lo, 0), (x, hi, 0, g_hi)]
        for a, b, ga, gb in pieces:
            total += (b - a) * (abs(ga) * (2 * a + b) + abs(gb) * (a + 2 * b)) / 3
    return float(total * Fraction(_PI))


def _gaussian_abs_mass(edges, c) -> float:
    """sum_k 2pi int |e^{-r^2} - c_k| r dr over the segments plus the tail
    pi e^{-R^2}, with 40 significant digits (decimal): e^{-r^2} - c_k has one
    sign on every segment, so each term is pi |e^{-lo^2} - e^{-hi^2} -
    c_k (hi^2 - lo^2)|."""
    with localcontext() as ctx:
        ctx.prec = 40
        r = [Decimal(x) for x in edges.tolist()]
        e = [(-(x * x)).exp() for x in r]
        total = sum(abs(e[k] - e[k + 1] - Decimal(ck) * (r[k + 1] ** 2 - r[k] ** 2))
                    for k, ck in enumerate(c.tolist()))
        return float(_PI * (total + e[-1]))


def _spy_splits(monkeypatch):
    """Record each segment that _split_at_zeros cuts, as (lo, hi, g_lo,
    g_hi, root)."""
    cuts = []
    split = symbols._split_at_zeros

    def spy(lo, hi, g_lo, g_hi):
        out = split(lo, hi, g_lo, g_hi)
        turn = np.sign(g_lo) * np.sign(g_hi) < 0.0
        cuts.extend(zip(lo[turn].tolist(), hi[turn].tolist(), g_lo[turn].tolist(),
                        g_hi[turn].tolist(), out[0][lo.size:].tolist()))
        return out

    monkeypatch.setattr(symbols, "_split_at_zeros", spy)
    return cuts


def _turning_knots(sym) -> set:
    """The interior knots of a table where its slope changes sign."""
    slopes = np.sign(np.diff(sym.values))
    return set(sym.radii[1:-1][slopes[:-1] * slopes[1:] < 0.0].tolist())


_TABLES = [_EDGE_TABLE] + [sym for sym in seeded_radials() if sym.kind == "table"]


class TestDiscretize:
    def test_aligned_disc_is_exact(self):
        sym = RadialSymbol.disc(1.2, height=0.75)
        approx, err = discretize(sym, 6)
        assert err <= 1e-14
        assert np.all(approx.values == 0.75)
        assert math.isclose(approx.l1_norm(), sym.l1_norm(), rel_tol=1e-13)

    def test_piece_layout(self):
        sym = RadialSymbol.disc(1.0)
        approx, _ = discretize(sym, 4, 3)
        assert approx.values.shape == (4, 3)
        assert approx.values.size == 12
        # radial coefficient repeats across the angular index
        for row in approx.values:
            assert len(set(row.tolist())) == 1
        # cells cover the support disc: areas add up
        r2, theta = approx.radii**2, approx.theta_edges
        total_area = float(np.sum(0.5 * np.outer(np.diff(r2), np.diff(theta))))
        assert math.isclose(total_area, math.pi, rel_tol=1e-12)

    def test_grid_arrays_read_only_float64(self):
        radial, _ = discretize(RadialSymbol.gaussian(), 16, 3)
        sampled, _ = discretize(_smooth_sampled(), 4, 5)
        for approx, shape in ((radial, (16, 3)), (sampled, (4, 5))):
            assert approx.values.shape == shape
            assert approx.radii.shape == (shape[0] + 1,)
            assert approx.theta_edges.shape == (shape[1] + 1,)
            for arr in (approx.radii, approx.theta_edges, approx.values):
                assert arr.dtype == np.float64
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0

    def test_gaussian_errors_shrink(self):
        sym = RadialSymbol.gaussian()
        errs = [discretize(sym, m)[1] for m in (8, 16, 32)]
        assert errs[0] > errs[1] > errs[2] > 0.0

    def test_gaussian_estimate_matches_reference(self):
        sym = RadialSymbol.gaussian()
        _, est = discretize(sym, 12)
        ref = _radial_estimate_reference(sym, 12)
        assert math.isclose(est, ref, rel_tol=1e-12)

    def test_table_estimate_matches_reference(self):
        sym = RadialSymbol.table([0.0, 0.5, 1.0, 1.5], [1.0, -0.3, 0.4, 0.0])
        for cells in (7, 256):
            _, est = discretize(sym, cells)
            ref = _radial_estimate_reference(sym, cells)
            assert math.isclose(est, ref, rel_tol=1e-12)

    def test_unaligned_annulus_jump(self):
        # the inner edge lands strictly inside the first cell
        sym = RadialSymbol.annulus(0.35, 1.0, height=2.0)
        _, est = discretize(sym, 4)
        ref = _radial_estimate_reference(sym, 4)
        assert est > 0.0
        assert math.isclose(est, ref, rel_tol=1e-12)

    def test_last_edge_is_the_support(self):
        # sqrt(t / pi) puts this table's last edge an ulp beyond the
        # support, where the profile reads 0 and hides the last cell's sign
        # change from the estimate.
        grid, est = discretize(_EDGE_TABLE, 16)
        assert grid.radii[-1] == _EDGE_TABLE.support_radius
        assert math.isclose(est, _radial_estimate_reference(_EDGE_TABLE, 16), rel_tol=1e-13)

    def test_table_splits_only_beside_turning_knots(self, monkeypatch):
        # each cell is cut at its centre radius, where phi - c = 0, so on a
        # line g changes sign only past a knot where the profile turns
        cuts = _spy_splits(monkeypatch)
        for sym in _TABLES:
            turning = _turning_knots(sym)
            cuts.clear()
            for cells in (16, 64, 256, 1024, 4096):
                discretize(sym, cells)
            assert all(lo in turning or hi in turning for lo, hi, *_ in cuts)
            assert cuts or sym is not _EDGE_TABLE

    def test_split_roots_on_the_linear_zero(self, monkeypatch):
        # the root of the line through (lo, g_lo) and (hi, g_hi), to within
        # rounding: at most one ulp from the exact rational root
        cuts = _spy_splits(monkeypatch)
        for sym in _TABLES:
            for cells in (16, 256, 4096):
                discretize(sym, cells)
        assert len(cuts) > 100
        for lo, hi, g_lo, g_hi, root in cuts:
            lo, hi, g_lo, g_hi = (Fraction(v) for v in (lo, hi, g_lo, g_hi))
            exact = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            assert lo < exact < hi
            assert abs(Fraction(root) - exact) <= Fraction(float(np.spacing(root)))

    @pytest.mark.parametrize("cells", [1, 16, 64, 256, 1024, 4096])
    def test_gaussian_and_annuli_never_split(self, monkeypatch, cells):
        # the gaussian is monotone and cut at each centre radius, so phi - c
        # keeps one sign on every segment; an annulus is constant on each
        cuts = _spy_splits(monkeypatch)
        seen = []
        mass = symbols._abs_mass

        def record(sym, edges, c):
            seen.append((edges, c))
            return mass(sym, edges, c)

        monkeypatch.setattr(symbols, "_abs_mass", record)
        for sym in seeded_radials() + [RadialSymbol.disc(0.8), RadialSymbol.disc(1.5, -2.0)]:
            if sym.kind == "table":
                continue
            seen.clear()
            discretize(sym, cells)
            (edges, c), = seen
            lo, hi = edges[:-1], edges[1:]
            if sym.kind == "gaussian":
                g_lo, g_hi = sym.profile(lo) - c, sym.profile(hi) - c
                assert not np.any(np.sign(g_lo) * np.sign(g_hi) < 0.0)
            else:
                wide = hi > lo
                inside = sym.profile(np.nextafter(lo, hi)[wide])
                assert np.array_equal(inside, sym.profile(np.nextafter(hi, lo)[wide]))
        assert cuts == []

    @pytest.mark.parametrize("cells", [1, 16, 256, 4096])
    def test_estimate_matches_gauss_legendre_oracle(self, cells):
        # the 16-node Gauss-Legendre segment sum that discretize once used,
        # for the 81 seeded profiles
        for sym in seeded_radials():
            edges, c = _segments(sym, cells)
            ref = segments_abs_integral(sym.profile, c, edges)
            _, est = discretize(sym, cells)
            assert math.isclose(est, ref + sym.tail_l1_beyond(sym.support_radius),
                                rel_tol=1e-13)

    @pytest.mark.parametrize("cells", [1, 16, 256, 4096])
    def test_estimate_matches_exact_fractions(self, cells):
        profiles = [sym for sym in seeded_radials() + _BUILTINS if sym.kind != "gaussian"]
        if cells == 4096:
            profiles = profiles[::8]
        for sym in profiles:
            _, est = discretize(sym, cells)
            ref = _exact_abs_mass(sym, *_segments(sym, cells))
            assert abs(est - ref) <= 1e-15 * ref

    def test_gaussian_estimate_matches_decimal(self):
        sym = RadialSymbol.gaussian()
        for cells in (1, 2, 7, 16, 256, 1024, 4096):
            _, est = discretize(sym, cells)
            assert math.isclose(est, _gaussian_abs_mass(*_segments(sym, cells)), rel_tol=1e-14)

    def test_l1_norm_in_closed_form(self):
        # once a 64-node Gauss-Legendre sum per panel, 2 ulps high on the
        # gaussian
        assert RadialSymbol.gaussian().l1_norm() == math.pi
        for sym in _TABLES + _BUILTINS:
            if sym.kind != "gaussian":
                edges = np.array([0.0, *sym.breakpoints, sym.support_radius])
                ref = _exact_abs_mass(sym, edges, 0.0)
                assert abs(sym.l1_norm() - ref) <= 1e-15 * ref

    def test_no_quadrature(self, monkeypatch):
        # l1_norm and discretize take no Gauss-Legendre rule, and neither
        # does radial_assemble on a disc or an annulus (rings, in closed
        # form), so they make no LAPACK call through numpy's leggauss; a
        # table's section still takes its panels
        def refuse(*args):
            raise AssertionError("Gauss-Legendre rule built")

        monkeypatch.setattr(symbols, "gauss_legendre", refuse)
        for sym in _BUILTINS:
            sym.l1_norm()
            discretize(sym, 64)
            if sym.kind in ("disc", "annulus"):
                radial_assemble(sym, 8)
        with pytest.raises(AssertionError, match="Gauss-Legendre"):
            radial_assemble(_EDGE_TABLE, 8)

    def test_sampled_estimate_conservative(self):
        sym = _smooth_sampled()
        approx, est = discretize(sym, 6, 4)
        assert approx.values.shape == (6, 4)
        # dense midpoint reference on the same cells
        t_max = float(sym.radial.nodes[-1])
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
        # the gaussian's support is fixed at 4.8, past which its mass is
        # pi e^{-4.8^2} = 3.1e-10, and the estimate carries that tail; a
        # support of 2, which once had to be refused, cannot be set
        sym = RadialSymbol.gaussian()
        assert sym.support_radius == symbols.GAUSSIAN_SUPPORT == 4.8
        assert sym.tail_l1_beyond(4.8) < 3.2e-10
        _, est = discretize(sym, 8)
        assert est > sym.tail_l1_beyond(4.8)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(sym, support_radius=2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            discretize(RadialSymbol.disc(1.0), 0)
        with pytest.raises(TypeError):
            discretize(SimpleSymbol(((Disc(0.0, 1.0), 1.0),)), 4)


class TestPolarGrid:
    def test_norms(self):
        grid = PolarGrid([0.0, 1.0, 2.0], [0.0, math.pi, TWO_PI], [[1.0, -2.0], [0.5, 0.0]])
        expect = 0.5 * math.pi * (1.0 * 1.0 + 2.0 * 1.0 + 0.5 * 3.0)
        assert math.isclose(grid.l1_norm(), expect, rel_tol=1e-15)
        assert grid.linf_norm() == 2.0
        assert grid.full_span

    def test_partial_span_off_origin(self):
        grid = PolarGrid([0.5, 1.5], [1.0, 2.0], [[-3.0]])
        assert not grid.full_span
        assert math.isclose(grid.l1_norm(), 3.0 * 0.5 * (1.5**2 - 0.5**2), rel_tol=1e-15)

    def test_copies_its_inputs(self):
        radii = np.array([0.0, 1.0])
        values = np.array([[2.0]])
        grid = PolarGrid(radii, [0.0, TWO_PI], values)
        radii[1] = 5.0
        values[0, 0] = 7.0
        assert grid.radii[1] == 1.0 and grid.values[0, 0] == 2.0
        assert radii.flags.writeable

    @pytest.mark.parametrize("radii, theta, values, message", [
        ([0.0, 1.0, 1.0], [0.0, TWO_PI], [[1.0], [1.0]], "radii must be strictly increasing"),
        ([0.0, 2.0, 1.0], [0.0, TWO_PI], [[1.0], [1.0]], "radii must be strictly increasing"),
        ([0.0, 1.0], [0.0, 2.0, 2.0], [[1.0, 1.0]], "angles must be strictly increasing"),
        ([0.0, 1.0], [3.0, 1.0], [[1.0]], "angles must be strictly increasing"),
        ([-0.5, 1.0], [0.0, TWO_PI], [[1.0]], "radii must be >= 0"),
        ([0.0, 1.0], [0.0, TWO_PI + 1e-9], [[1.0]], "angular span must be at most 2pi"),
        ([0.0, 1.0], [-1.0, 3.0, TWO_PI], [[1.0, 1.0]], "angular span must be at most 2pi"),
        ([0.0, 1.0], [0.0, TWO_PI], [[math.nan]], "values must be finite"),
        ([0.0, 1.0], [0.0, TWO_PI], [[math.inf]], "values must be finite"),
        ([0.0, 1.0, 2.0], [0.0, TWO_PI], [[1.0, 1.0]], r"shape \(2, 1\)"),
        ([0.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0], r"shape \(1, 2\)"),
        ([0.0, math.inf], [0.0, TWO_PI], [[1.0]], "radii must be finite"),
        ([1.0], [0.0, TWO_PI], np.zeros((0, 1)), "at least 2 edges"),
    ])
    def test_validation_names_the_limit(self, radii, theta, values, message):
        with pytest.raises(ValueError, match=message):
            PolarGrid(radii, theta, values)

    def test_l1_equals_simple_symbol_of_its_cells(self):
        # both sum exactly, so the grid and its 12,288 cells as pieces agree
        grid, _ = discretize(RadialSymbol.annulus(0.3, 1.1, -0.7), 4096, 3)
        r, t = grid.radii.tolist(), grid.theta_edges.tolist()
        cells = SimpleSymbol(tuple(
            (AnnularSector(r[j], r[j + 1], t[i], t[i + 1]), float(grid.values[j, i]))
            for j in range(len(r) - 1) for i in range(len(t) - 1)
        ))
        assert grid.l1_norm() == cells.l1_norm()

    def test_span_within_tolerance(self):
        grid = PolarGrid([0.0, 1.0], [0.0, TWO_PI + 5e-13], [[1.0]])
        assert grid.full_span
        assert math.isclose(grid.l1_norm(), math.pi, rel_tol=1e-15)
