"""Bounded symbols described by structured data.

Four classes cover the lab's needs:

- SimpleSymbol: a finite combination sum_k c_k 1_{Omega_k} with real
  coefficients and pairwise disjoint regions (checked at construction).
- PolarGrid: a piecewise-constant symbol on the cells of a polar grid,
  stored as its edge and value arrays; what discretize() returns.
- RadialSymbol: phi(z) = profile(|z|) for a builtin profile (disc,
  annulus, gaussian or knot table), stored as its parameters; its sup norm,
  support radius and breakpoints follow from them exactly. The gaussian
  carries an effective support plus an analytic tail formula.
- SampledSymbol: a table of real values on Gauss-Laguerre nodes in
  t = pi r^2 times uniform angles, read off by bilinear interpolation in
  (t, theta).

L1 norms are plain Lebesgue integrals int |phi| dA. For a radial profile,
both its L1 norm and the L1 error of its discretization are sums of
2pi int |phi(r) - c| r dr over segments cut at the breakpoints, and on such
a segment every builtin is constant, linear in r or e^{-r^2}, so each term
has a closed form (_abs_mass) and no quadrature rule is involved; the
Gauss-Legendre panels of RadialSymbol.panels serve radial_assemble on a
table alone (a disc or an annulus is assembled as a ring, in closed form).
cli.load_symbol reads symbol files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .quadrature import RadialRule, gauss_legendre
from .regions import (
    _TOL,
    TWO_PI,
    AnnularSector,
    Disc,
    area,
    disjoint,
)

# Effective support of the gaussian builtin: the analytic tail pi e^{-r^2}
# beyond 4.8 is ~3.1e-10, small enough for every tolerance in the lab while
# keeping coarse discretization grids usable.
GAUSSIAN_SUPPORT = 4.8

# RadialSymbol.panels: Gauss-Legendre order and the widest panel in r.
_PANEL_ORDER = 64
_PANEL_WIDTH = 5.0
# The largest support radius of a RadialSymbol, for every kind. panels()
# splits a table's support into ceil(R / _PANEL_WIDTH) panels, so time and
# memory grow with R: this cap is 2,000 panels.
_MAX_SUPPORT_RADIUS = 1e4

__all__ = [
    "SimpleSymbol",
    "PolarGrid",
    "RadialSymbol",
    "SampledSymbol",
    "discretize",
    "GAUSSIAN_SUPPORT",
]


@dataclass(frozen=True, eq=False)
class SimpleSymbol:
    """sum_k coeff_k * indicator(region_k), regions pairwise disjoint."""

    pieces: tuple

    def __post_init__(self):
        norm_pieces = []
        for region, coeff in self.pieces:
            if not isinstance(region, (Disc, AnnularSector)):
                raise TypeError(f"unsupported region type: {type(region).__name__}")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError("piece coefficients must be finite")
            norm_pieces.append((region, coeff))
        if not disjoint(r for r, _ in norm_pieces):
            raise ValueError("symbol pieces must be pairwise disjoint")
        object.__setattr__(self, "pieces", tuple(norm_pieces))

    def l1_norm(self) -> float:
        """sum |coeff| area, summed exactly (math.fsum), so it does not drift
        with the number of pieces and equals PolarGrid.l1_norm on its cells."""
        return math.fsum(abs(c) * area(r) for r, c in self.pieces)

    def linf_norm(self) -> float:
        return float(max((abs(c) for _, c in self.pieces), default=0.0))


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """values[j, i] on the cell radii[j] <= |z| <= radii[j+1], theta_edges[i]
    <= arg z <= theta_edges[i+1], zero off the grid.

    Strictly increasing edges over an angular span of at most 2pi make the
    cells pairwise disjoint, so the checks are O(J + I) array tests and no
    regions.disjoint call. The arrays are stored read-only as float64.
    """

    radii: np.ndarray
    theta_edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        radii = np.array(self.radii, dtype=float)
        theta = np.array(self.theta_edges, dtype=float)
        values = np.array(self.values, dtype=float)
        for name, edges in (("radii", radii), ("angles", theta)):
            if edges.ndim != 1 or edges.size < 2:
                raise ValueError(f"grid {name} must be a 1-d array of at least 2 edges")
            if not np.all(np.isfinite(edges)):
                raise ValueError(f"grid {name} must be finite")
            if not np.all(np.diff(edges) > 0.0):
                raise ValueError(f"grid {name} must be strictly increasing")
        if radii[0] < 0.0:
            raise ValueError(f"grid radii must be >= 0, got {radii[0]}")
        span = theta[-1] - theta[0]
        if span > TWO_PI + _TOL:
            raise ValueError(f"grid angular span must be at most 2pi, got {span}")
        shape = (radii.size - 1, theta.size - 1)
        if values.shape != shape:
            raise ValueError(f"grid values must have shape {shape} (radial x angular "
                             f"cells), got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        for name, arr in (("radii", radii), ("theta_edges", theta), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def full_span(self) -> bool:
        """Whether the angular edges cover every angle, as for AnnularSector."""
        return self.theta_edges[-1] - self.theta_edges[0] >= TWO_PI - _TOL

    def l1_norm(self) -> float:
        """sum |values[j, i]| times the cell's area, summed exactly
        (math.fsum) as SimpleSymbol.l1_norm sums the same cells as pieces."""
        spans = np.minimum(np.diff(self.theta_edges), TWO_PI)
        areas = 0.5 * np.outer(np.diff(self.radii**2), spans)
        return math.fsum((np.abs(self.values) * areas).ravel().tolist())

    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True, eq=False)
class RadialSymbol:
    """phi(z) = profile(|z|) for one of four builtin profiles, stored as its
    parameters: kind "disc" or "annulus" with radii (r_inner, r_outer)
    (r_inner 0 for a disc) and values (height,), kind "table" with its knot
    radii and values, and kind "gaussian" with neither.

    linf, support_radius and breakpoints are derived from the parameters,
    exactly. breakpoints lists the radii (interior to the support) where the
    profile jumps, has a kink or changes sign: an annulus's inner edge, a
    table's interior knots and the zeros of its interpolant. Every radius
    where a builtin profile turns (changes between increasing and
    decreasing) is among them, so quadrature and discretization, which
    split there, see every profile piece as smooth and monotone. The
    support radius is at most _MAX_SUPPORT_RADIUS (1e4).
    """

    kind: str
    radii: np.ndarray = ()
    values: np.ndarray = ()
    linf: float = field(init=False)
    support_radius: float = field(init=False)
    breakpoints: tuple = field(init=False)

    def __post_init__(self):
        radii = np.array(self.radii, dtype=float)
        values = np.array(self.values, dtype=float)
        if self.kind == "gaussian":
            if radii.size or values.size:
                raise ValueError("the gaussian profile takes no radii or values")
            linf, support, breaks = 1.0, GAUSSIAN_SUPPORT, ()
        elif self.kind in ("disc", "annulus"):
            if radii.shape != (2,) or values.shape != (1,):
                raise ValueError(f"{self.kind} takes radii (r_inner, r_outer) and values (height,)")
            (r_inner, r_outer), (height,) = radii.tolist(), values.tolist()
            if self.kind == "disc" and r_outer <= 0.0:
                raise ValueError("disc radius must be positive")
            if self.kind == "disc" and r_inner != 0.0:
                raise ValueError(f"disc inner radius must be 0, got {r_inner}")
            if not (0.0 <= r_inner < r_outer):
                raise ValueError("need 0 <= r_inner < r_outer")
            if not math.isfinite(height):
                raise ValueError(f"{self.kind} height must be finite")
            linf, support = abs(height), r_outer
            breaks = (r_inner,) if r_inner > 0.0 else ()
        elif self.kind == "table":
            linf, support, breaks = _table_data(radii, values)
        else:
            raise ValueError(f"unknown radial profile kind {self.kind!r}")
        if not (math.isfinite(support) and support > 0.0):
            raise ValueError("support radius must be positive and finite")
        if support > _MAX_SUPPORT_RADIUS:
            raise ValueError(f"support radius must be at most {_MAX_SUPPORT_RADIUS:g} "
                             f"({_MAX_SUPPORT_RADIUS / _PANEL_WIDTH:,.0f} quadrature panels), "
                             f"got {support:g}")
        radii.setflags(write=False)
        values.setflags(write=False)
        for name, value in (("radii", radii), ("values", values), ("linf", linf),
                            ("support_radius", support), ("breakpoints", breaks)):
            object.__setattr__(self, name, value)

    def profile(self, r):
        """Profile values at radii r (vectorized)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-(r**2))
        if self.kind == "table":
            return np.where(r > self.support_radius, 0.0, np.interp(r, self.radii, self.values))
        r_inner, r_outer = self.radii
        return np.where((r >= r_inner) & (r <= r_outer), self.values[0], 0.0)

    def tail_l1_beyond(self, r: float) -> float:
        """Closed-form int_{|z| > r} |phi| dA (zero for compact profiles)."""
        if self.kind == "gaussian":
            return math.pi * math.exp(-(r**2))
        return 0.0

    def linf_norm(self) -> float:
        return self.linf

    def panels(self):
        """(r, w): radial_assemble's rule for a table profile, order-64
        Gauss-Legendre nodes and weights in r on each panel between
        consecutive edges 0, breakpoints..., support_radius, so no panel
        straddles a jump or kink. An interval wider than 5 is split evenly
        into panels at most 5 wide. The rule does not depend on N:
        r^{2n+1} e^{-pi r^2} is a bump about 0.3 wide for every n, and order
        64 resolves it on any such panel."""
        edges = [0.0] + [float(b) for b in self.breakpoints] + [self.support_radius]
        for a, b in zip(edges[:-1], edges[1:]):
            if b > a:
                cuts = np.linspace(a, b, math.ceil((b - a) / _PANEL_WIDTH) + 1).tolist()
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    yield gauss_legendre(_PANEL_ORDER, lo, hi)

    def l1_norm(self) -> float:
        """2pi int |phi(r)| r dr in closed form (_abs_mass with c = 0) on the
        segments between 0, the breakpoints and the support radius, plus the
        analytic tail. Sign changes sit on breakpoints, so every segment is
        one piece of the profile, of one sign."""
        edges = np.array([0.0, *self.breakpoints, self.support_radius])
        return _abs_mass(self, edges, 0.0) + self.tail_l1_beyond(self.support_radius)

    # --- builtins ---

    @classmethod
    def disc(cls, radius: float, height: float = 1.0) -> "RadialSymbol":
        """annulus(0, radius, height) under kind "disc"."""
        return cls("disc", (0.0, radius), (height,))

    @classmethod
    def annulus(cls, r_inner: float, r_outer: float, height: float = 1.0) -> "RadialSymbol":
        return cls("annulus", (r_inner, r_outer), (height,))

    @classmethod
    def gaussian(cls) -> "RadialSymbol":
        """exp(-r^2), cut at GAUSSIAN_SUPPORT, with its analytic tail."""
        return cls("gaussian")

    @classmethod
    def table(cls, radii: Sequence[float], values: Sequence[float]) -> "RadialSymbol":
        """Piecewise linear profile through (radii, values); constant left of
        the first knot, zero beyond the last."""
        return cls("table", radii, values)


def _table_data(radii: np.ndarray, values: np.ndarray) -> tuple:
    """(linf, support radius, breakpoints) of a table profile; ValueError
    names the first rule its knots break."""
    if radii.ndim != 1 or radii.size < 2 or radii.shape != values.shape:
        raise ValueError("need matching 1-d knot and value arrays, length >= 2")
    if radii[0] < 0.0 or np.any(np.diff(radii) <= 0.0):
        raise ValueError("knot radii must be nonnegative and strictly increasing")
    if not np.all(np.isfinite(values)):
        raise ValueError("knot values must be finite")
    with np.errstate(over="ignore"):
        slopes = np.diff(values) / np.diff(radii)
    bad = np.flatnonzero(~np.isfinite(slopes))
    if bad.size:
        r0, r1 = float(radii[bad[0]]), float(radii[bad[0] + 1])
        raise ValueError(f"knot slope between radii {r0} and {r1} overflows float64")
    support = float(radii[-1])
    # Interior knots are kinks; sign changes of the interpolant add exact
    # crossing radii so |phi| stays smooth between breakpoints.
    breaks = set(float(b) for b in radii[:-1] if 0.0 < b < support)
    for (r0, r1, v0, v1) in zip(radii[:-1], radii[1:], values[:-1], values[1:]):
        if np.sign(v0) * np.sign(v1) < 0.0:  # v0 * v1 can overflow
            breaks.add(float(r0 + (r1 - r0) * (0.0 - v0) / (v1 - v0)))
    return float(np.max(np.abs(values))), support, tuple(sorted(breaks))


@dataclass(frozen=True, eq=False)
class SampledSymbol:
    """Real symbol values on a K x M table, with a declared sup bound: row j
    sits at the j-th node t_j of the K-node Gauss-Laguerre rule in t (the
    radial field, built from the table's shape), column i at the angle
    2pi i / M.

    Between radial nodes the symbol is read by linear interpolation in t
    (flat from t = 0 to the first node, zero beyond the last node); the
    angular direction interpolates periodically.
    """

    values: np.ndarray
    linf: float
    radial: RadialRule = field(init=False, repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or 0 in vals.shape:
            raise ValueError(f"sample values must be a 2-d table with at least one row "
                             f"and one column, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        if not (math.isfinite(self.linf) and self.linf >= 0.0):
            raise ValueError("linf bound must be finite and >= 0")
        if np.max(np.abs(vals)) > self.linf * (1.0 + 1e-12) + 1e-300:
            raise ValueError("samples exceed the declared sup bound")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "radial", RadialRule.gauss_laguerre(vals.shape[0]))

    def linf_norm(self) -> float:
        return self.linf

    def l1_norm(self) -> float:
        """int |phi| dA by the grid's own rule, using the Lebesgue-scaled
        radial weights w_j e^{t_j}."""
        row_means = np.sum(np.abs(self.values), axis=1) / self.values.shape[1]
        return float(np.dot(self.radial.scaled_weights, row_means))

    def value_at(self, t, theta):
        """Bilinear interpolation on the (t, theta) grid at t and theta
        broadcast against each other. The radial bracket and weight are
        computed in t's own shape and the angular ones in theta's, so an
        outer product of the two axes does its index work once per axis;
        only the four value gathers and the blend take the broadcast shape,
        with the same per-point arithmetic as on broadcast inputs."""
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        np.broadcast_shapes(t.shape, theta.shape)  # shapes that do not broadcast raise ValueError
        nodes = self.radial.nodes
        m = self.values.shape[1]
        step = TWO_PI / m
        pos = (theta % TWO_PI) / step
        i0 = np.floor(pos).astype(int) % m
        i1 = (i0 + 1) % m
        fa = pos - np.floor(pos)

        j = np.searchsorted(nodes, t)  # nodes[j-1] <= t < nodes[j]
        j0 = np.clip(j - 1, 0, nodes.size - 1)
        j1 = np.clip(j, 0, nodes.size - 1)
        denom = np.where(j1 == j0, 1.0, nodes[j1] - nodes[j0])
        ft = np.where(j1 == j0, 0.0, (t - nodes[j0]) / denom)

        v = (
            (1 - ft) * ((1 - fa) * self.values[j0, i0] + fa * self.values[j0, i1])
            + ft * ((1 - fa) * self.values[j1, i0] + fa * self.values[j1, i1])
        )
        return np.where(t > nodes[-1], 0.0, v)


# ---------------------------------------------------------------------------
# discretization


def _abs_mass(symbol: RadialSymbol, edges: np.ndarray, c) -> float:
    """sum_k 2pi int_{edges[k]}^{edges[k+1]} |phi(r) - c[k]| r dr in closed
    form, for edges cut at every breakpoint (so no segment holds a jump or a
    kink) and c a scalar or one value per segment. A segment of zero length
    (a breakpoint on a cell edge or centre) adds 0.

    disc / annulus: phi is one constant v per segment, read at its midpoint,
      so the term is pi |v - c| (hi - lo)(hi + lo).
    gaussian: phi - c has one sign on a segment (the callers cut each cell at
      its centre radius, where phi = c, and e^{-r^2} is monotone), so the
      term is pi |e^{-lo^2} (1 - e^{-d}) - c d| with d = hi^2 - lo^2.
    table: g = phi - c is linear in r; a segment whose ends differ in sign is
      split at the root of that line (_split_at_zeros), and a one-signed
      segment gives (pi h / 3)(|g_lo|(2 lo + hi) + |g_hi|(lo + 2 hi)), the
      exact integral of a linear |g| times r, with no cancellation.
    """
    lo, hi = edges[:-1], edges[1:]
    if symbol.kind == "gaussian":
        d = (hi - lo) * (hi + lo)
        return math.pi * float(np.sum(np.abs(np.exp(-(lo**2)) * -np.expm1(-d) - c * d)))
    if symbol.kind != "table":
        g = symbol.profile(0.5 * (lo + hi)) - c
        return math.pi * float(np.sum(np.abs(g) * ((hi - lo) * (hi + lo))))
    phi = symbol.profile(edges)
    lo, hi, g_lo, g_hi = _split_at_zeros(lo, hi, phi[:-1] - c, phi[1:] - c)
    terms = (hi - lo) * (np.abs(g_lo) * (2.0 * lo + hi) + np.abs(g_hi) * (lo + 2.0 * hi))
    return math.pi / 3.0 * float(np.sum(terms))


def _split_at_zeros(lo, hi, g_lo, g_hi):
    """(lo, hi, g_lo, g_hi) with every segment of a line g whose ends differ
    in sign cut at the line's root x = lo + h g_lo / (g_lo - g_hi): the
    segment keeps [lo, x] with ends (g_lo, 0) and [x, hi] with ends (0, g_hi)
    is appended. The callers cut each cell at its centre radius, where
    g = 0, so only a segment beside a knot where the profile turns is cut."""
    turn = np.sign(g_lo) * np.sign(g_hi) < 0.0  # g_lo * g_hi can overflow
    a, b, ga, gb = lo[turn], hi[turn], g_lo[turn], g_hi[turn]
    root = a + (b - a) * (ga / (ga - gb))
    hi = hi.copy()
    hi[turn] = root
    return (np.concatenate([lo, root]), np.concatenate([hi, b]),
            np.concatenate([g_lo, np.zeros_like(root)]),
            np.concatenate([np.where(turn, 0.0, g_hi), gb]))


def discretize(symbol, radial_cells: int, angular_cells: int = 1):
    """Approximate a radial or sampled symbol by a PolarGrid (uniform in
    t = pi r^2 and theta) carrying the cell-center values.

    Returns (grid, l1_error_estimate) where the estimate is int |phi -
    phi_d| dA plus the tail mass beyond the grid. For radial symbols it is
    exact up to rounding: every cell is cut at the profile breakpoints and
    at its centre radius (where phi equals the cell value), so each segment
    holds one constant, linear or gaussian piece, and _abs_mass integrates
    it in closed form, splitting a linear piece at its root where it
    changes sign (only beside a knot where the profile turns). That every
    turn of a builtin profile is one of its breakpoints is what keeps a
    piece from crossing the cell value twice inside one segment. For
    sampled symbols it is a midpoint estimate inflated by 10 percent to
    stay on the conservative side, from 16 x 8 subsamples per cell that
    value_at interpolates with its index work done once per axis.
    """
    if radial_cells < 1 or angular_cells < 1:
        raise ValueError("cell counts must be >= 1")

    if isinstance(symbol, RadialSymbol):
        edges = np.linspace(0.0, math.pi * symbol.support_radius**2, radial_cells + 1)
        r_mid = np.sqrt(0.5 * (edges[:-1] + edges[1:]) / math.pi)
        cvals = np.asarray(symbol.profile(r_mid), dtype=float)

        # The last edge is the support radius itself: sqrt(t / pi) can land
        # an ulp beyond it, where the profile already reads 0.
        radii = np.sqrt(edges / math.pi)
        radii[-1] = symbol.support_radius
        theta_edges = np.linspace(0.0, TWO_PI, angular_cells + 1)
        approx = PolarGrid(radii, theta_edges,
                           np.broadcast_to(cvals[:, None], (radial_cells, angular_cells)))

        # Error: cut every cell at its centre radius, where phi - c is
        # exactly 0, so a monotone piece changes sign only there, and at the
        # breakpoints, so every segment sees one piece of the profile.
        # Segments 2j and 2j + 1 are cell j's; a breakpoint splits the
        # segment that holds it into two of the same cell.
        seg_edges = np.empty(2 * radial_cells + 1)
        seg_edges[0::2], seg_edges[1::2] = radii, r_mid
        seg_cells = np.repeat(np.arange(radial_cells), 2)
        at = np.searchsorted(seg_edges, symbol.breakpoints)
        seg_edges = np.insert(seg_edges, at, symbol.breakpoints)
        seg_cells = np.insert(seg_cells, at - 1, seg_cells[at - 1])
        err = _abs_mass(symbol, seg_edges, cvals[seg_cells])
        return approx, err + symbol.tail_l1_beyond(symbol.support_radius)

    if isinstance(symbol, SampledSymbol):
        t_max = float(symbol.radial.nodes[-1])
        t_edges = np.linspace(0.0, t_max, radial_cells + 1)
        theta_edges = np.linspace(0.0, TWO_PI, angular_cells + 1)
        t_centers = 0.5 * (t_edges[:-1] + t_edges[1:])
        theta_centers = 0.5 * (theta_edges[:-1] + theta_edges[1:])
        cvals = symbol.value_at(t_centers[:, None], theta_centers[None, :])

        approx = PolarGrid(np.sqrt(t_edges / math.pi), theta_edges, cvals)

        # Midpoint subsampling (16 x 8 per cell) of |phi - c|, inflated 10%
        # so the estimate stays above any finer reference measurement.
        sub_t, sub_a = 16, 8
        dt = t_edges[1] - t_edges[0]
        da = theta_edges[1] - theta_edges[0]
        off_t = (np.arange(sub_t) + 0.5) / sub_t * dt
        off_a = (np.arange(sub_a) + 0.5) / sub_a * da
        tt = t_edges[:-1][:, None] + off_t[None, :]          # (cells_t, sub_t)
        aa = theta_edges[:-1][:, None] + off_a[None, :]      # (cells_a, sub_a)
        vals = symbol.value_at(
            tt[:, None, :, None], aa[None, :, None, :]
        )  # (cells_t, cells_a, sub_t, sub_a)
        diff = np.abs(vals - cvals[:, :, None, None])
        cell_means = diff.mean(axis=(2, 3))
        err = float(np.sum(cell_means) * dt * da / TWO_PI)
        return approx, err * 1.10 + 1e-12

    raise TypeError(f"cannot discretize {type(symbol).__name__}")
