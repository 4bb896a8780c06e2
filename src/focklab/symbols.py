"""Bounded symbols described by structured data.

Three classes cover the lab's needs:

- SimpleSymbol: a finite combination sum_k c_k 1_{Omega_k} with real
  coefficients and pairwise disjoint regions (checked at construction).
- RadialSymbol: phi(z) = profile(|z|) with a declared sup bound and an
  explicit integrability witness: compactly supported profiles carry their
  support radius, the gaussian carries an effective support plus an analytic
  tail formula.
- SampledSymbol: real values tabulated on a product-rule grid, read off by
  bilinear interpolation in (t, theta) with t = pi r^2.

L1 norms are plain Lebesgue integrals int |phi| dA. In the t coordinate a
radial profile integrates as int |phi(sqrt(t/pi))| dt, which is how all the
radial quadrature below is written.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .quadrature import ProductRule, gauss_legendre
from .regions import (
    TWO_PI,
    AnnularSector,
    Disc,
    area,
    disjoint,
    region_from_json,
    region_to_json,
)

# Effective support of the gaussian builtin: the analytic tail pi e^{-r^2}
# beyond 4.8 is ~3.1e-10, small enough for every tolerance in the lab while
# keeping coarse discretization grids usable.
GAUSSIAN_SUPPORT = 4.8

# RadialSymbol.panels: Gauss-Legendre order and the widest panel in r.
_PANEL_ORDER = 64
_PANEL_WIDTH = 5.0

# discretize refuses a symbol whose L1 mass beyond its support exceeds this.
_TAIL_TOL = 1e-6

__all__ = [
    "SimpleSymbol",
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
        return float(sum(abs(c) * area(r) for r, c in self.pieces))

    def linf_norm(self) -> float:
        return float(max((abs(c) for _, c in self.pieces), default=0.0))

    def scaled(self, factor: float) -> "SimpleSymbol":
        return SimpleSymbol(tuple((r, c * factor) for r, c in self.pieces))

    def to_json_dict(self) -> dict:
        return {"pieces": [{**region_to_json(region), "coeff": coeff}
                           for region, coeff in self.pieces]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimpleSymbol":
        pieces = []
        for entry in data["pieces"]:
            coeff = float(entry["coeff"])
            pieces.append((region_from_json(entry), coeff))
        return cls(tuple(pieces))

    @classmethod
    def from_json(cls, text: str) -> "SimpleSymbol":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class RadialSymbol:
    """phi(z) = profile(|z|) with declared sup bound and support data.

    breakpoints lists the radii (interior to the support) where the profile
    is not smooth; quadrature and discretization split there so no rule ever
    straddles a jump or kink.
    """

    kind: str
    linf: float
    support_radius: float
    breakpoints: tuple
    params: dict = field(repr=False)
    profile_fn: Callable = field(repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.linf) and self.linf >= 0.0):
            raise ValueError("linf bound must be finite and >= 0")
        if not (math.isfinite(self.support_radius) and self.support_radius > 0.0):
            raise ValueError("support radius must be positive and finite")
        # Spot-check the declared bound on a sample grid.
        r = np.linspace(0.0, self.support_radius, 513)
        vals = self.profile(r)
        if np.max(np.abs(vals)) > self.linf * (1.0 + 1e-12) + 1e-300:
            raise ValueError("profile exceeds its declared sup bound")

    def profile(self, r):
        """Profile values at radii r (vectorized)."""
        return self.profile_fn(np.asarray(r, dtype=float))

    def profile_t(self, t):
        """Profile in the t = pi r^2 coordinate."""
        return self.profile(np.sqrt(np.asarray(t, dtype=float) / math.pi))

    def tail_l1_beyond(self, r: float) -> float:
        """Closed-form int_{|z| > r} |phi| dA (zero for compact profiles)."""
        if self.kind == "gaussian":
            return math.pi * math.exp(-(r**2))
        return 0.0

    def linf_norm(self) -> float:
        return self.linf

    def panels(self):
        """(r, w): order-64 Gauss-Legendre nodes and weights in r on each
        panel between consecutive edges 0, breakpoints..., support_radius, so
        no panel straddles a jump or kink. An interval wider than 5 is split
        evenly into panels at most 5 wide. The rule does not depend on N:
        r^{2n+1} e^{-pi r^2} is a bump about 0.3 wide for every n, and order 64
        resolves it on any such panel."""
        edges = [0.0] + [float(b) for b in self.breakpoints] + [self.support_radius]
        for a, b in zip(edges[:-1], edges[1:]):
            if b > a:
                cuts = np.linspace(a, b, math.ceil((b - a) / _PANEL_WIDTH) + 1).tolist()
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    yield gauss_legendre(_PANEL_ORDER, lo, hi)

    def l1_norm(self) -> float:
        """2pi int |phi(r)| r dr on the breakpoint panels, plus the analytic
        tail. Sign changes sit on breakpoints, so every panel integrand is
        smooth."""
        total = 0.0
        for r, w in self.panels():
            total += TWO_PI * float(np.dot(w * r, np.abs(self.profile(r))))
        return total + self.tail_l1_beyond(self.support_radius)

    # --- builtins ---

    @classmethod
    def disc(cls, radius: float, height: float = 1.0) -> "RadialSymbol":
        """annulus(0, radius, height) under kind "disc" and its own params."""
        radius = float(radius)
        height = float(height)
        if radius <= 0:
            raise ValueError("disc radius must be positive")
        return replace(cls.annulus(0.0, radius, height), kind="disc",
                       params={"radius": radius, "height": height})

    @classmethod
    def annulus(cls, r_inner: float, r_outer: float, height: float = 1.0) -> "RadialSymbol":
        r_inner = float(r_inner)
        r_outer = float(r_outer)
        height = float(height)
        if not (0.0 <= r_inner < r_outer):
            raise ValueError("need 0 <= r_inner < r_outer")

        def prof(r):
            return np.where((r >= r_inner) & (r <= r_outer), height, 0.0)

        breaks = (r_inner,) if r_inner > 0.0 else ()
        return cls(
            kind="annulus",
            linf=abs(height),
            support_radius=r_outer,
            breakpoints=breaks,
            params={"r_inner": r_inner, "r_outer": r_outer, "height": height},
            profile_fn=prof,
        )

    @classmethod
    def gaussian(cls) -> "RadialSymbol":
        def prof(r):
            return np.exp(-(r**2))

        return cls(
            kind="gaussian",
            linf=1.0,
            support_radius=GAUSSIAN_SUPPORT,
            breakpoints=(),
            params={},
            profile_fn=prof,
        )

    @classmethod
    def table(cls, radii: Sequence[float], values: Sequence[float]) -> "RadialSymbol":
        """Piecewise linear profile through (radii, values); constant left of
        the first knot, zero beyond the last."""
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.size < 2 or radii.shape != values.shape:
            raise ValueError("need matching 1-d knot and value arrays, length >= 2")
        if radii[0] < 0.0 or np.any(np.diff(radii) <= 0.0):
            raise ValueError("knot radii must be nonnegative and strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("knot values must be finite")
        support = float(radii[-1])

        def prof(r):
            out = np.interp(r, radii, values)
            return np.where(np.asarray(r) > support, 0.0, out)

        # Interior knots are kinks; sign changes of the interpolant add exact
        # crossing radii so |phi| stays smooth between breakpoints.
        breaks = set(float(b) for b in radii[:-1] if 0.0 < b < support)
        for (r0, r1, v0, v1) in zip(radii[:-1], radii[1:], values[:-1], values[1:]):
            if v0 * v1 < 0.0:
                breaks.add(float(r0 + (r1 - r0) * (0.0 - v0) / (v1 - v0)))
        return cls(
            kind="table",
            linf=float(np.max(np.abs(values))),
            support_radius=support,
            breakpoints=tuple(sorted(breaks)),
            params={"radii": radii.tolist(), "values": values.tolist()},
            profile_fn=prof,
        )

    def to_json_dict(self) -> dict:
        return {"radial": {"profile": self.kind, **self.params}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RadialSymbol":
        spec = dict(data["radial"])
        kind = spec.pop("profile")
        if kind == "disc":
            return cls.disc(spec["radius"], spec.get("height", 1.0))
        if kind == "annulus":
            return cls.annulus(spec["r_inner"], spec["r_outer"], spec.get("height", 1.0))
        if kind == "gaussian":
            return cls.gaussian()
        if kind == "table":
            return cls.table(spec["radii"], spec["values"])
        raise ValueError(f"unknown radial profile: {kind!r}")


@dataclass(frozen=True, eq=False)
class SampledSymbol:
    """Real symbol values on a product-rule grid (radial Laguerre nodes in t,
    uniform angular nodes), with a declared sup bound.

    Between radial nodes the symbol is read by linear interpolation in t
    (flat from t = 0 to the first node, zero beyond the last node); the
    angular direction interpolates periodically.
    """

    rule: ProductRule
    values: np.ndarray
    linf: float

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        expected = (self.rule.radial.count, self.rule.angular.count)
        if vals.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        if not (math.isfinite(self.linf) and self.linf >= 0.0):
            raise ValueError("linf bound must be finite and >= 0")
        if vals.size and np.max(np.abs(vals)) > self.linf * (1.0 + 1e-12) + 1e-300:
            raise ValueError("samples exceed the declared sup bound")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def linf_norm(self) -> float:
        return self.linf

    def l1_norm(self) -> float:
        """int |phi| dA by the grid's own rule, using the Lebesgue-scaled
        radial weights w_j e^{t_j}."""
        row_means = np.sum(np.abs(self.values), axis=1) / self.rule.angular.count
        return float(np.dot(self.rule.radial.scaled_weights, row_means))

    def value_at(self, t, theta):
        """Bilinear interpolation on the (t, theta) grid (vectorized)."""
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        t, theta = np.broadcast_arrays(t, theta)
        nodes = self.rule.radial.nodes
        m = self.rule.angular.count
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


def _bisect_crossing(phi: Callable, c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Crossing radii of phi(r) = c on segments where the signs differ at the
    endpoints (phi monotone per segment). Vectorized bisection."""
    g_lo = phi(lo) - c
    a = lo.copy()
    b = hi.copy()
    for _ in range(60):
        mid = 0.5 * (a + b)
        g_mid = phi(mid) - c
        left = (g_lo * g_mid) > 0.0
        a = np.where(left, mid, a)
        g_lo = np.where(left, g_mid, g_lo)
        b = np.where(left, b, mid)
    return 0.5 * (a + b)


def _segments_abs_integral(phi: Callable, c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """sum over radial segments of 2pi int_lo^hi |phi(r) - c| r dr, splitting
    each segment at the (single, by monotonicity) sign change when there is
    one. Polynomial profile pieces are integrated exactly."""
    x, w = gauss_legendre(16, -1.0, 1.0)
    g_lo = phi(lo) - c
    g_hi = phi(hi) - c
    crossing = (g_lo * g_hi) < 0.0
    split = hi.astype(float).copy()
    if np.any(crossing):
        split[crossing] = _bisect_crossing(phi, c[crossing], lo[crossing], hi[crossing])

    total = 0.0
    for a, b in ((lo, split), (split, hi)):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        nodes = mid[:, None] + half[:, None] * x[None, :]
        vals = np.abs(phi(nodes) - c[:, None]) * nodes
        total += float(np.dot(half, vals @ w))
    return TWO_PI * total


def _polar_cells(radii: np.ndarray, theta_edges: np.ndarray, values: np.ndarray) -> SimpleSymbol:
    """One AnnularSector piece per cell (j, i) of the polar grid with these
    radial and angular edges, radial index outer, with coefficient values[j, i].
    Edges go in as Python floats: np.float64 fields slow every later use of
    the cells (validation, l1_norm, assemble's per-piece bookkeeping)."""
    radii, theta_edges = radii.tolist(), theta_edges.tolist()
    return SimpleSymbol(tuple(
        (AnnularSector(radii[j], radii[j + 1], theta_edges[i], theta_edges[i + 1]),
         float(values[j, i]))
        for j in range(len(radii) - 1) for i in range(len(theta_edges) - 1)
    ))


def discretize(symbol, radial_cells: int, angular_cells: int = 1):
    """Approximate a radial or sampled symbol by a SimpleSymbol on a polar
    grid (uniform in t = pi r^2 and theta), one piece per cell with the
    cell-center value as coefficient.

    Returns (simple_symbol, l1_error_estimate) where the estimate is the
    quadrature of |phi - phi_d| dA plus the tail mass beyond the grid. For
    radial symbols the estimate splits every cell at profile breakpoints and
    sign changes, so it is accurate to quadrature precision; for sampled
    symbols it is a midpoint estimate inflated by 10 percent to stay on the
    conservative side. A radial symbol whose L1 mass beyond its support
    exceeds 1e-6 raises ValueError.
    """
    if radial_cells < 1 or angular_cells < 1:
        raise ValueError("cell counts must be >= 1")

    if isinstance(symbol, RadialSymbol):
        tail = symbol.tail_l1_beyond(symbol.support_radius)
        if tail > _TAIL_TOL:
            raise ValueError(
                f"tail mass {tail:.3e} beyond the declared support exceeds "
                f"the limit {_TAIL_TOL:.0e}"
            )
        edges = np.linspace(0.0, math.pi * symbol.support_radius**2, radial_cells + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        cvals = np.asarray(symbol.profile_t(centers), dtype=float)

        radii = np.sqrt(edges / math.pi)
        theta_edges = np.linspace(0.0, TWO_PI, angular_cells + 1)
        approx = _polar_cells(radii, theta_edges,
                              np.broadcast_to(cvals[:, None], (radial_cells, angular_cells)))

        # Error estimate: split cells at breakpoints so each integration
        # segment sees a smooth monotone profile piece.
        r_breaks = np.asarray([float(b) for b in symbol.breakpoints], dtype=float)
        seg_edges = np.unique(np.concatenate([radii, r_breaks]))
        seg_edges = seg_edges[(seg_edges >= 0.0) & (seg_edges <= radii[-1])]
        lo = seg_edges[:-1]
        hi = seg_edges[1:]
        cell_idx = np.clip(
            np.searchsorted(radii, 0.5 * (lo + hi), side="right") - 1,
            0,
            radial_cells - 1,
        )
        err = _segments_abs_integral(symbol.profile, cvals[cell_idx], lo, hi)
        return approx, err + tail

    if isinstance(symbol, SampledSymbol):
        t_max = float(symbol.rule.radial.nodes[-1])
        t_edges = np.linspace(0.0, t_max, radial_cells + 1)
        theta_edges = np.linspace(0.0, TWO_PI, angular_cells + 1)
        t_centers = 0.5 * (t_edges[:-1] + t_edges[1:])
        theta_centers = 0.5 * (theta_edges[:-1] + theta_edges[1:])
        cvals = symbol.value_at(t_centers[:, None], theta_centers[None, :])

        approx = _polar_cells(np.sqrt(t_edges / math.pi), theta_edges, cvals)

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
