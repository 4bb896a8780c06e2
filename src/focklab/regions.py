"""Measurable plane regions used as symbol pieces.

Two shapes cover every experiment: discs (anywhere in the plane) and annular
sectors centered at the origin. disjoint() decides a whole family in one
plain sorted sweep over radial bands, pair by pair in Python (callers pass a
handful of regions; polar grids check their own edges and never call it);
between a disc and a sector it decides conservatively through the disc's
polar bounding box, so a True answer is trustworthy while a False may only
mean "could not certify".
region_to_json() writes a region's JSON form; cli.load_symbol reads it.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Union

TWO_PI = 2.0 * math.pi
_TOL = 1e-12
R_MAX = math.sqrt(sys.float_info.max / math.pi)  # about the largest r with pi r^2 finite


def _check_radius(name: str, r: float) -> None:
    if not math.isfinite(math.pi * r * r):
        raise ValueError(f"{name} must be at most {R_MAX:.4g}, where pi r^2 stays finite; got {r}")


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float

    def __post_init__(self):
        c = complex(self.center)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("disc center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"disc radius must be positive and finite, got {self.radius}")
        _check_radius("disc radius", self.radius)
        _check_radius("disc |center|", abs(c))

    @property
    def area(self) -> float:
        return math.pi * self.radius**2


@dataclass(frozen=True)
class AnnularSector:
    """{r e^{i theta} : r_inner <= r <= r_outer, theta_start <= theta <= theta_end}.

    The angular span must be positive and at most 2pi; a full span makes the
    region an annulus (or a disc when r_inner = 0). The radii and angles
    are stored as float, as a disc's radius is.
    """

    r_inner: float
    r_outer: float
    theta_start: float
    theta_end: float

    def __post_init__(self):
        for name in ("r_inner", "r_outer", "theta_start", "theta_end"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.r_inner) and math.isfinite(self.r_outer)):
            raise ValueError("sector radii must be finite")
        if not (0.0 <= self.r_inner < self.r_outer):
            raise ValueError(
                f"need 0 <= r_inner < r_outer, got [{self.r_inner}, {self.r_outer}]"
            )
        _check_radius("sector r_outer", self.r_outer)
        if not (math.isfinite(self.theta_start) and math.isfinite(self.theta_end)):
            raise ValueError("sector angles must be finite")
        span = self.theta_end - self.theta_start
        if not (0.0 < span <= TWO_PI + _TOL):
            raise ValueError(f"angular span must lie in (0, 2pi], got {span}")

    @property
    def span(self) -> float:
        return min(self.theta_end - self.theta_start, TWO_PI)

    @property
    def full_span(self) -> bool:
        return self.theta_end - self.theta_start >= TWO_PI - _TOL

    @property
    def area(self) -> float:
        return 0.5 * self.span * (self.r_outer**2 - self.r_inner**2)


Region = Union[Disc, AnnularSector]


def area(region: Region) -> float:
    """Lebesgue area of a region."""
    if isinstance(region, (Disc, AnnularSector)):
        return region.area
    raise TypeError(f"unsupported region type: {type(region).__name__}")


def _radial_band(region: Region) -> tuple[float, float]:
    if isinstance(region, AnnularSector):
        return region.r_inner, region.r_outer
    dist = abs(region.center)
    return max(0.0, dist - region.radius), dist + region.radius


def _angular_arc(region: Region) -> tuple[float, float] | None:
    """(start, span) of an arc covering the region, or None for all angles."""
    if isinstance(region, AnnularSector):
        if region.full_span:
            return None
        return region.theta_start % TWO_PI, region.span
    dist = abs(region.center)
    if dist <= region.radius + _TOL:
        return None  # contains (or touches) the origin: every angle occurs
    half = math.asin(min(1.0, region.radius / dist))
    return (cmath.phase(region.center) - half) % TWO_PI, 2.0 * half


def disjoint(regions) -> bool:
    """True iff all pairwise intersections have measure zero (certified).

    One sorted sweep: regions are ordered by the lower edge of their radial
    band, and each region is tested against the later ones until a band
    starts at or above its upper edge minus _TOL. A pair whose bands overlap
    by more than _TOL is tested by center distance for two discs and by arc
    overlap otherwise. Disc against sector is decided through the disc's
    polar bounding box, so the test is conservative: geometrically disjoint
    pairs may come back False, but True is always safe. Fewer than two
    regions are disjoint without the sweep.
    """
    regions = list(regions)
    if len(regions) < 2:
        return True
    swept = sorted(((_radial_band(r), _angular_arc(r), r) for r in regions),
                   key=lambda item: item[0][0])
    for i, ((_, hi), arc, region) in enumerate(swept):
        for j in range(i + 1, len(swept)):
            (lo_j, hi_j), arc_j, other = swept[j]
            if lo_j >= hi - _TOL:
                break
            if min(hi, hi_j) - lo_j <= _TOL:
                continue
            if isinstance(region, Disc) and isinstance(other, Disc):
                if abs(region.center - other.center) < region.radius + other.radius - _TOL:
                    return False
                continue
            if arc is None or arc_j is None:
                return False
            # With arc at [0, span], the other arc starts at s in [0, 2pi] and
            # its part past 2pi wraps round to start at s - 2pi <= 0.
            s = (arc_j[0] - arc[0]) % TWO_PI
            if (max(0.0, min(arc[1], s + arc_j[1]) - s)
                    + max(0.0, min(arc[1], s - TWO_PI + arc_j[1])) > _TOL):
                return False
    return True


def region_to_json(region: Region) -> dict:
    """{"disc": {"center": [re, im], "radius": r}} or
    {"sector": {"r": [r_inner, r_outer], "theta": [start, end]}}."""
    if isinstance(region, Disc):
        return {"disc": {"center": [region.center.real, region.center.imag],
                         "radius": region.radius}}
    return {"sector": {"r": [region.r_inner, region.r_outer],
                       "theta": [region.theta_start, region.theta_end]}}

