"""Measurable plane regions used as symbol pieces.

Two shapes cover every experiment: discs (anywhere in the plane) and annular
sectors centered at the origin. disjoint() decides a whole family in one
sorted sweep over radial bands; between a disc and a sector it decides
conservatively through the disc's polar bounding box, so a True answer is
trustworthy while a False may only mean "could not certify".
region_to_json() and region_from_json() are the one JSON form of a region.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi
_TOL = 1e-12


@dataclass(frozen=True)
class Disc:
    center: complex
    radius: float

    def __post_init__(self):
        c = complex(self.center)
        object.__setattr__(self, "center", c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("disc center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"disc radius must be positive and finite, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2


@dataclass(frozen=True)
class AnnularSector:
    """{r e^{i theta} : r_inner <= r <= r_outer, theta_start <= theta <= theta_end}.

    The angular span must be positive and at most 2pi; a full span makes the
    region an annulus (or a disc when r_inner = 0).
    """

    r_inner: float
    r_outer: float
    theta_start: float
    theta_end: float

    def __post_init__(self):
        if not (math.isfinite(self.r_inner) and math.isfinite(self.r_outer)):
            raise ValueError("sector radii must be finite")
        if not (0.0 <= self.r_inner < self.r_outer):
            raise ValueError(
                f"need 0 <= r_inner < r_outer, got [{self.r_inner}, {self.r_outer}]"
            )
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
    band, and np.searchsorted keeps only the pairs whose bands overlap by
    more than _TOL. Those are tested by center distance for two discs and by
    arc overlap otherwise, one offset k at a time (region i against i + k),
    so memory stays linear in the number of regions. Disc against sector is
    decided through the disc's polar bounding box, so the test is
    conservative: geometrically disjoint pairs may come back False, but True
    is always safe. Fewer than two regions are disjoint without the sweep.
    """
    regions = list(regions)
    if len(regions) < 2:
        return True
    bands = np.array([_radial_band(r) for r in regions]).reshape(-1, 2)
    order = np.argsort(bands[:, 0], kind="stable")
    regions = [regions[k] for k in order]
    lo, hi = bands[order, 0], bands[order, 1]
    arcs = [_angular_arc(r) for r in regions]
    full = np.array([a is None for a in arcs], dtype=bool)
    start, span = np.array([a or (0.0, TWO_PI) for a in arcs]).reshape(-1, 2).T
    disc = np.array([isinstance(r, Disc) for r in regions], dtype=bool)
    center = np.array([r.center if isinstance(r, Disc) else 0j for r in regions], dtype=complex)
    radius = np.array([r.radius if isinstance(r, Disc) else 0.0 for r in regions])

    # Region i meets candidates i + 1 .. i + reach[i] - 1, the later regions
    # whose bands start below hi[i] - _TOL.
    reach = np.searchsorted(lo, hi - _TOL) - np.arange(lo.size)
    for k in range(1, int(reach.max(initial=0))):
        i = np.flatnonzero(reach > k)
        j = i + k
        bands_meet = np.minimum(hi[i], hi[j]) - lo[j] > _TOL
        discs_apart = np.abs(center[i] - center[j]) >= radius[i] + radius[j] - _TOL
        s = (start[j] - start[i]) % TWO_PI
        arc_overlap = sum(
            np.maximum(0.0, np.minimum(span[i], shift + span[j]) - np.maximum(0.0, shift))
            for shift in (s, s - TWO_PI)
        )
        arcs_apart = ~full[i] & ~full[j] & (arc_overlap <= _TOL)
        if np.any(bands_meet & ~np.where(disc[i] & disc[j], discs_apart, arcs_apart)):
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


def region_from_json(data: dict) -> Region:
    """The region of a region_to_json dict; other keys are ignored."""
    if "disc" in data:
        spec = data["disc"]
        return Disc(complex(spec["center"][0], spec["center"][1]), float(spec["radius"]))
    if "sector" in data:
        spec = data["sector"]
        return AnnularSector(float(spec["r"][0]), float(spec["r"][1]),
                             float(spec["theta"][0]), float(spec["theta"][1]))
    raise ValueError("piece must have a 'disc' or 'sector' entry")
