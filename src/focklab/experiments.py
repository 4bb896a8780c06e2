"""Inequality verification experiments and their report format.

Every experiment produces VerificationReport rows with the one-sided
contract lhs <= rhs + slack (margin = rhs - lhs). Equalities are encoded in
the same contract as lhs = |difference| against rhs = 0, flagged by
metadata["equality"] = True, so a single report row type covers both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .fock import FockFunction, coherent
from .regions import TWO_PI, AnnularSector, Disc, Region, area, region_to_json
from .symbols import RadialSymbol, SimpleSymbol, discretize
from .toeplitz import _quadratic_form, assemble, operator_norm, region_compression, top_eigenpair

DEFAULT_SLACK = 1e-10
NORM_SLACK = 1e-8

__all__ = [
    "VerificationReport",
    "WeightedPartition",
    "make_report",
    "symbol_norm_bound",
    "verify_concentration",
    "verify_weighted_partition",
    "verify_norm_bound",
    "sharpness_experiment",
    "approximation_experiment",
    "random_region",
    "random_partition",
    "random_symbol",
]


@dataclass(frozen=True)
class VerificationReport:
    """One verified inequality: holds iff lhs <= rhs + slack."""

    experiment: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    slack: float
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The fields by name, in order; metadata is shared, not copied."""
        return dict(vars(self))


def make_report(experiment: str, lhs: float, rhs: float, slack: float,
                metadata: dict | None = None) -> VerificationReport:
    lhs = float(lhs)
    rhs = float(rhs)
    margin = rhs - lhs
    return VerificationReport(
        experiment=experiment,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        holds=bool(margin >= -slack),
        slack=float(slack),
        metadata=metadata or {},
    )


def _require_unit(f: FockFunction) -> None:
    if abs(f.norm() - 1.0) > 1e-12:
        raise ValueError(f"function must be unit-normalized, norm = {f.norm()!r}")


def _region_mass(f: FockFunction, region: Region) -> float:
    """int_region |f|^2 dlambda as the quadratic form of the region's compression."""
    return _quadratic_form(region_compression(region, f.truncation), f.coeffs)


@dataclass(frozen=True, eq=False)
class WeightedPartition(SimpleSymbol):
    """A simple symbol sum_k eps_k 1_{Omega_k} with weights eps_k in [0, 1]:
    its l1_norm is the weighted area, and <T_phi f, f> is the left-hand side
    of the weighted-partition inequality."""

    def __post_init__(self):
        super().__post_init__()
        bad = [eps for _, eps in self.pieces if not 0.0 <= eps <= 1.0]
        if bad:
            raise ValueError(f"weights must lie in [0, 1], got {bad[0]}")


def symbol_norm_bound(l1: float, linf: float) -> float:
    """The operator-norm bound linf * (1 - exp(-l1 / linf)).

    linf = 0 forces the zero symbol, so the bound is 0 by convention; the
    expression is computed through expm1 so tiny ratios lose no precision.
    """
    l1 = float(l1)
    linf = float(linf)
    if l1 < 0.0 or linf < 0.0:
        raise ValueError("norms must be nonnegative")
    if linf == 0.0:
        return 0.0
    return linf * (-math.expm1(-l1 / linf))


def verify_concentration(f: FockFunction, region: Region) -> VerificationReport:
    """int_Omega |f|^2 dlambda <= 1 - e^{-|Omega|} for unit f."""
    _require_unit(f)
    n = f.truncation
    lhs = _region_mass(f, region)
    a = area(region)
    rhs = -math.expm1(-a)
    return make_report(
        "concentration", lhs, rhs, DEFAULT_SLACK,
        metadata={"region": region_to_json(region), "area": a, "truncation": n},
    )


def verify_weighted_partition(f: FockFunction, partition: WeightedPartition) -> VerificationReport:
    """sum_k eps_k int_{Omega_k} |f|^2 dlambda <= 1 - exp(-sum_k eps_k |Omega_k|)."""
    _require_unit(f)
    n = f.truncation
    integrals = [_region_mass(f, region) for region, _ in partition.pieces]
    lhs = sum(eps * val for (_, eps), val in zip(partition.pieces, integrals))
    weighted_area = partition.l1_norm()
    rhs = -math.expm1(-weighted_area)
    meta = {
        "pieces": [
            {**region_to_json(region), "weight": eps, "integral": val}
            for (region, eps), val in zip(partition.pieces, integrals)
        ],
        "weighted_area": weighted_area,
        "truncation": n,
    }
    return make_report("weighted-partition", float(lhs), rhs, DEFAULT_SLACK, metadata=meta)


def verify_norm_bound(symbol, truncation: int) -> VerificationReport:
    """Measured compression norm against the closed-form symbol bound."""
    lhs = operator_norm(assemble(symbol, truncation))
    l1 = symbol.l1_norm()
    linf = symbol.linf_norm()
    rhs = symbol_norm_bound(l1, linf)
    return make_report(
        "norm-bound", lhs, rhs, NORM_SLACK,
        metadata={"l1": l1, "linf": linf, "truncation": truncation},
    )


def sharpness_experiment(center: complex, radius: float, truncation: int) -> list:
    """Disc indicators meet the norm bound: the state concentrated at the
    disc center achieves it.

    Produces three reports: the quadratic form at the concentrated state
    equals the bound (encoded as |difference| <= 0 + slack), the quadratic
    form sits below the measured norm, and the measured norm sits below the
    bound. Together they pin the norm to the bound from both sides.
    """
    center = complex(center)
    disc = Disc(center, radius)
    phi = SimpleSymbol(((disc, 1.0),))
    state = coherent(center, truncation)
    bound = symbol_norm_bound(disc.area, 1.0)
    matrix = assemble(phi, truncation)
    ray = _quadratic_form(matrix.data, state.coeffs)
    lam, vec = top_eigenpair(matrix)
    norm = abs(lam)
    overlap = abs(np.vdot(vec, state.coeffs))

    meta = {
        "center": [center.real, center.imag],
        "radius": radius,
        "area": disc.area,
        "truncation": truncation,
    }
    return [
        make_report(
            "sharpness-rayleigh-equality", abs(ray - bound), 0.0, DEFAULT_SLACK,
            metadata={**meta, "equality": True, "rayleigh": ray, "bound": bound},
        ),
        make_report(
            "sharpness-rayleigh-below-norm", ray, norm, NORM_SLACK,
            metadata={**meta, "norm": norm},
        ),
        make_report(
            "sharpness-norm-below-bound", norm, bound, NORM_SLACK,
            metadata={**meta, "eigvec_overlap": float(overlap),
                      "top_eigenvalue": lam},
        ),
    ]


def approximation_experiment(symbol, grids, truncation: int) -> list:
    """Discretize a symbol on a refining family of grids and verify the
    composite bound chain at every stage.

    For each grid size m the symbol is replaced by a piecewise-constant
    approximant phi_m (m^2 radial cells for radial symbols, m x m polar cells
    for sampled ones) with an L1 error estimate err_m. Stage reports check
    the compression norm of phi_m against its own closed-form bound; the
    composite bound(l1(phi_m), linf(phi)) + err_m, nondecreasing in linf
    with linf(phi) >= linf(phi_m), dominates the true symbol's norm.
    The final composite must land within 5e-3 of the exact closed-form bound.
    """
    grids = [int(m) for m in grids]
    if not grids or any(m < 1 for m in grids):
        raise ValueError("grid sizes must be positive")
    if any(g2 <= g1 for g1, g2 in zip(grids, grids[1:])):
        raise ValueError("grid sizes must be strictly increasing")

    radial = isinstance(symbol, RadialSymbol)
    true_norm = operator_norm(assemble(symbol, truncation))
    exact_bound = symbol_norm_bound(symbol.l1_norm(), symbol.linf_norm())

    reports = []
    errors = []
    composites = []
    for m in grids:
        if radial:
            approx, err = discretize(symbol, m * m, 1)
        else:
            approx, err = discretize(symbol, m, m)
        stage = verify_norm_bound(approx, truncation)
        composite = symbol_norm_bound(stage.metadata["l1"], symbol.linf_norm()) + err
        errors.append(err)
        composites.append(composite)
        reports.append(
            replace(
                stage, experiment="approx-stage-bound",
                metadata={
                    "grid": m,
                    "cells": approx.values.size,
                    "l1": stage.metadata["l1"],
                    "linf": stage.metadata["linf"],
                    "l1_error_estimate": err,
                    "composite_bound": composite,
                },
            )
        )

    ratios = []
    for prev, nxt in zip(errors[:-1], errors[1:]):
        if prev > 0.0:
            ratios.append(nxt / prev)
        else:
            ratios.append(0.0 if nxt == 0.0 else math.inf)
    reports.append(
        make_report(
            "approx-monotone-error", max(ratios, default=0.0), 1.0, 0.0,
            metadata={"errors": errors, "grids": grids},
        )
    )
    reports.append(
        make_report(
            "approx-composite-dominates", true_norm, min(composites), NORM_SLACK,
            metadata={"true_norm": true_norm, "composites": composites},
        )
    )
    reports.append(
        make_report(
            "approx-convergence", abs(composites[-1] - exact_bound), 0.0,
            5e-3,
            metadata={"equality": True, "exact_bound": exact_bound,
                      "final_composite": composites[-1]},
        )
    )
    return reports


# ---------------------------------------------------------------------------
# randomized inputs for verification suites


def random_region(rng: np.random.Generator) -> Region:
    """A random disc or annular sector with moderate size."""
    if rng.uniform() < 0.5:
        center = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        return Disc(center, float(rng.uniform(0.2, 1.2)))
    r_inner = float(rng.uniform(0.0, 1.5))
    r_outer = r_inner + float(rng.uniform(0.2, 1.5))
    if rng.uniform() < 0.1:
        return AnnularSector(r_inner, r_outer, 0.0, TWO_PI)
    start = float(rng.uniform(0.0, TWO_PI))
    span = float(rng.uniform(0.3, TWO_PI - 0.1))
    return AnnularSector(r_inner, r_outer, start, start + span)


def _random_lattice_pieces(rng: np.random.Generator, min_pieces: int, max_pieces: int,
                           low: float) -> tuple:
    """Between min_pieces and max_pieces cells of a random polar lattice (3
    radial bands x 4 angular arcs, so disjoint by construction), each with a
    coefficient uniform in [low, 1]."""
    r_edges = np.cumsum(rng.uniform(0.2, 0.8, size=4))
    theta0 = rng.uniform(0.0, TWO_PI)
    theta_edges = theta0 + np.concatenate(
        [[0.0], np.sort(rng.uniform(0.0, TWO_PI, size=3)), [TWO_PI]]
    )
    cells = []
    for i in range(3):
        for j in range(4):
            if theta_edges[j + 1] - theta_edges[j] <= 1e-9:
                continue
            cells.append(
                AnnularSector(float(r_edges[i]), float(r_edges[i + 1]),
                              float(theta_edges[j]), float(theta_edges[j + 1]))
            )
    count = min(int(rng.integers(min_pieces, max_pieces + 1)), len(cells))
    chosen = rng.choice(len(cells), size=count, replace=False)
    return tuple((cells[int(i)], float(rng.uniform(low, 1.0))) for i in sorted(chosen))


def random_partition(rng: np.random.Generator, max_pieces: int = 5) -> WeightedPartition:
    """Random weighted pieces on a polar lattice, weights uniform in [0, 1]."""
    return WeightedPartition(_random_lattice_pieces(rng, 1, max_pieces, 0.0))


def random_symbol(rng: np.random.Generator, max_pieces: int = 5) -> SimpleSymbol:
    """Random mixed-sign simple symbol on a polar lattice, coefficients
    uniform in [-1, 1]."""
    return SimpleSymbol(_random_lattice_pieces(rng, 2, max_pieces, -1.0))
