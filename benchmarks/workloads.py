"""Seeded verification cases for the three benchmark workloads.

A case is one closed-loop unit of work: `run()` makes the focklab calls that
are timed, and `check(output)` compares what came back with references that
were frozen while the case was built (see oracles.py), returning one reason
string per miss. Cases reach focklab through module attributes at call time
(`fl.verify_concentration`, `fl.cli.main`, ...), so a traced run sees every
call through the timing wrappers.

Each workload repeats a fixed cycle of case kinds with fresh random inputs
in every cycle. Runs stop only at cycle boundaries, so every run measures
the same mix of kinds whatever its length. The cheap, frequent cases draw
their size from a range, so that case times spread smoothly and a latency
quantile does not sit on a tight cluster of equal-sized cases.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.special import roots_laguerre

import focklab as fl
import focklab.cli  # noqa: F401  (binds fl.cli)

import oracles

# Tolerances of the checks, frozen here rather than read from focklab.
NORM_SLACK = 1e-8        # reported norm against the eigvalsh reference
EQUALITY_SLACK = 1e-10   # coherent-state equality cases
UNION_SLACK = 1e-12      # weight-one partition against the union region
DIAGONAL_SLACK = 1e-12   # closed-form diagonals

# The one failure the program is known to have (ROADMAP item 1): power
# iteration returns a lower estimate of the norm when the spectrum is close
# to symmetric. Such misses count as failures but do not make a run
# incorrect; every other miss does.
KNOWN_DEFECT = "norm-under"

@dataclass
class Case:
    id: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


def norm_miss(label: str, reported: float, reference: float) -> list:
    diff = float(reported) - reference
    if abs(diff) <= NORM_SLACK:
        return []
    code = "norm-under" if diff < 0.0 else "norm-over"
    return [f"{code}: {label} reported {float(reported):.12g}, eigvalsh {reference:.12g}"]


def holds(report) -> list:
    return [] if report.holds else [f"holds-false: {report.experiment} margin {report.margin:.3e}"]


def diagonal_miss(label: str, matrix: np.ndarray, reference: np.ndarray) -> list:
    err = float(np.max(np.abs(np.diag(matrix) - reference)))
    off = float(np.max(np.abs(matrix - np.diag(np.diag(matrix)))))
    if max(err, off) <= DIAGONAL_SLACK:
        return []
    return [f"diagonal: {label} off by {err:.3e} (off-diagonal {off:.3e})"]


def _uniform_disc_point(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.uniform())
    return complex(r * np.exp(1j * rng.uniform(0.0, oracles.TWO_PI)))


def _random_unit(rng: np.random.Generator, truncation: int):
    return fl.random_unit(rng, degree=int(rng.integers(0, 26)), truncation=truncation)


# ---------------------------------------------------------------------------
# concentration: verify_concentration / verify_weighted_partition


# Truncation bands: two draws below the fixed quadrature order floors
# (radial 64 and angular 128 up to N = 56) for each case at N = 96, above
# them. The heavy N = 96 cases set case_ms_p90, so their size and their
# piece counts are fixed per cycle rather than drawn.
CONCENTRATION_BANDS = ((32, 56), (32, 56), (96, 96))
CONCENTRATION_SLOTS = ("random", "coherent", "partition", "union", "random")


def _conc_random(rng, n):
    f = _random_unit(rng, n)
    region = fl.random_region(rng)
    return (lambda: fl.verify_concentration(f, region)), holds


def _conc_coherent(rng, n):
    center = _uniform_disc_point(rng, 1.2)
    radius = float(rng.uniform(0.3, 1.2))
    expected = -math.expm1(-math.pi * radius**2)

    def run():
        return fl.verify_concentration(fl.coherent(center, n), fl.Disc(center, radius))

    def check(rep):
        miss = holds(rep)
        if abs(rep.lhs - expected) > EQUALITY_SLACK:
            miss.append(f"equality: coherent {rep.lhs:.15g} vs 1-exp(-pi r^2) {expected:.15g}")
        return miss

    return run, check


def _conc_partition(rng, n, pieces):
    while True:  # the generator draws the piece count itself; keep the asked one
        partition = fl.random_partition(rng, max_pieces=pieces)
        if len(partition.pieces) == pieces:
            break
    f = _random_unit(rng, n)
    return (lambda: fl.verify_weighted_partition(f, partition)), holds


def _conc_union(rng, n, k):
    r_in = float(rng.uniform(0.0, 1.2))
    r_out = r_in + float(rng.uniform(0.3, 1.2))
    start = float(rng.uniform(0.0, oracles.TWO_PI))
    span = oracles.TWO_PI if rng.uniform() < 0.25 else float(rng.uniform(1.0, oracles.TWO_PI))
    cuts = start + np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, k - 1)) * span, [span]])
    union = fl.AnnularSector(r_in, r_out, start, start + span)
    partition = fl.WeightedPartition(tuple(
        (fl.AnnularSector(r_in, r_out, float(a), float(b)), 1.0) for a, b in zip(cuts[:-1], cuts[1:])
    ))
    f = _random_unit(rng, n)

    def run():
        return (fl.verify_weighted_partition(f, partition), fl.verify_concentration(f, union))

    def check(out):
        parts, whole = out
        miss = holds(parts) + holds(whole)
        gap = max(abs(parts.lhs - whole.lhs), abs(parts.rhs - whole.rhs))
        if gap > UNION_SLACK:
            miss.append(f"union-gap: pieces against union differ by {gap:.3e}")
        return miss

    return run, check


def concentration_cycle(rng, index: int, tmp: str) -> list:
    cases = []
    for j, (lo, hi) in enumerate(CONCENTRATION_BANDS):
        for slot, kind in enumerate(CONCENTRATION_SLOTS):
            n = int(rng.integers(lo, hi + 1))
            turn = index * len(CONCENTRATION_BANDS) + j  # cycles the piece counts
            if kind == "partition":
                run, check = _conc_partition(rng, n, 1 + turn % 5)
            elif kind == "union":
                run, check = _conc_union(rng, n, 2 + turn % 3)
            else:
                run, check = {"random": _conc_random, "coherent": _conc_coherent}[kind](rng, n)
            cases.append(Case(f"c{index}/{kind}-N{n}-{len(cases)}", kind, run, check))
    return cases


# ---------------------------------------------------------------------------
# sections: finite-section norms through the default solver path


SECTIONS_N = (48, 72)      # sector symbols: N uniform in this range
JACOBI_N = 60
PM_HALVES_N = 60
LADDER = (20, 40, 60)
SECTIONS_SLOTS = (
    "normbound", "ladder-disc", "sharpness", "pm-halves", "normbound-jacobi", "normbound",
    "ladder-diag", "normbound", "normbound", "sharpness", "normbound", "normbound-jacobi",
    "normbound", "pm-halves-ladder", "normbound", "ladder-disc", "normbound", "ladder-diag",
    "normbound", "sharpness", "normbound-jacobi", "normbound", "normbound", "normbound",
)
SHARPNESS_N = (60, 80, 100)


def _sector_pieces(symbol) -> list:
    return [(r.r_inner, r.r_outer, r.theta_start, r.theta_end, c) for r, c in symbol.pieces]


def _sec_normbound(rng, jacobi: bool):
    symbol = fl.random_symbol(rng)
    n = JACOBI_N if jacobi else int(rng.integers(SECTIONS_N[0], SECTIONS_N[1] + 1))
    ref = oracles.spectral_norm(oracles.sector_matrix(_sector_pieces(symbol), n))

    def run():
        rep = fl.verify_norm_bound(symbol, n)
        if not jacobi:
            return rep, None
        return rep, fl.operator_norm(fl.assemble(symbol, n), method="jacobi")

    def check(out):
        rep, jac = out
        miss = holds(rep) + norm_miss(f"norm-bound N={n}", rep.lhs, ref)
        if jac is not None:
            miss += norm_miss(f"jacobi N={n}", jac, ref)
        return miss

    return run, check


def _pm_halves(rng, exact: bool):
    """+1 on one half of a disc and -1 on the other: odd under rotation by pi,
    so the finite section has an exactly symmetric spectrum."""
    if exact:
        theta0, radius = 0.0, 1.0
    else:
        theta0, radius = float(rng.uniform(0.0, oracles.TWO_PI)), float(rng.uniform(0.7, 1.3))
    halves = ((0.0, radius, theta0, theta0 + math.pi, 1.0),
              (0.0, radius, theta0 + math.pi, theta0 + oracles.TWO_PI, -1.0))
    symbol = fl.SimpleSymbol(tuple((fl.AnnularSector(*p[:4]), p[4]) for p in halves))
    return symbol, halves


def _sec_pm_normbound(rng, exact):
    symbol, halves = _pm_halves(rng, exact)
    ref = oracles.spectral_norm(oracles.sector_matrix(halves, PM_HALVES_N))

    def check(rep):
        return holds(rep) + norm_miss(f"+-halves norm-bound N={PM_HALVES_N}", rep.lhs, ref)

    return (lambda: fl.verify_norm_bound(symbol, PM_HALVES_N)), check


def _ladder(symbol, refs, label, diagonals=None):
    """Norms across truncations, as `focklab norm-table` computes them."""
    radial = isinstance(symbol, fl.RadialSymbol)

    def run():
        out = []
        for n in LADDER:
            matrix = fl.radial_assemble(symbol, n) if radial else fl.assemble(symbol, n)
            out.append((matrix, fl.operator_norm(matrix)))
        return out

    def check(out):
        miss = []
        for n, (matrix, norm), ref in zip(LADDER, out, refs):
            miss += norm_miss(f"{label} N={n}", norm, ref)
            if diagonals is not None:
                miss += diagonal_miss(f"{label} N={n}", matrix.data, diagonals[n])
        return miss

    return run, check


def _sec_pm_ladder(rng, exact):
    symbol, halves = _pm_halves(rng, exact)
    refs = [oracles.spectral_norm(oracles.sector_matrix(halves, n)) for n in LADDER]
    return _ladder(symbol, refs, "+-halves ladder")


def _sec_ladder_disc(rng):
    center = _uniform_disc_point(rng, 1.5)
    radius = float(rng.uniform(0.3, 1.2))
    symbol = fl.SimpleSymbol(((fl.Disc(center, radius), 1.0),))
    refs = [oracles.spectral_norm(oracles.displaced_disc_matrix(center, radius, n)) for n in LADDER]
    return _ladder(symbol, refs, "disc ladder")


def _sec_ladder_diag(rng, gaussian: bool):
    if gaussian:
        symbol = fl.RadialSymbol.gaussian()
        diagonals = {n: oracles.gaussian_diagonal(n) for n in LADDER}
        label = "gaussian ladder"
    else:
        radius = float(rng.uniform(0.3, 1.5))
        symbol = fl.SimpleSymbol(((fl.Disc(0.0, radius), 1.0),))
        diagonals = {n: oracles.disc_diagonal(radius, n) for n in LADDER}
        label = "centered-disc ladder"
    refs = [float(np.max(np.abs(np.linalg.eigvalsh(np.diag(diagonals[n]))))) for n in LADDER]
    return _ladder(symbol, refs, label, diagonals)


def _sec_sharpness(rng, n):
    center = _uniform_disc_point(rng, 1.2)
    radius = float(rng.uniform(0.4, 1.2))
    ref = oracles.spectral_norm(oracles.displaced_disc_matrix(center, radius, n))
    bound = -math.expm1(-math.pi * radius**2)

    def check(reports):
        equality, below_norm, below_bound = reports
        ray = equality.metadata["rayleigh"]
        miss = holds(below_bound)
        if abs(ray - bound) > EQUALITY_SLACK:
            miss.append(f"equality: rayleigh {ray:.15g} vs 1-exp(-pi r^2) {bound:.15g}")
        miss += norm_miss(f"sharpness N={n}", below_norm.rhs, ref)
        miss += norm_miss(f"sharpness top eigenvalue N={n}",
                          abs(below_bound.metadata["top_eigenvalue"]), ref)
        return miss

    return (lambda: fl.sharpness_experiment(center, radius, n)), check


def sections_cycle(rng, index: int, tmp: str) -> list:
    cases = []
    sharp = iter(SHARPNESS_N)
    diag_kinds = iter((False, True))
    first = index == 0  # carries the verbatim reproducer
    for slot, kind in enumerate(SECTIONS_SLOTS):
        if kind in ("normbound", "normbound-jacobi"):
            run, check = _sec_normbound(rng, kind == "normbound-jacobi")
        elif kind == "pm-halves":
            run, check = _sec_pm_normbound(rng, first)
        elif kind == "pm-halves-ladder":
            run, check = _sec_pm_ladder(rng, first)
        elif kind == "ladder-disc":
            run, check = _sec_ladder_disc(rng)
        elif kind == "ladder-diag":
            run, check = _sec_ladder_diag(rng, next(diag_kinds))
        else:
            n = next(sharp)
            run, check = _sec_sharpness(rng, n)
            cases.append(Case(f"c{index}/{kind}-N{n}-{slot}", kind, run, check))
            continue
        cases.append(Case(f"c{index}/{kind}-{slot}", kind, run, check))
    return cases


# ---------------------------------------------------------------------------
# approximation: `focklab approximate` through cli.main, in process


APPROX_RADIAL_N = (32, 48)    # truncation ranges
APPROX_SAMPLED_N = 24         # at most the sampled grid's radial node count
SAMPLED_GRID = (24, 48)  # radial x angular nodes of every sampled symbol
RADIAL_LADDERS = {"r16": (4, 8, 16), "r32": (8, 16, 32), "r64": (16, 32, 64)}
SAMPLED_LADDER = (2, 4, 8)
APPROX_SLOTS = (
    "r16", "sampled", "r32", "r16", "sampled", "r16", "r32", "sampled",
    "r64", "r16", "sampled", "r32", "r16", "sampled", "r32", "r16",
)
# (shape, k, a, b) of each sampled slot in a cycle: "odd" profiles are
# cos(k theta + phase) e^{-a|z|^2} with k odd (a symmetric spectrum),
# "mixed" ones (1 + b cos(k theta + phase)) e^{-a|z|^2} / (1 + b). Only the
# phase is drawn: a rotation leaves the spectrum, and with it the solver's
# work, nearly unchanged, and these slowly converging cases set case_ms_p90.
SAMPLED_PROFILES = (("odd", 1, 1.0, 0.0), ("mixed", 2, 0.8, 0.5), ("odd", 3, 1.2, 0.0),
                    ("mixed", 1, 1.4, 0.3), ("mixed", 0, 1.0, 0.6))
RADIAL_KINDS = ("gaussian", "table", "annulus")


def _radial_spec(rng, kind: str) -> dict:
    if kind == "gaussian":
        return {"profile": "gaussian"}
    if kind == "annulus":
        r_in = float(rng.uniform(0.0, 1.0))
        return {"profile": "annulus", "r_inner": r_in,
                "r_outer": r_in + float(rng.uniform(0.3, 1.2)),
                "height": float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0))}
    radii = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.6, size=4))])
    return {"profile": "table", "radii": radii.tolist(),
            "values": rng.uniform(-1.0, 1.0, size=radii.size).tolist()}


def _sampled_values(rng, shape: str, k: int, a: float, b: float):
    t_nodes, weights = roots_laguerre(SAMPLED_GRID[0])
    theta = oracles.TWO_PI * np.arange(SAMPLED_GRID[1]) / SAMPLED_GRID[1]
    decay = np.exp(-a * t_nodes / math.pi)
    angular = np.cos(k * theta + float(rng.uniform(0.0, oracles.TWO_PI)))
    if shape == "mixed":
        angular = (1.0 + b * angular) / (1.0 + b)
    return t_nodes, weights * np.exp(t_nodes), decay[:, None] * angular[None, :]


def _approx_case(path: str, grids, truncation: int, out_dir: str, stage_refs, true_ref):
    argv = ["approximate", "--symbol", path, "--grids", ",".join(map(str, grids)),
            "--truncation", str(truncation), "--output-dir", out_dir]
    reports = os.path.join(out_dir, "approx_reports.jsonl")

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = fl.cli.main(argv)
        return code, sink.getvalue()

    def check(out):
        code, text = out
        if code not in (0, 1):
            return [f"exit-code: {code}: {text.strip()[-200:]}"]
        with open(reports, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        stages = [r for r in rows if r["experiment"] == "approx-stage-bound"]
        miss = []
        if len(stages) != len(grids):
            miss.append(f"reports: {len(stages)} stage rows for {len(grids)} grids")
        for row, m, ref in zip(stages, grids, stage_refs):
            miss += norm_miss(f"stage grid={m}", row["lhs"], ref)
        for row in rows:
            if row["experiment"] in ("approx-stage-bound", "approx-composite-dominates"):
                if not row["holds"]:
                    miss.append(f"holds-false: {row['experiment']} margin {row['margin']:.3e}")
            if row["experiment"] == "approx-composite-dominates":
                miss += norm_miss("true symbol", row["metadata"]["true_norm"], true_ref)
        return miss

    return run, check


def approximation_cycle(rng, index: int, tmp: str) -> list:
    out_dir = os.path.join(tmp, "out")
    os.makedirs(out_dir, exist_ok=True)
    cases = []
    radial_count = 0
    profiles = iter(SAMPLED_PROFILES)
    for slot, kind in enumerate(APPROX_SLOTS):
        path = os.path.join(tmp, f"c{index}-{slot}.json")
        if kind == "sampled":
            shape, k, a, b = next(profiles)
            t_nodes, sw, values = _sampled_values(rng, shape, k, a, b)
            spec = {"sampled": {"radial_count": SAMPLED_GRID[0], "angular_count": SAMPLED_GRID[1],
                                "linf": float(np.max(np.abs(values))), "values": values.tolist()}}
            n = APPROX_SAMPLED_N
            grids = SAMPLED_LADDER
            stage_refs = [oracles.spectral_norm(oracles.sampled_cells_matrix(t_nodes, values, m, n))
                          for m in grids]
            true_ref = oracles.spectral_norm(oracles.sampled_matrix(t_nodes, sw, values, n))
            name = f"sampled-{shape}-k{k}"
        else:
            profile = RADIAL_KINDS[(index + radial_count) % len(RADIAL_KINDS)]
            radial_count += 1
            radial = _radial_spec(rng, profile)
            spec = {"radial": radial}
            n = int(rng.integers(APPROX_RADIAL_N[0], APPROX_RADIAL_N[1] + 1))
            grids = RADIAL_LADDERS[kind]
            stage_refs = [float(np.max(np.abs(oracles.radial_cells_diagonal(radial, m * m, n))))
                          for m in grids]
            true_ref = float(np.max(np.abs(oracles.radial_diagonal(radial, n))))
            name = f"{kind}-{profile}"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        run, check = _approx_case(path, grids, n, out_dir, stage_refs, true_ref)
        cases.append(Case(f"c{index}/{name}-{slot}", "sampled" if kind == "sampled" else "radial",
                          run, check))
    return cases


# Input cycles built per run: about twice what a 30 s run uses at the
# time of writing. A faster program wraps around and meets inputs again.
POOL_CYCLES = {"concentration": 40, "sections": 32, "approximation": 16}

CYCLES = {
    "concentration": concentration_cycle,
    "sections": sections_cycle,
    "approximation": approximation_cycle,
}


def build(workload: str, seed: int, tmp: str) -> list:
    """POOL_CYCLES[workload] cycles of cases, all drawn from the seed's stream."""
    rng = np.random.default_rng([seed, 0])
    return [CYCLES[workload](rng, i, tmp) for i in range(POOL_CYCLES[workload])]


WARMUP_SEED = 20240517


def warmup(workload: str, tmp: str) -> list:
    """One case of each kind. They come from a fixed stream, the same in
    every run, so that set-up time does not change with --seed."""
    rng = np.random.default_rng(WARMUP_SEED)
    first = {}
    for case in CYCLES[workload](rng, -1, tmp):
        first.setdefault(case.kind, case)
    return list(first.values())
