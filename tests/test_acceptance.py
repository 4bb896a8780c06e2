"""Acceptance gate: the ten headline checks, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines for
passing criteria too). Each criterion asserts its stated tolerance and its
runtime budget; a miss fails the test rather than weakening the check.
"""
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
from scipy.special import gammainc

from focklab import (
    AnnularSector,
    Disc,
    RadialSymbol,
    SimpleSymbol,
    WeightedPartition,
    approximation_experiment,
    assemble,
    coherent,
    operator_norm,
    radial_assemble,
    random_partition,
    random_region,
    random_symbol,
    random_unit,
    sharpness_experiment,
    symbol_norm_bound,
    verify_concentration,
    verify_weighted_partition,
)
from focklab.fock import weighted_basis_matrix
from plane_oracles import default_plane_rule, grid

ONE_MINUS_EXP_NEG_ONE = 0.6321205588285577
ONE_MINUS_EXP_NEG_PI = 0.9567860817362276
PI_OVER_PI_PLUS_ONE = math.pi / (math.pi + 1.0)


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {status} ({detail})")
    assert ok, f"criterion {num} {label} failed: {detail}"


def test_01_disc_sharpness():
    start = time.perf_counter()
    radius = math.sqrt(1.0 / math.pi)
    norm = operator_norm(assemble(SimpleSymbol(((Disc(0.0, radius), 1.0),)), 40))
    bound = symbol_norm_bound(1.0, 1.0)
    elapsed = time.perf_counter() - start
    err_const = abs(norm - ONE_MINUS_EXP_NEG_ONE)
    err_bound = abs(norm - bound)
    ok = err_const < 1e-10 and err_bound < 1e-10 and elapsed < 1.0
    _report(1, "disc sharpness at area 1",
            ok, f"|norm-(1-1/e)|={err_const:.2e} |norm-bound|={err_bound:.2e} "
                f"t={elapsed:.2f}s")


def test_02_disc_radial_oracle():
    start = time.perf_counter()
    worst = 0.0
    n = np.arange(51)
    for x in (0.5, 1.0, 2.0):
        mat = radial_assemble(RadialSymbol.disc(math.sqrt(x / math.pi)), 51).data
        worst = max(worst, float(np.max(np.abs(np.diag(mat).real
                                               - gammainc(n + 1.0, x)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _report(2, "disc diagonal vs regularized gamma",
            ok, f"max err={worst:.2e} t={elapsed:.2f}s")


def test_03_gaussian_closed_form():
    start = time.perf_counter()
    mat = radial_assemble(RadialSymbol.gaussian(), 41)
    n = np.arange(41)
    oracle = (math.pi / (math.pi + 1.0)) ** (n + 1.0)
    diag_err = float(np.max(np.abs(np.diag(mat.data).real - oracle)))
    norm = operator_norm(mat)
    norm_err = abs(norm - PI_OVER_PI_PLUS_ONE)
    below = norm <= ONE_MINUS_EXP_NEG_PI
    elapsed = time.perf_counter() - start
    ok = diag_err < 1e-12 and norm_err < 1e-12 and below and elapsed < 1.0
    _report(3, "gaussian symbol closed form",
            ok, f"diag err={diag_err:.2e} norm err={norm_err:.2e} t={elapsed:.2f}s")


def test_04_orthonormality():
    start = time.perf_counter()
    rule = default_plane_rule()
    w = weighted_basis_matrix(31, grid(rule).reshape(-1))
    radial, m = rule
    omega = np.repeat(radial.scaled_weights / m, m)
    gram = (w * omega) @ w.conj().T
    err = float(np.max(np.abs(gram - np.eye(31))))
    elapsed = time.perf_counter() - start
    ok = err < 1e-12 and elapsed < 5.0
    _report(4, "basis orthonormality on the default rule",
            ok, f"max |gram - I|={err:.2e} t={elapsed:.2f}s")


def test_05_concentration_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst_random = math.inf
    for _ in range(200):
        f = random_unit(rng, degree=int(rng.integers(0, 21)))
        rep = verify_concentration(f, random_region(rng))
        worst_random = min(worst_random, rep.margin)
    worst_equality = 0.0
    for _ in range(30):
        center = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        radius = float(rng.uniform(0.3, 1.0))
        f = coherent(center, 48)
        rep = verify_concentration(f, Disc(center, radius))
        worst_equality = max(worst_equality, abs(rep.margin))
    elapsed = time.perf_counter() - start
    ok = worst_random >= -1e-10 and worst_equality < 1e-10 and elapsed < 30.0
    _report(5, "concentration suite (200 random + 30 equality cases)",
            ok, f"min margin={worst_random:.2e} "
                f"max |equality margin|={worst_equality:.2e} t={elapsed:.1f}s")


def test_06_partition_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst_margin = math.inf
    for _ in range(200):
        f = random_unit(rng, degree=int(rng.integers(0, 21)))
        rep = verify_weighted_partition(f, random_partition(rng))
        worst_margin = min(worst_margin, rep.margin)
    worst_union_gap = 0.0
    for _ in range(30):
        r1 = float(rng.uniform(0.1, 1.2))
        r2 = r1 + float(rng.uniform(0.2, 1.0))
        arcs = int(rng.integers(2, 6))
        edges = np.linspace(0.0, 2.0 * math.pi, arcs + 1)
        pieces = tuple(
            (AnnularSector(r1, r2, float(a), float(b)), 1.0)
            for a, b in zip(edges[:-1], edges[1:])
        )
        f = random_unit(rng, degree=int(rng.integers(0, 21)))
        rep = verify_weighted_partition(f, WeightedPartition(pieces))
        union = verify_concentration(f, AnnularSector(r1, r2, 0.0, 2.0 * math.pi))
        worst_margin = min(worst_margin, rep.margin)
        worst_union_gap = max(worst_union_gap, abs(rep.lhs - union.lhs))
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-10 and worst_union_gap < 1e-12 and elapsed < 30.0
    _report(6, "weighted partition suite (200 random + 30 weight-one cases)",
            ok, f"min margin={worst_margin:.2e} "
                f"max union gap={worst_union_gap:.2e} t={elapsed:.1f}s")


def test_07_norm_bound_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    worst = math.inf
    for _ in range(50):
        sym = random_symbol(rng)
        norm = operator_norm(assemble(sym, 60), method="jacobi")
        bound = symbol_norm_bound(sym.l1_norm(), sym.linf_norm())
        worst = min(worst, bound - norm)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-8 and elapsed < 60.0
    _report(7, "norm bound suite (50 mixed-sign symbols, Jacobi)",
            ok, f"min (bound - norm)={worst:.2e} t={elapsed:.1f}s")


def test_08_translation_invariance():
    start = time.perf_counter()
    center = 1.0 + 0.5j
    radius = math.sqrt(1.0 / math.pi)
    sym = SimpleSymbol(((Disc(center, radius), 1.0),))
    norms = [operator_norm(assemble(sym, n)) for n in (20, 40, 60)]
    elapsed = time.perf_counter() - start
    nondecreasing = norms[0] <= norms[1] + 1e-11 and norms[1] <= norms[2] + 1e-11
    err = abs(norms[2] - ONE_MINUS_EXP_NEG_ONE)
    ok = nondecreasing and err < 1e-4 and elapsed < 30.0
    _report(8, "translation invariance of the disc norm",
            ok, f"norms={['%.12f' % v for v in norms]} |err|={err:.2e} "
                f"t={elapsed:.1f}s")


def test_09_approximation_pipeline():
    start = time.perf_counter()
    reports = approximation_experiment(RadialSymbol.gaussian(), [8, 16, 32, 64], 40)
    by_name = {}
    for rep in reports:
        by_name.setdefault(rep.experiment, []).append(rep)
    errs = [r.metadata["l1_error_estimate"] for r in by_name["approx-stage-bound"]]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    conv = by_name["approx-convergence"][0]
    dom = by_name["approx-composite-dominates"][0]
    all_hold = all(r.holds for r in reports)
    elapsed = time.perf_counter() - start
    ok = all_hold and decreasing and conv.lhs < 5e-3 and dom.holds and elapsed < 30.0
    _report(9, "gaussian approximation pipeline",
            ok, f"errors={['%.3e' % e for e in errs]} final gap={conv.lhs:.2e} "
                f"t={elapsed:.1f}s")


def test_10_determinism(tmp_path):
    start = time.perf_counter()
    commands = [
        ("verify-nt", "--seed", "1", "--cases", "8", "--truncation", "48"),
        ("verify-lemma", "--seed", "2", "--cases", "6", "--truncation", "48"),
        ("sharpness", "--center", "0.4+0.2j", "--radius", "0.6",
         "--truncation", "40"),
    ]
    gauss = tmp_path / "gauss.json"
    gauss.write_text(json.dumps({"radial": {"profile": "gaussian"}}))
    commands.append(("approximate", "--symbol", str(gauss),
                     "--grids", "8,16,32,64", "--truncation", "40"))

    env = os.environ.copy()
    env.pop("FOCKLAB_OUTPUT_DIR", None)
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out in dirs:
        for cmd in commands:
            res = subprocess.run(
                [sys.executable, "-m", "focklab", *cmd, "--output-dir", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert res.returncode == 0, f"{cmd[0]} failed: {res.stderr}"
    names_a = sorted(p.name for p in dirs[0].iterdir())
    names_b = sorted(p.name for p in dirs[1].iterdir())
    identical = names_a == names_b and all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in names_a
    )
    elapsed = time.perf_counter() - start
    ok = identical and len(names_a) == 8
    _report(10, "byte-identical reruns of the full suite",
            ok, f"{len(names_a)} files compared, t={elapsed:.1f}s")
