"""focklab benchmark: seeded verification workloads, timed from outside.

    python3 benchmarks/run.py --workload concentration --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; focklab is imported from its `src/`. One
process runs one workload as a closed loop: each case starts when the
previous one has finished and been checked. Inputs and reference values are
built from --seed before any timing starts.

--trace 0 reports the end-to-end metrics, with case times in reference
seconds (calibration.py). --trace 1 first runs for half of --seconds (wall
time) untraced, then the same cases again with a timing wrapper on every
binding of focklab's public functions, and reports the per-layer metrics.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}. A fuller record (machine facts, every failed case with its
reasons, per-kind timings) goes to .bench_results/, and in a traced run the
spans go next to it. See benchmarks/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The package pins these itself on import; the benchmark imports numpy
# first, so it sets them here, before numpy loads. A value already set is
# kept and reported, and a run whose pins are not 1 is flagged.
for _var in PIN_VARS:
    os.environ.setdefault(_var, "1")

from calibration import Calibration, to_reference  # noqa: E402  (imports numpy)

BENCH = Path(__file__).resolve().parent  # also sys.path[0], as the script's directory
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"

SETUP_PROBES = 3     # fresh processes timed for setup_s; the median is reported
MIN_CASES = 110      # so that more than ten cases lie beyond case_ms_p90
WORKLOADS = ("concentration", "sections", "approximation")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    pins = {var: os.environ.get(var) for var in PIN_VARS}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": pins,
        "pins_ok": all(value == "1" for value in pins.values()),
        "git_sha": git_sha(),
    }


def setup_probes(workload: str, tmp: str) -> list:
    """probe.py's result from each of SETUP_PROBES fresh interpreters, with
    its set-up time also in reference seconds, against the calibration
    kernel timed just before and just after the probe."""
    kernel = Calibration()
    samples = []
    for _ in range(SETUP_PROBES):
        before = kernel()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), "--workload", workload, "--tmp", tmp],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        after = kernel()
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["reference_s"] = to_reference(sample["setup_s"] * 1e9, 0.5 * (before + after)) / 1e3
        samples.append(sample)
    return samples


class Loop:
    """Closed-loop runner over whole cycles of cases.

    With a calibration kernel (timed before every case and once more at
    the end) the loop runs until the cases have taken `seconds` reference
    seconds and at least MIN_CASES cases have run, so a slow spell of the
    host stretches the run rather than thinning it. Without one it stops on
    wall time, or after `cycle_count` cycles.
    """

    def __init__(self, cycles: list, calibrate=None):
        self.cycles = cycles
        self.calibrate = calibrate
        self.cal_ns: list = []     # kernel times; entry i is just before case i
        self.times_ns: list = []
        self.ids: list = []
        self.kinds: list = []
        self.failures: list = []   # (case id, [reasons])
        self.raised = 0
        self.cycles_run = 0

    def run(self, seconds: float | None = None, cycle_count: int | None = None, tracer=None):
        start = time.perf_counter()
        reference_s = 0.0
        for cycle in itertools.cycle(self.cycles):
            for case in cycle:
                if tracer is not None:
                    tracer.case = len(self.times_ns)
                if self.calibrate is not None:
                    self.cal_ns.append(self.calibrate())
                t0 = time.perf_counter_ns()
                try:
                    out = case.run()
                except Exception as exc:  # a failing case is a result, not an abort
                    elapsed = time.perf_counter_ns() - t0
                    self.raised += 1
                    reasons = [f"raised: {type(exc).__name__}: {exc}"]
                else:
                    elapsed = time.perf_counter_ns() - t0
                    try:
                        reasons = case.check(out)
                    except Exception as exc:
                        reasons = [f"check-raised: {type(exc).__name__}: {exc}"]
                self.times_ns.append(elapsed)
                if self.calibrate is not None:
                    reference_s += to_reference(elapsed, self.cal_ns[-1]) / 1e3
                self.ids.append(case.id)
                self.kinds.append(case.kind)
                if reasons:
                    self.failures.append((case.id, reasons))
            self.cycles_run += 1
            if cycle_count is not None and self.cycles_run >= cycle_count:
                break
            if seconds is None:
                continue
            if self.calibrate is not None:
                if reference_s >= seconds and self.count >= MIN_CASES:
                    break
            elif time.perf_counter() - start >= seconds:
                break
        if self.calibrate is not None:
            self.cal_ns.append(self.calibrate())

    def reference_ms(self) -> list:
        """Case times in reference ms, against the mean kernel time just
        before and just after each case."""
        return [to_reference(t, 0.5 * (self.cal_ns[i] + self.cal_ns[i + 1]))
                for i, t in enumerate(self.times_ns)]

    @property
    def count(self) -> int:
        return len(self.times_ns)

    def busy_s(self) -> float:
        return sum(self.times_ns) / 1e9


def latency(ms: list) -> dict:
    return {"cases_per_s": len(ms) * 1e3 / sum(ms),
            "case_ms_p50": statistics.median(ms),
            "case_ms_p90": statistics.quantiles(ms, n=10)[8]}


def end_to_end(loop: Loop, setup: list) -> dict:
    timed = latency(loop.reference_ms())
    return {
        "setup_s": (statistics.median(p["reference_s"] for p in setup), "s"),
        "cases_per_s": (timed["cases_per_s"], "1/s"),
        "case_ms_p50": (timed["case_ms_p50"], "ms"),
        "case_ms_p90": (timed["case_ms_p90"], "ms"),
        "pass_frac": (1.0 - len(loop.failures) / loop.count, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def by_kind(loop: Loop) -> dict:
    out = {}
    for kind in sorted(set(loop.kinds)):
        ms = [t / 1e6 for t, k in zip(loop.times_ns, loop.kinds) if k == kind]
        out[kind] = {"cases": len(ms), "median_ms": statistics.median(ms),
                     "max_ms": max(ms), "total_s": sum(ms) / 1e3}
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: str):
    """Returns the run record and, for a traced run, the tracer."""
    setup = [] if trace else setup_probes(workload, tmp)

    import workloads

    pool = workloads.build(workload, seed, tmp)
    for case in workloads.warmup(workload, tmp):
        case.run()

    loop = Loop(pool, calibrate=None if trace else Calibration())
    loop.run(seconds=seconds / 2 if trace else seconds)
    record = {"cycles": loop.cycles_run, "pool_cycles": len(pool),
              "by_kind": by_kind(loop),
              "case_ms": [[cid, t / 1e6] for cid, t in zip(loop.ids, loop.times_ns)]}
    if not trace:
        metrics = end_to_end(loop, setup)
        record.update(setup_probes=setup, calibration_ms=[c / 1e6 for c in loop.cal_ns],
                      wall_clock=latency([t / 1e6 for t in loop.times_ns]))
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = Loop(pool)
            traced.run(cycle_count=loop.cycles_run, tracer=tracer)
        finally:
            tracer.uninstall()
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        values = tracer.metrics(traced.count, sum(traced.times_ns))
        values["trace.overhead_frac"] = 1.0 - loop.busy_s() / traced.busy_s()
        metrics = {name: (values[name], units[name]) for name in units}
        record["traced_bindings"] = tracer.bindings
        record["spans"] = len(tracer.span_start)
        loop = traced
    record.update(attempted=loop.count, raised=loop.raised, failures=loop.failures,
                  metrics=metrics, known_defect=workloads.KNOWN_DEFECT)
    return record, (tracer if trace else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "focklab" / "__init__.py").is_file():
        print(f"error: no focklab sources under {SRC}; run from the root of a "
              "focklab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    SCRATCH.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=SCRATCH)
    try:
        record, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        spans_path = RESULTS / f"{stem}-spans.json.gz"
        tracer.write(str(spans_path))
        record["spans_file"] = spans_path.name

    facts = machine_facts(args.workload, args.seed)
    known = record["known_defect"]
    correct = all(r.startswith(known) for _, reasons in record["failures"] for r in reasons)
    failed_frac = len(record["failures"]) / record["attempted"]
    record.update(machine=facts, correct=correct, failed_frac=failed_frac,
                  failures=[{"id": cid, "reasons": reasons} for cid, reasons in record["failures"]],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()})
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"machine: nproc={facts['nproc']} numpy={facts['numpy']} scipy={facts['scipy']} "
          f"blas={facts['blas']} pins={facts['thread_pins']} git={facts['git_sha'][:12]}")
    if not facts["pins_ok"]:
        print("WARNING: BLAS/OpenMP thread pins are not all 1; timings are not comparable",
              file=sys.stderr)
    for failure in record["failures"]:
        print(f"failed {failure['id']}: " + "; ".join(failure["reasons"]))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {record['attempted']} cases "
          f"in {record['cycles']} cycles, {len(record['failures'])} failed "
          f"(failed_frac={failed_frac:.4f}), {record['raised']} raised")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "wall_clock" in record:
        print("  unscaled wall clock: " + " ".join(
            f"{k}={v:.6g}" for k, v in record["wall_clock"].items()))
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["raised"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
