"""Compare benchmark result files from two commits, or check one side's spread.

    python3 benchmarks/compare.py BASE_DIR CHANGE_DIR [--layers]
    python3 benchmarks/compare.py --spread DIR

Each directory holds the .bench_results/*.json files of one commit, from the
same seeds and --seconds on the same machine. For every workload and
end-to-end metric this prints each side's median and quartiles and a
verdict against the bound in BENCHMARK.json:

- worse:      the change's median is worse than the base's by more than the bound;
- unresolved: the base's own spread (quartile distance / median) exceeds
              the bound, and the change's runs do not all beat the base's;
- better:     the change wins at least 9 in 10 seed pairs and the medians
              differ by more than the base's quartile distance;
- same:       otherwise.

--layers adds the per-layer medians of the traced runs (no verdicts: the
per-layer metrics have no bounds). --spread prints, for one side, each
metric's quartile distance over its median next to a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str, trace: int) -> dict:
    """{workload: {seed: {metric: value}}} from one side's result files."""
    out: dict = {}
    for path in sorted(Path(directory).glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        seed = record["machine"]["seed"]
        out.setdefault(record["machine"]["workload"], {})[seed] = {
            name: m["value"] for name, m in record["metrics"].items()}
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, change: dict, bound: float, lower_better: bool) -> str:
    seeds = sorted(set(base) & set(change))
    b = [base[s] for s in seeds]
    c = [change[s] for s in seeds]
    bq1, bmed, bq3 = quartiles(b)
    cmed = statistics.median(c)
    sign = 1.0 if lower_better else -1.0
    worse_by = sign * (cmed - bmed) / abs(bmed)
    wins = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
    all_better = max(sign * y for y in c) < min(sign * x for x in b)
    if worse_by > bound:
        return f"worse by {worse_by:+.1%} (bound {bound:.0%})"
    if (bq3 - bq1) / abs(bmed) > bound and not all_better:
        return "unresolved (base spread exceeds bound)"
    if wins >= 0.9 * len(seeds) and sign * (bmed - cmed) > (bq3 - bq1):
        return f"better by {-worse_by:+.1%}"
    return f"same ({worse_by:+.1%})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+")
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    if args.spread:
        for workload, runs in sorted(load(args.dirs[0], 0).items()):
            print(f"{workload} ({len(runs)} seeds)")
            for name, m in e2e.items():
                q1, med, q3 = quartiles([r[name] for r in runs.values()])
                spread = (q3 - q1) / abs(med)
                flag = "" if spread < m["bound"] / 3 else "  <-- not below bound/3"
                print(f"  {name:13s} median {med:12.6g} {m['unit']:6s} spread {spread:.4f} "
                      f"bound/3 {m['bound'] / 3:.4f}{flag}")
        return 0

    base_dir, change_dir = args.dirs
    base, change = load(base_dir, 0), load(change_dir, 0)
    for workload in sorted(set(base) & set(change)):
        print(f"{workload}")
        for name, m in e2e.items():
            b = {s: r[name] for s, r in base[workload].items()}
            c = {s: r[name] for s, r in change[workload].items()}
            bq = quartiles(list(b.values()))
            cq = quartiles(list(c.values()))
            print(f"  {name:13s} base {bq[1]:10.5g} [{bq[0]:.5g}, {bq[2]:.5g}]  change {cq[1]:10.5g} "
                  f"[{cq[0]:.5g}, {cq[2]:.5g}] {m['unit']:6s} {verdict(b, c, m['bound'], m['better'] == 'lower')}")
    if args.layers:
        base, change = load(base_dir, 1), load(change_dir, 1)
        for workload in sorted(set(base) & set(change)):
            print(f"{workload} per layer (medians over seeds)")
            names = next(iter(base[workload].values())).keys()
            for name in names:
                b = statistics.median(r[name] for r in base[workload].values())
                c = statistics.median(r[name] for r in change[workload].values())
                if b or c:
                    print(f"  {name:48s} {b:12.5g} -> {c:12.5g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
