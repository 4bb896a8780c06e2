"""Set-up probe: one sample of setup_s, in a fresh interpreter.

    python3 benchmarks/probe.py --workload sections --tmp DIR

Times `import focklab.cli` (which imports the package, numpy and scipy) plus
one warm-up case of each case kind of the workload, the work a benchmark
process does before its timed loop. Building the warm-up inputs is not
timed. Prints {"setup_s": ..., "import_s": ...} on its last line, in wall
seconds; run.py rescales setup_s to reference seconds with the calibration
kernel it times just before and just after each probe.
"""
import argparse
import json
import sys
import time
from pathlib import Path

start = time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    bench = Path(__file__).resolve().parent
    sys.path.insert(0, str(bench.parent / "src"))
    sys.path.insert(0, str(bench))
    import focklab.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    cases = workloads.warmup(args.workload, args.tmp)
    t0 = time.perf_counter()
    for case in cases:
        case.run()
    setup_s = import_s + time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
