#!/usr/bin/env python3
"""Check that two sets of benchmark runs of the same commit agree.

    python3 bench/e2e/agree.py SET_A SET_B

Each set is a directory of run.py outputs (see collect.py), one file per
run. For every (workload, end-to-end metric) pair this prints each set's
median and quartiles (statistics.quantiles, n=4) and the spread, the
quartile distance as a share of the median.

Exits 1 when a pair's medians differ by more than the metric's bound in
BENCHMARK.json, or when a spread other than setup_s's exceeds its bound.
setup_s is judged by its medians only, as the benchmark rules judge it:
it must be an end-to-end metric, so that work moved into set-up shows,
but a single-threaded set-up of a few milliseconds has a run-to-run
spread of up to 0.28 on a shared host (README.md), which no number of
repetitions inside a run removes.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(directory):
    """{(workload, metric): [values]} over the run outputs in directory."""
    values = defaultdict(list)
    files = sorted(p for p in Path(directory).iterdir() if p.is_file())
    for path in files:
        lines = path.read_text().splitlines()
        workload = next((l.split()[1] for l in lines
                         if l.startswith("workload ")), None)
        if workload is None or not lines:
            sys.exit(f"agree.py: {path} is not a run output")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"agree.py: {path} reports an incorrect run")
        for name, metric in result["metrics"].items():
            values[(workload, name)].append(metric["value"])
    return values


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a, b = load(sys.argv[1]), load(sys.argv[2])
    failures = 0
    print(f"{'workload':<14} {'metric':<18} {'n':>5}  "
          f"{'A median [q1, q3]':<30} {'B median [q1, q3]':<30} "
          f"{'spreadA':>7} {'spreadB':>7} {'diff':>7} {'bound':>5}")
    for key in sorted(set(a) | set(b)):
        workload, name = key
        if name not in bounds:
            continue
        if len(a.get(key, [])) < 2 or len(b.get(key, [])) < 2:
            print(f"{workload:<14} {name:<18} missing from one set")
            failures += 1
            continue
        ma, qa1, qa3, sa = summary(a[key])
        mb, qb1, qb3, sb = summary(b[key])
        diff = (mb - ma) / ma if ma else float("inf")
        bound = bounds[name]
        bad = abs(diff) > bound or (
            name != "setup_s" and max(sa, sb) > bound)
        failures += bad
        sets = f"{len(a[key])}/{len(b[key])}"
        cell_a = f"{ma:.4g} [{qa1:.4g}, {qa3:.4g}]"
        cell_b = f"{mb:.4g} [{qb1:.4g}, {qb3:.4g}]"
        print(f"{workload:<14} {name:<18} {sets:>5}  {cell_a:<30} "
              f"{cell_b:<30} {sa:>7.3f} {sb:>7.3f} {diff:>+7.3f} "
              f"{bound:>5.2f}" + ("  FAIL" if bad else ""))
    print(f"{failures} pair(s) out of bound" if failures else "all agree")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
