#!/usr/bin/env python3
"""Collect a set of untraced benchmark runs for agree.py.

    python3 bench/e2e/collect.py OUTDIR --runs 5 --seed0 100

Runs every workload of BENCHMARK.json `--runs` times through run.py with
seeds seed0, seed0+1, ..., alternating the workload order between runs
(forward, then reversed), and saves each run's stdout as
OUTDIR/<workload>.<seed>.out. Runs one process at a time.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    args.outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for run in range(args.runs):
        seed = args.seed0 + run
        order = workloads if run % 2 == 0 else workloads[::-1]
        for workload in order:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            out = args.outdir / f"{workload}.{seed}.out"
            out.write_text(done.stdout)
            last = done.stdout.splitlines()[-1] if done.stdout else ""
            print(f"{workload} seed {seed}: exit {done.returncode} {last}",
                  flush=True)
            status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
