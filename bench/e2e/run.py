#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload and seed.

    python3 bench/e2e/run.py --workload sssp-usa --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source tree that holds ``src/`` and
``bench/e2e/``. The first run configures and builds ``hdcps_bench`` in
``$CARGO_TARGET_DIR`` (default ``.bench_build``) at the tree's root; later
runs only rebuild what changed. Build output goes to stderr.

``hdcps_bench``'s own lines are echoed to stdout, followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``metrics`` holds the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` ones with ``--trace 1``; a traced run also writes
``trace-<workload>.json`` (Chrome trace-event JSON) to the build directory.

Exits 2 without a result when the sources or the build are missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "runtime" / "executor_service.h").is_file():
        fail(f"no hdcps sources under {ROOT / 'src'}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "hdcps_bench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return build_dir / "hdcps_bench"


def parse_metrics(lines):
    """`name value unit [detail]` lines -> {name: (value, unit)}."""
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) < 3:
            continue
        try:
            value = float(parts[1])
        except ValueError:
            continue
        if parts[0] in metrics:
            fail(f"metric {parts[0]} printed twice")
        metrics[parts[0]] = (value, parts[2])
    return metrics


def parse_counts(lines):
    counts = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("attempted", "failed"):
            counts[parts[0]] = int(parts[1])
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read {spec_path}: {error}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace", str(build_dir / f"trace-{args.workload}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"hdcps_bench did not finish: {error}")
    lines = done.stdout.splitlines()
    for line in lines:
        print(line)

    printed = parse_metrics(lines)
    counts = parse_counts(lines)
    metrics = {}
    missing = []
    for metric in wanted:
        name = metric["name"]
        if name not in printed or printed[name][1] != metric["unit"]:
            missing.append(name)
            continue
        metrics[name] = {"value": printed[name][0], "unit": metric["unit"]}
    if missing:
        print(f"run.py: missing or mis-unit metrics: {missing}",
              file=sys.stderr)
    attempted = counts.get("attempted", 0)
    failed = counts.get("failed", attempted)
    correct = (done.returncode == 0 and not missing and attempted > 0
               and failed == 0)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
