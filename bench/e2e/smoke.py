#!/usr/bin/env python3
"""Smoke test of hdcps_bench (ctest bench_e2e_smoke).

    python3 bench/e2e/smoke.py BUILD/hdcps_bench BENCHMARK.json

Runs every workload of BENCHMARK.json under --smoke, once plain and once
with --trace, and checks that:
  - each run exits 0, reports no failed solve or job, and error_frac 0;
  - every end-to-end metric (plain) or per-layer metric (traced) is
    printed exactly once, with its unit;
  - the trace parses as JSON and every child span lies inside its parent.
Then it checks that open-loop due times do not depend on service speed:
with a process() that stalls, loadgen.late_ms_max grows while the due
times (loadgen.due_hash) stay the same.
"""

import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

# Timestamps are written in microseconds with three decimals.
TOLERANCE_US = 0.002


def run(binary, *args):
    done = subprocess.run([binary, "--seed", "1", "--smoke", *args],
                          stdout=subprocess.PIPE, text=True, timeout=170)
    if done.returncode != 0:
        sys.exit(f"FAIL: {' '.join(args)} exited {done.returncode}\n"
                 f"{done.stdout}")
    printed = Counter()
    values = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) < 3:
            continue
        try:
            values[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            continue
        printed[parts[0]] += 1
    if "failed 0" not in done.stdout.splitlines():
        sys.exit(f"FAIL: {' '.join(args)} reports failures")
    return printed, values


def check_metrics(label, printed, values, wanted):
    for metric in wanted:
        name = metric["name"]
        if printed[name] != 1:
            sys.exit(f"FAIL: {label}: {name} printed {printed[name]} times")
        if values[name][1] != metric["unit"]:
            sys.exit(f"FAIL: {label}: {name} has unit {values[name][1]}, "
                     f"want {metric['unit']}")
    if values.get("error_frac", (None,))[0] != 0:
        sys.exit(f"FAIL: {label}: error_frac is not 0")


def check_trace(label, path):
    events = json.loads(Path(path).read_text())["traceEvents"]
    spans = {}
    for e in events:
        if e.get("cat") != "unit":
            continue
        span = spans.setdefault((e["name"], e["id"]), [None, None])
        span[0 if e["ph"] == "b" else 1] = e["ts"]
    roots = {key[1]: span for key, span in spans.items()
             if key[0] in ("solve", "job")}
    if not roots:
        sys.exit(f"FAIL: {label}: trace has no root spans")

    def inside(parent, begin, end, what):
        if (parent[0] is None or parent[1] is None or
                begin < parent[0] - TOLERANCE_US or
                end > parent[1] + TOLERANCE_US):
            sys.exit(f"FAIL: {label}: {what} [{begin}, {end}] is not "
                     f"inside its parent {parent}")

    for (name, unit), (begin, end) in spans.items():
        if name not in ("solve", "job"):
            inside(roots[unit], begin, end, f"{name} of unit {unit}")
    children = 0
    for e in events:
        if e.get("cat") != "child":
            continue
        children += 1
        begin, end = e["ts"], e["ts"] + e["dur"]
        if e["name"] == "sched.pop":
            begin = end  # a pop may start before its task exists
        inside(roots[e["args"]["unit"]], begin, end, e["name"])
    if children == 0:
        sys.exit(f"FAIL: {label}: trace has no child spans")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, spec_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            printed, values = run(binary, "--workload", workload)
            check_metrics(workload, printed, values, spec["end_to_end"])
            trace = str(Path(tmp) / f"{workload}.json")
            printed, values = run(binary, "--workload", workload,
                                  "--trace", trace)
            check_metrics(workload + " traced", printed, values,
                          spec["per_layer"])
            check_trace(workload, trace)
            print(f"ok {workload}", flush=True)

    _, steady = run(binary, "--workload", "stream-150")
    # Each job's first task holds its worker for 100 ms, so the workers
    # adopt about 40 jobs/s against 150 arrivals/s and admission fills.
    _, stalled = run(binary, "--workload", "stream-150",
                     "--stall-us", "100000")
    if stalled["loadgen.due_hash"] != steady["loadgen.due_hash"]:
        sys.exit("FAIL: due times changed with service speed")
    if stalled["loadgen.late_ms_max"][0] <= steady["loadgen.late_ms_max"][0]:
        sys.exit("FAIL: a stalled service did not make the generator late")
    print("ok due times independent of service speed")


if __name__ == "__main__":
    main()
