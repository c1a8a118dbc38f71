#!/usr/bin/env bash
# Build and run the tier-1 test suite under the sanitizer presets.
#
# Usage: tools/ci_sanitize.sh [preset...]
#   (default: tsan asan-ubsan; see CMakePresets.json)
#
# The concurrency bugs this repo's scheduler can grow (racy drift
# reductions, non-atomic queue-pointer reads) are exactly the kind
# TSan catches and unit tests miss, so CI runs the whole suite under
# both instrumented builds. Any sanitizer report fails the run.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
    presets=(tsan asan-ubsan)
fi

jobs=${HDCPS_CI_JOBS:-$(nproc)}

# detect_stack_use_after_return: run() keeps its RunState on the
# caller's stack while resident helper threads use it, so a helper that
# outlives run() must show up as a report, not as silent stack reuse.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1 abort_on_error=1 detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

# Only the test binaries, the CLI (for cli_metrics_smoke), the one
# figure harness bench_rejects_zero_reps runs and the end-to-end bench
# (bench_e2e_smoke) are needed: skipping the other bench/example
# targets roughly halves each instrumented build.
targets=(hdcps_cli hdcps_soak bench_micro_queues bench_fig7_queue_sizes
         hdcps_bench
         test_support test_graph test_pq test_core test_obs test_sched
         test_conformance test_algos test_sim test_simdesigns
         test_stress test_simsched test_properties test_service)

# Fault-injection stress: re-run the failure-semantics, watchdog and
# fault-drill suites under the instrumented build (the injected error
# paths exercise unwinding and drain-stop code ctest already covers,
# but the CLI plumbing below does not run under ctest), then drive the
# CLI end to end with faults armed. A degraded-but-healthy spec must
# still succeed; an injected ProcessFn throw must fail the run with
# the graceful exit code 2, not a crash or a hang.
fault_stress() {
    local builddir=$1
    "$builddir"/tests/test_stress --gtest_filter='FailureSemantics.*:Watchdog.*'
    "$builddir"/tests/test_core --gtest_filter='FaultDrill.*'
    "$builddir"/tools/hdcps_cli --kernel sssp --input cage --design hdcps-sw \
        --mode threads --threads 4 --watchdog-ms 60000 --csv \
        --fault-spec 'srq.push.full:nth:3,exec.pop.fail:prob:0.05,srq.pop.fail:prob:0.05'
    local rc=0
    "$builddir"/tools/hdcps_cli --kernel sssp --input cage --design hdcps-sw \
        --mode threads --threads 4 --watchdog-ms 60000 --csv \
        --fault-spec 'exec.process.throw:once:100' || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: injected ProcessFn throw exited $rc, want 2" >&2
        return 1
    fi
}

# Chaos soak: randomized kernel x scheduler x fault-spec x straggler
# scenarios, every scheduler wrapped in the invariant-checking
# VerifyingScheduler with the metrics single-writer checker armed, and
# diffed against the sequential oracle. The seed is fixed so CI
# replays the same scenario stream every time, and --budget-ms stops
# cleanly (still a pass) if the instrumented build is too slow to
# finish all runs inside roughly a minute. Any invariant violation —
# task loss or duplication, unsafe termination, a cross-thread metrics
# write, a non-injected failure — exits non-zero and fails the stage.
# A second sweep pins the software baselines: --designs round-robins
# them through the first runs, so each baseline sees chaos even when
# the general sweep's random draws cluster elsewhere.
chaos_soak() {
    local builddir=$1
    "$builddir"/tools/hdcps_soak --runs 24 --seed 7 --threads 4 \
        --budget-ms 60000
    "$builddir"/tools/hdcps_soak --runs 12 --seed 23 --threads 4 \
        --budget-ms 45000 \
        --designs obim,pmod,multiqueue,swminnow,reld,hdcps-mq
}

# Supervisor chaos: pinned-seed scenario stream where every post-
# round-robin run arms the worker supervisor and kills or wedges
# service workers mid-run (svc.worker.die / svc.worker.wedge, poison
# tasks riding along half the time). The soak exits nonzero — failing
# this stage — if a quarantined worker's tasks are lost, a worker loss
# is not healed by a replacement, a post-heal job cannot complete, or
# dead-letter accounting drifts from the injected poison count. The
# supervised CLI job-stream then replays the same drills through the
# end-to-end driver: a worker death plus poison tasks must still exit
# 0 (all jobs complete, poisoned work dead-lettered, oracle checks on
# every non-poisoned job).
supervisor_chaos() {
    local builddir=$1
    "$builddir"/tools/hdcps_soak --runs 10 --seed 41 --threads 4 \
        --budget-ms 60000 --supervisor-slice 1 --service-slice 0 \
        --fairness-slice 0 --designs hdcps-sw,swminnow,multiqueue
    "$builddir"/tools/hdcps_cli --kernel sssp --input cage \
        --design hdcps-sw --job-stream 8 --rate 1000 --threads 4 \
        --supervise --max-restarts 8 --dead-letter --job-retries 3 \
        --seed 5 --csv \
        --fault-spec 'svc.worker.die:once:200,svc.task.poison:nth:400'
}

# Fairness chaos: pinned-seed scenario stream where every post-
# round-robin run floods the service from a heavy-weight tenant while
# a weight-1 tenant, a rate-limited tenant, and a deprioritized job
# ride along. The soak exits nonzero — failing this stage — if the
# weight-1 tenant is starved (the flood fully drains before its first
# task runs), a quota rejection loses its typed reason, a preempted
# job's re-tagged incarnations break the per-job pop ledger, or the
# verifier's conservation check fails. The single-writer checker runs
# in abort mode so an overlapping metrics write dies with a stack
# trace at the racing store. The weighted CLI job-stream then drives
# the same policy end to end: three tenants at 4:2:1 weights must all
# complete their jobs and exit 0 with every oracle check passing.
fairness_chaos() {
    local builddir=$1
    "$builddir"/tools/hdcps_soak --runs 10 --seed 83 --threads 4 \
        --budget-ms 60000 --fairness-slice 1 --service-slice 0 \
        --supervisor-slice 0 --abort-on-writer-violation \
        --designs hdcps-sw,multiqueue,swminnow
    "$builddir"/tools/hdcps_cli --kernel sssp --input cage \
        --design multiqueue --job-stream 12 --rate 1000 --threads 4 \
        --tenants 3 --weights 4,2,1 --admit-cap 64 --seed 9 --csv
}

# Service chaos: pinned-seed scenario stream where every post-round-
# robin run is a service slice: tree jobs, a cancelled job, a deadline
# job and an admission burst on one ExecutorService, with svc.job.fail
# retries armed, checked against the verifier's conservation ledger.
# It guards the service's complete-before-push ordering (a worker
# counts a task completed before it pushes the children or the retry
# it created, and only childless completions owe a scan for job
# quiescence) and the deferred scan (a worker pays an owed scan at
# its next pop that comes back empty or with another job's task, and
# before it pauses, sleeps or exits). A lost job completion leaves a
# wait() blocked and the stage never finishes; a lost or duplicated
# task fails the ledger; an overlapping metrics write aborts on the
# spot.
service_chaos() {
    local builddir=$1
    "$builddir"/tools/hdcps_soak --runs 10 --seed 97 --threads 4 \
        --budget-ms 60000 --service-slice 1 --supervisor-slice 0 \
        --fairness-slice 0 --abort-on-writer-violation \
        --designs hdcps-sw,multiqueue,swminnow
}

# Job-stream smoke: replay a bursty multi-tenant job stream through
# the ExecutorService with admission backpressure, retries, and an
# armed job-fault drill. Rejections are expected (capacity 4 under
# bursts of 8); anything but exit 0 — a lost task, an unverified
# completed job, a job failed by something other than its deadline —
# fails the stage. Arguments after the build directory prefix the
# command (the placement stage passes a taskset).
service_stream_smoke() {
    local builddir=$1
    shift
    "$@" "$builddir"/tools/hdcps_cli --kernel bfs --input cage \
        --design multiqueue --job-stream 24 --arrivals burst \
        --burst 8 --rate 400 --threads 4 --admit-cap 4 \
        --job-retries 4 --csv --fault-spec 'svc.job.fail:nth:97'
}

# Placement: both runtimes give each worker slot its own CPU of the
# starting thread's mask (DESIGN.md §16.5). Under `taskset -c 0` the
# mask holds one CPU, so nothing pins: the placement tests skip and
# everything else must pass. Under `taskset -c 0,1` a 3-slot runtime
# outnumbers the CPUs and pins nothing, and the tests check that no
# worker leaves the mask. The job-stream smoke then drives the service
# end to end under both masks.
placement() {
    local builddir=$1 cpus
    for cpus in 0 0,1; do
        echo "--- taskset -c $cpus"
        taskset -c "$cpus" "$builddir"/tests/test_stress \
            --gtest_filter='ResidentHelpers.*'
        taskset -c "$cpus" "$builddir"/tests/test_service \
            --gtest_filter='Service.*Cpu*:Service.HealKeepsTheSlotsThread'
        service_stream_smoke "$builddir" taskset -c "$cpus"
    done
}

# Bench smoke + perf self-gate: run the perf-gate microbenchmarks
# twice with a tiny iteration budget (sanitizer builds are slow by
# design, so this is a does-it-work-and-is-it-stable check, not a
# measurement), validate the JSON schema, then HARD-gate the rerun
# against the first run with bench_compare --min-ratio. The threshold
# (0.35) is far below real run-to-run noise for these budgets (see
# EXPERIMENTS.md "Perf-gate variance") so only a catastrophic
# regression — a benchmark collapsing to a fraction of its own
# same-build throughput, i.e. a livelock, a lock convoy, or a
# pathological slow path — trips it. Both artifacts are left under
# $builddir/artifacts/ so CI can upload them with the run.
bench_smoke() {
    local builddir=$1
    mkdir -p "$builddir/artifacts"
    HDCPS_BENCH_JSON_OUT="$builddir/artifacts/BENCH_micro.json" \
        "$builddir"/bench/bench_micro_queues \
        --benchmark_min_time=0.01 \
        --benchmark_filter='-BM_HdCpsPipelineSpawn'
    tools/bench_compare --validate "$builddir/artifacts/BENCH_micro.json"
    HDCPS_BENCH_JSON_OUT="$builddir/artifacts/BENCH_micro_rerun.json" \
        "$builddir"/bench/bench_micro_queues \
        --benchmark_min_time=0.01 \
        --benchmark_filter='-BM_HdCpsPipelineSpawn'
    # Per-scenario floors on top of the default: the single-scheduler
    # rotation scenarios (remote_heavy and the topology matrix) are far
    # more stable run-to-run than the contended micro rows, so they get
    # tighter catastrophic-collapse floors (still well below the noise
    # bands recorded in EXPERIMENTS.md).
    tools/bench_compare "$builddir/artifacts/BENCH_micro.json" \
        "$builddir/artifacts/BENCH_micro_rerun.json" \
        --min-ratio 0.35 \
        --min-ratio remote_heavy=0.5 \
        --min-ratio local_heavy=0.5 \
        --min-ratio bursty=0.5 \
        --min-ratio skewed_destination=0.5
    echo "bench artifacts: $builddir/artifacts/BENCH_micro.json" \
         "$builddir/artifacts/BENCH_micro_rerun.json"
}

# Topology soak: the same pinned-seed chaos stream under a synthetic
# 2-node topology, so hierarchical routing, node-aware reclamation,
# and the quarantine fallbacks run under the sanitizers with the
# invariant checker on. Synthetic topologies carry no CPU lists (no
# affinity syscalls), so this slice behaves identically on any CI
# host, single-node or not.
topology_soak() {
    local builddir=$1
    "$builddir"/tools/hdcps_soak --runs 8 --seed 61 --threads 4 \
        --budget-ms 45000 --topology 2x2 \
        --designs hdcps-sw,hdcps-srq,hdcps-mq
    "$builddir"/tools/hdcps_soak --runs 6 --seed 67 --threads 4 \
        --budget-ms 45000 --topology 2x2 --supervisor-slice 1 \
        --service-slice 0 --fairness-slice 0 --designs hdcps-sw,hdcps-mq
}

for preset in "${presets[@]}"; do
    builddir=build
    [ "$preset" != default ] && builddir="build-$preset"
    echo "=== [$preset] configure ==="
    cmake --preset "$preset"
    echo "=== [$preset] build ==="
    cmake --build --preset "$preset" -j "$jobs" -- "${targets[@]}"
    echo "=== [$preset] ctest ==="
    ctest --preset "$preset" -j "$jobs"
    echo "=== [$preset] fault-injection stress ==="
    fault_stress "$builddir"
    echo "=== [$preset] chaos soak ==="
    chaos_soak "$builddir"
    echo "=== [$preset] supervisor chaos ==="
    supervisor_chaos "$builddir"
    echo "=== [$preset] topology soak ==="
    topology_soak "$builddir"
    echo "=== [$preset] fairness chaos ==="
    fairness_chaos "$builddir"
    echo "=== [$preset] service chaos ==="
    service_chaos "$builddir"
    echo "=== [$preset] job-stream smoke ==="
    service_stream_smoke "$builddir"
    echo "=== [$preset] placement ==="
    placement "$builddir"
    echo "=== [$preset] bench smoke ==="
    bench_smoke "$builddir"
    echo "=== [$preset] OK ==="
done
