#!/usr/bin/env bash
# Prove that the tests guarding the runtime's termination, recovery and
# placement protocols, HD-CPS's overflow spill and exact local-PQ
# order, and the service's retry incarnations still bite.
#
# Usage: tools/mutation_check.sh [rev]
#   rev: the commit to check (default HEAD). To check uncommitted work,
#        stage it and pass "$(git stash create)".
#
# For each protocol below, the script exports `rev` (git archive) into
# a scratch tree, applies one patch that disables the protocol, builds
# only the test binary that covers it, and requires the named test(s)
# to fail. A test that passes with its protocol disabled proves
# nothing, so a surviving mutation fails the script. So does a patch
# whose text no longer matches the source exactly once: a refactor
# must move the mutation along with the code, never drop it. The
# reclaim-guard mutation runs under ThreadSanitizer (halt_on_error), and
# there the failure must come with a TSan report.
#
# Runs outside tier 1, next to tools/ci_sanitize.sh. It configures two
# scratch builds (default and tsan), so the first run takes a while;
# HDCPS_CI_JOBS caps the build parallelism, HDCPS_MUTATION_DIR keeps
# the scratch tree (default: a fresh mktemp -d directory).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
rev=${1:-HEAD}
jobs=${HDCPS_CI_JOBS:-$(nproc)}
work=${HDCPS_MUTATION_DIR:-$(mktemp -d)}
tree=$work/tree

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

rm -rf "$tree"
mkdir -p "$tree"
git -C "$root" archive "$rev" | tar -x -C "$tree"
echo "mutation check of $(git -C "$root" rev-parse --short "$rev") in $tree"

killed=0
failed=0

# Exact, single-occurrence text replacement.
apply() {
    python3 - "$@" <<'EOF'
import sys
path, old, new = sys.argv[1:]
text = open(path).read()
n = text.count(old)
if n != 1:
    sys.exit(f"{path}: the mutation matches {n} times, want 1")
open(path, "w").write(text.replace(old, new))
EOF
}

# check NAME PRESET TARGET FILTER FILE OLD NEW
#   Disable a protocol by replacing OLD with NEW in FILE, build TARGET
#   under PRESET, and require `TARGET --gtest_filter=FILTER` to fail.
#   FILTER may name several tests (a:b); each must fail on its own.
check() {
    local name=$1 preset=$2 target=$3 filter=$4 file=$5 old=$6 new=$7
    local build=$tree/build
    [ "$preset" != default ] && build=$tree/build-$preset
    echo "=== $name ==="
    if [ ! -f "$build/CMakeCache.txt" ]; then
        (cd "$tree" && cmake --preset "$preset" > "$work/configure-$preset.log")
    fi
    local ok=1
    if ! apply "$tree/$file" "$old" "$new"; then
        echo "FAIL: $name: the patch no longer applies to $file"
        ok=0
    elif ! cmake --build "$build" -j "$jobs" --target "$target" \
            > "$work/$name.build.log" 2>&1; then
        echo "FAIL: $name: the mutated tree does not build" \
             "(see $work/$name.build.log)"
        ok=0
    else
        local test
        IFS=: read -ra tests <<< "$filter"
        for test in "${tests[@]}"; do
            local log=$work/$name.${test//\//_}.log rc=0
            timeout 300 "$build/tests/$target" --gtest_filter="$test" \
                > "$log" 2>&1 || rc=$?
            if [ "$rc" -eq 0 ]; then
                echo "FAIL: $name: $test passes with the protocol disabled"
                ok=0
            elif [ "$preset" = tsan ] &&
                 ! grep -q "ThreadSanitizer" "$log"; then
                echo "FAIL: $name: $test failed (exit $rc) without a" \
                     "ThreadSanitizer report (see $log)"
                ok=0
            else
                echo "killed: $test (exit $rc)"
            fi
        done
    fi
    # Back to the pristine file; the next build recompiles what it
    # touches.
    git -C "$root" show "$rev:$file" > "$tree/$file"
    if [ "$ok" -eq 1 ]; then
        killed=$((killed + 1))
    else
        failed=$((failed + 1))
    fi
}

# run() counts a task's children created before the push that makes
# them poppable; counted after, a peer's quiescence scan can balance
# while a child is on its way.
check run-created-before-push default test_sched \
    'Executor.ChildrenCountCreatedBeforeTheyArePoppable' \
    src/runtime/executor.cc \
'            state_.term.noteCreated(tid_, children_.size());
            state_.sched->pushBatch(tid_, children_.data(),
                                    children_.size());' \
'            state_.sched->pushBatch(tid_, children_.data(),
                                    children_.size());
            state_.term.noteCreated(tid_, children_.size());'

# The service counts a task completed before it pushes what the task
# created (here: a retry); pushed first, a peer can complete the retry
# before the failed incarnation is counted, and the job never finishes.
check service-complete-before-push default test_service \
    'Service.RetryCompletedByPeerStillFinishesJob' \
    src/runtime/executor_service.cc \
'        noteTasksCreated(*record, tid, 1);
        noteTaskCompleted(*record, tid);
        sched_.push(tid, again);
        return;' \
'        noteTasksCreated(*record, tid, 1);
        sched_.push(tid, again);
        noteTaskCompleted(*record, tid);
        return;'

# The deferred quiescence scan is paid at the pop that leaves the job...
check scan-paid-at-job-switch default test_service \
    'Service.OwedScanPaidWhenNextPopIsAnotherJob' \
    src/runtime/executor_service.cc \
'        if (cached_ == nullptr || cached_->id != task.job) {
            beforeBlock();' \
'        if (cached_ == nullptr || cached_->id != task.job) {'

# ... before the straggler pause point may sleep ...
check scan-paid-before-straggler-pause default test_service \
    'Service.StragglerPauseDoesNotHoldOwedScan' \
    src/runtime/worker_common.h \
'        if (StragglerInjector::active() != nullptr) {
            policy.beforeBlock();
            stragglerPausePoint(tid);' \
'        if (StragglerInjector::active() != nullptr) {
            stragglerPausePoint(tid);'

# ... and before a superseded worker leaves its loop.
check scan-paid-on-supersession default test_service \
    'Service.SupersededWorkerPaysOwedScan' \
    src/runtime/worker_common.h \
'            if (supervisor->superseded(tid, epoch)) {
                policy.beforeBlock();
                return true;
            }' \
'            if (supervisor->superseded(tid, epoch)) {
                return true;
            }'

# run()'s monitor polls the health FSM and reclaims a stalled worker's
# queues; without it a paused worker strands its sRQ until it wakes.
check run-monitor-reclaim default test_stress \
    'StragglerResilience.ReclamationRidesOutThePausedWorker' \
    src/runtime/executor.cc \
'    WorkerSupervisor *supervisor() { return state_.supervisor.get(); }
    MetricsRegistry *metrics() { return state_.options.metrics; }' \
'    WorkerSupervisor *supervisor() { return nullptr; }
    MetricsRegistry *metrics() { return state_.options.metrics; }'

# The service arms the scheduler's owner-side guard while its monitor
# may reclaim; unguarded, the drain races a worker wedged in a task.
check reclaim-guard tsan test_service \
    'Service.SupervisorReclaimsWorkerWedgedInsideATask' \
    src/runtime/executor_service.cc \
'                  options.supervisor.enabled
                      ? std::max<uint64_t>(options.supervisor.wedgedAfterMs, 1)
                      : 0);' \
'                  0);'

# A slot parked for a re-arm (supersession or crash) resumes on the
# same thread once re-armed, in both runtimes; a slot that never
# resumed would strand its queues (run(), RELD) or idle for good (the
# service).
check rearm-resumes-the-slot default test_stress \
    'StragglerResilience.SupersededWorkerRejoinsTheRun' \
    src/runtime/worker_common.h \
'        while (supervisor->awaitingRearm(tid)) {' \
'        while (true) {'
check rearm-resumes-the-slot-service default test_service \
    'Service.HealKeepsTheSlotsThread' \
    src/runtime/worker_common.h \
'        while (supervisor->awaitingRearm(tid)) {' \
'        while (true) {'

# HD-CPS's exact local PQ keeps the full 64-bit priority in its heap
# key; truncated to 32 bits, the >2^32 conformance domain collapses
# and the exact designs pop far out of rank order.
check local-pq-full-priority default test_conformance \
    'AllDesigns/ConformanceMatrix.QuiescentRankErrorWithinBackendBound/hdcps_sw:AllDesigns/ConformanceMatrix.QuiescentRankErrorWithinBackendBound/hdcps_srq:AllDesigns/ConformanceMatrix.QuiescentRankErrorWithinBackendBound/hdcps_numa' \
    src/core/local_pq.h \
'        return (LocalPqKey(order.priority) << 64) |' \
'        return (LocalPqKey(uint32_t(order.priority)) << 64) |'

# Its sift-down takes the smaller of the two pair winners; taking the
# larger breaks the heap property on every full four-child level.
check local-pq-child-pick default test_pq \
    'DAryLocalPq.PopsInExactSortedOrder:DAryLocalPq.InterleavedRunsReuseSlabSlots' \
    src/core/local_pq.h \
'                best = keys[b] < keys[a] ? b : a;' \
'                best = keys[b] < keys[a] ? a : b;'

# A scheduler that placed the thread in onWorkerStart wins over the
# slot's own CPU; pinned regardless, runSlot would undo a
# topology-aware design's node pin.
check placement-scheduler-pin-wins default test_stress \
    'ResidentHelpers.SchedulersPinWins' \
    src/runtime/worker_common.h \
'        if (planned_ && threadCpus() == entry_ && pinThreadToCpu(cpu_))' \
'        if (planned_ && pinThreadToCpu(cpu_))'

# HD-CPS spills a remote send that finds the destination's sRQ full
# into its overflow queue; a dropped single or a bag released without
# unpacking loses tasks.
check srq-overflow-spill default test_core \
    'HdCpsScheduler.OverflowPathStillDelivers:FaultDrill.HdCpsExactlyOnceWhenEveryRemotePushSpills' \
    src/core/hdcps.cc \
'        workers_[dest]->overflow.push(envelope.task);' \
'        (void)dest;'
check srq-overflow-spill-bag default test_core \
    'FaultDrill.SpilledBagArrivesUnpacked' \
    src/core/hdcps.cc \
'        for (const Task &t : envelope.bag->tasks)
            workers_[dest]->overflow.push(t);' \
''

# A service retry re-pushes the failed task with the next attempt, a
# distinct conservation-ledger key; with the old attempt the retried
# incarnation is indistinguishable from the one that failed.
check retry-incarnation default test_service \
    'Service.RetryCarriesTheNextAttempt' \
    src/runtime/executor_service.cc \
'            packAttempt(tries + 1, demoteStampOf(task.attempt));' \
'            packAttempt(tries, demoteStampOf(task.attempt));'

echo "mutation check: $killed killed, $failed not killed"
[ "$failed" -eq 0 ]
