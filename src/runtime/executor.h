/**
 * @file
 * The threaded execution engine: drives any Scheduler with any
 * task-processing function on real host threads.
 *
 * Responsibilities:
 *  - run the pop/process/push loop — the worker loop the
 *    ExecutorService shares (runtime/worker_common.h), with run()'s
 *    policy — on the calling thread (worker 0) and on resident helper
 *    threads (workers 1..n-1), so no run() spawns or joins a thread
 *    once helpers exist (DESIGN.md §11);
 *  - one CPU per worker: worker 0 keeps the CPU the caller runs on and
 *    helpers take the next CPUs of the caller's mask, for the run only
 *    (DESIGN.md §16.5);
 *  - distributed termination detection: per-worker created/completed
 *    counters (a task counts as created before it is poppable and as
 *    completed only after its children were pushed) and a
 *    completed-first quiescence scan by idle workers, with no global
 *    in-flight counter on the hot path (TerminationCounters in
 *    worker_common.h; DESIGN.md §11);
 *  - opt-in per-worker completion-time breakdown (enqueue/dequeue/
 *    compute/comm, Section IV-C of the paper);
 *  - design-independent priority-drift reporting (Eq. 1), sampled by
 *    worker 0 every driftSampleInterval of its own pops. This is the
 *    metric Figure 3/5 plot for *every* CPS design, separate from the
 *    HD-CPS-internal tracker that feeds the TDF heuristic;
 *  - graceful failure: a ProcessFn that throws fails the run instead of
 *    terminating the process — the first error is latched into the
 *    RunResult, every worker drains out via a stop flag, and every
 *    worker body returns before run() does;
 *  - one opt-in monitor thread, started only when the watchdog or
 *    stall supervision is armed: the monitor skeleton the
 *    ExecutorService runs too, with the watchdog as run()'s tick hook.
 *    The watchdog (RunOptions::watchdogMs) fails a run stuck with
 *    in-flight tasks but no pops, with a diagnostic dump (per-worker
 *    pop counts *and* last-pop ages). Stall supervision
 *    (RunOptions::reclaimAfterMs) quarantines a worker whose loop-top
 *    heartbeat went stale and reclaims its queues into its peers; the
 *    worker parks until the monitor re-arms its slot, then carries on
 *    (DESIGN.md §10).
 */

#ifndef HDCPS_RUNTIME_EXECUTOR_H_
#define HDCPS_RUNTIME_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "core/drift.h"
#include "cps/scheduler.h"
#include "obs/metrics.h"
#include "stats/breakdown.h"

namespace hdcps {

/**
 * Task-processing callback: consume `task`, append created children to
 * `children` (pre-cleared). Must be thread-safe across distinct calls.
 */
using ProcessFn =
    std::function<void(unsigned tid, const Task &task,
                       std::vector<Task> &children)>;

/** Executor tunables. */
struct RunOptions
{
    unsigned numThreads = 1;
    unsigned driftSampleInterval = 2000; ///< pops between Eq.1 samples
    /**
     * Per-phase timing (RunResult's enqueue/dequeue/compute/comm
     * times, and the per-phase series when `metrics` is set). Off by
     * default: it costs four clock reads per task, which is a
     * measurable share of a fine-grained solve. Task counts are
     * recorded either way.
     */
    bool recordBreakdown = false;
    /**
     * Progress watchdog window in milliseconds; 0 disables it. When
     * enabled, the run's monitor thread checks every window: if tasks
     * are still in flight but no worker popped anything for a full
     * window, the run is failed with a diagnostic dump (per-worker pop
     * counts, scheduler occupancy, metrics totals) instead of hanging.
     */
    uint64_t watchdogMs = 0;
    /**
     * Stall-supervision window in milliseconds; 0 disables it. When
     * set, the run's monitor thread treats a worker whose loop-top
     * heartbeat is this stale as wedged, quarantines it and reclaims
     * its buffered tasks into its peers. Forwarded to
     * Scheduler::setReclaimAfterMs before workers start (always — the
     * RunOptions value is authoritative), which arms the scheduler's
     * owner-side guard for the reclaim. Designs without per-worker
     * buffers have nothing to reclaim.
     */
    uint64_t reclaimAfterMs = 0;
    /**
     * Optional observability sink. When set, run() attaches it to the
     * scheduler and records time series on the drift sampling cadence:
     * the Eq. 1 drift signal (worker 0), each worker's cumulative
     * per-phase breakdown (with recordBreakdown), and the in-flight
     * task gauge. The registry must have at least numThreads workers
     * and outlive run().
     */
    MetricsRegistry *metrics = nullptr;
};

/** Everything a figure harness needs from one execution. */
struct RunResult
{
    Breakdown total;                   ///< merged over all workers
    std::vector<Breakdown> perWorker;
    uint64_t wallNs = 0;               ///< completion time
    double avgDrift = 0.0;             ///< mean of Eq. 1 samples
    double maxDrift = 0.0;
    uint64_t driftSamples = 0;
    /**
     * Failure latch. When a ProcessFn throws or the watchdog detects a
     * stall, the run drains out early: failed flips true, error holds
     * the *first* failure's message, and the remaining counters reflect
     * only the work done before the stop. On a failed run tasks may be
     * left unprocessed — callers must not trust partial results.
     */
    bool failed = false;
    std::string error;

    bool ok() const { return !failed; }
};

/**
 * Run `process` over `initial` and everything it spawns, scheduling
 * through `sched`. The calling thread runs worker 0; workers 1..n-1
 * run on resident helper threads that park between runs. A helper is
 * spawned only when none is idle, so the helpers number the most ever
 * in use at once, and concurrent or nested run() calls each get their
 * own. Every worker calls Scheduler::onWorkerStart on its thread
 * before its first pop. Then, unless that hook changed the thread's
 * CPU mask, worker `tid` is pinned to the tid-th CPU of the caller's
 * mask counted from the caller's current CPU, so worker 0 stays where
 * the caller runs; nothing is pinned when the workers outnumber the
 * mask's CPUs or the mask holds one CPU (a run() nested in a pinned
 * worker). Each thread leaves with the CPU mask it came in with; a
 * thread that `process` spawns inherits its worker's one CPU.
 * Blocks until all tasks are done and every worker body has
 * returned. Never terminates the process on a ProcessFn exception
 * — inspect RunResult::ok() / error instead.
 */
RunResult run(Scheduler &sched, const std::vector<Task> &initial,
              const ProcessFn &process, const RunOptions &options);

} // namespace hdcps

#endif // HDCPS_RUNTIME_EXECUTOR_H_
