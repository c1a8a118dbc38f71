/**
 * @file
 * Worker-loop machinery shared by the one-shot executor (executor.cc)
 * and the long-lived multi-tenant ExecutorService
 * (executor_service.cc). Both drive the same pop/process/push loop
 * shape over a Scheduler; what they share lives here so the service is
 * a true generalization of the executor rather than a fork of it:
 *
 *  - TerminationCounters: the distributed created/completed counters
 *    and the completed-first quiescence scan (soundness argument on
 *    quiescentOnce; DESIGN.md §11). The executor keeps one instance
 *    per run; the service keeps one per *job*, which is exactly what
 *    turns run-level termination detection into per-job completion
 *    detection.
 *  - FailureLatch: first-error-wins failure latching plus the stop
 *    flag workers drain on. The executor latches once per run; the
 *    service embeds one latch per job, so one job's failure (thrown
 *    ProcessFn, expired deadline, explicit cancel) stops only that
 *    job's processing while co-resident jobs keep running.
 *  - IdleBackoff: the brief-spin-then-yield policy an empty-handed
 *    worker follows so oversubscribed hosts still make progress.
 *  - TokenBucket: the deterministic admission rate limiter the
 *    service's per-tenant quotas use (DESIGN.md §17).
 *  - quarantineAndReclaim: the one stall-recovery action both
 *    runtimes' monitors take on a WorkerSupervisor decision
 *    (DESIGN.md §10, §15.2).
 */

#ifndef HDCPS_RUNTIME_WORKER_COMMON_H_
#define HDCPS_RUNTIME_WORKER_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cps/scheduler.h"
#include "obs/metrics.h"
#include "support/compiler.h"
#include "support/timer.h"

namespace hdcps {

/**
 * Distributed termination state: per-worker monotone counters of tasks
 * created (seeds + children, bumped by the creating worker *before*
 * the push makes them poppable) and tasks completed (bumped with
 * release order after the task's children were counted created — or
 * after its failure was latched). Each worker only ever writes its own
 * cache-line-padded slot, so the per-task cost is two uncontended RMWs
 * instead of two fetch_adds on one global in-flight counter that every
 * core fights over.
 */
class TerminationCounters
{
  public:
    explicit TerminationCounters(unsigned numSlots)
        : created_(numSlots), completed_(numSlots)
    {}

    /** Count `n` tasks created by slot `tid`. Call *before* the push
     *  that makes them poppable. */
    void
    noteCreated(unsigned tid, uint64_t n = 1)
    {
        created_[tid].value.fetch_add(n, std::memory_order_release);
    }

    /** Relaxed seed-phase store (single-threaded, before workers
     *  start; the thread spawns publish it). */
    void
    seedCreated(unsigned tid, uint64_t n)
    {
        created_[tid].value.store(n, std::memory_order_relaxed);
    }

    /** Count one task completed by slot `tid`. Call *after* its
     *  children were counted created (or its failure latched). The
     *  executor pushes them first; the service pushes them after
     *  (complete-before-push, see quiescentOnce). */
    void
    noteCompleted(unsigned tid)
    {
        completed_[tid].value.fetch_add(1, std::memory_order_release);
    }

    /**
     * One quiescence scan: read ALL completed counters first
     * (acquire), then ALL created counters, and compare the sums.
     *
     * Why completed-first makes the check sound: both counters are
     * monotone, and at any single instant created >= completed (a task
     * is counted created before it is poppable, so before it can
     * complete). Let D be the completed sum we read and C the created
     * sum read *after* it. By monotonicity C >= created@(end of
     * completed scan) >= completed@(same instant) >= D. So C == D
     * forces created == completed at the instant the completed scan
     * finished — i.e. the system was quiescent then. New tasks are
     * only created by in-flight tasks (seeding happens before workers
     * consume), so a quiescent system stays quiescent, and the
     * detection is safe: no false positives, and once all work is done
     * the next scan sees it. The acquire loads pair with the workers'
     * release increments, so a detector that observes a completion
     * also observes every child that completion created (created is
     * bumped before completed).
     *
     * Where to scan (the service's complete-before-push rule): a
     * worker that pops task T counts T's k children created, then T
     * completed, and only then pushes them. Created >= completed still
     * holds at every instant (each child is counted before it is
     * poppable). If k > 0, the instant right after T's completion has
     * the k children created but not completed — they cannot complete
     * before the push — so T's completion did not make the job
     * quiescent. Quiescence is reached at some completion (the counts
     * only balance when one lands), so it is reached at a completion
     * with k == 0, and the worker that performs it scans after its own
     * increment. When several workers complete a job's last tasks at
     * once, each of them scans; the increments are locked RMWs (full
     * fences on x86), so the scan that follows the later increment
     * reads both and sees the balance. Scans after completions with
     * k > 0 can never succeed and are skipped.
     *
     * The scan after a k == 0 completion may also wait until the
     * worker's next pop, and is needed only if that pop comes back
     * empty or holds another job's task. A pop that returns a task U
     * of the same job shows the job was not quiescent after the
     * completion: had it been, no task of the job could exist any
     * more (only in-flight tasks create tasks), yet U was created and
     * not completed. The completion that does make the job quiescent
     * is always followed by such a pop, or by the worker blocking or
     * exiting, and the worker scans before either.
     *
     * The order matters: under create -> push -> complete, a peer can
     * pop and complete a child before its parent is counted
     * completed; the peer's scan then misses the parent's completion,
     * the parent's completion skips its scan, and the job is never
     * found quiescent.
     */
    bool
    quiescentOnce() const
    {
        uint64_t done = 0;
        for (const auto &c : completed_)
            done += c.value.load(std::memory_order_acquire);
        uint64_t made = 0;
        for (const auto &c : created_)
            made += c.value.load(std::memory_order_acquire);
        return made == done;
    }

    /**
     * Two-pass termination check (the paper's HW protocol confirms an
     * idle snapshot with a second round before broadcasting DONE; we
     * mirror that shape). The single completed-first scan is already
     * sound — the confirm pass is cheap insurance on the cold idle
     * path and keeps the software check structurally faithful to
     * Section III-D.
     */
    bool quiescent() const { return quiescentOnce() && quiescentOnce(); }

    /** In-flight estimate for diagnostics and gauges. Reading
     *  completed before created keeps the difference non-negative. */
    uint64_t
    pendingApprox() const
    {
        uint64_t done = 0;
        for (const auto &c : completed_)
            done += c.value.load(std::memory_order_acquire);
        uint64_t made = 0;
        for (const auto &c : created_)
            made += c.value.load(std::memory_order_acquire);
        return made - done;
    }

    uint64_t
    createdTotal() const
    {
        uint64_t made = 0;
        for (const auto &c : created_)
            made += c.value.load(std::memory_order_acquire);
        return made;
    }

    uint64_t
    completedTotal() const
    {
        uint64_t done = 0;
        for (const auto &c : completed_)
            done += c.value.load(std::memory_order_acquire);
        return done;
    }

  private:
    std::vector<Padded<std::atomic<uint64_t>>> created_;
    std::vector<Padded<std::atomic<uint64_t>>> completed_;
};

/**
 * First-error failure latch: stop tells workers to drain out; failed
 * guards the first-error claim; error is written once, under mutex, by
 * the claim winner. Later callers lose the claim race and only
 * reinforce the stop flag — the error a caller reads afterwards is
 * always the first one.
 */
class FailureLatch
{
  public:
    /** Latch `message` as the failure and raise stop. Returns true for
     *  the claim winner (whose message was kept). */
    bool
    fail(std::string message)
    {
        bool expected = false;
        bool won = failed_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel);
        if (won) {
            std::lock_guard<std::mutex> lock(mutex_);
            error_ = std::move(message);
        }
        stop_.store(true, std::memory_order_release);
        return won;
    }

    /** Raise stop without recording an error (graceful drain). */
    void requestStop() { stop_.store(true, std::memory_order_release); }

    bool
    stopRequested() const
    {
        return stop_.load(std::memory_order_acquire);
    }

    bool
    failed() const
    {
        return failed_.load(std::memory_order_acquire);
    }

    /** The first error. Safe once failed() is true (the winner stored
     *  it before raising failed); the lock is cold-path insurance. */
    std::string
    error() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return error_;
    }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<bool> failed_{false};
    mutable std::mutex mutex_;
    std::string error_;
};

/**
 * Per-worker lifeline shared between a worker thread and its
 * supervisor (runtime/supervisor.h): a heartbeat the worker
 * publishes every loop iteration, a slot epoch the supervisor bumps to
 * supersede a wedged thread, and an exit latch that catches *anything*
 * leaving the worker loop — a crash drill, an escaped exception, or a
 * superseded thread acknowledging its replacement. Cache-line padded:
 * the heartbeat store is on every worker's per-iteration hot path.
 */
struct alignas(cacheLineBytes) WorkerLifeline
{
    /** Monotonic ns of the worker's last loop-top visit. Release
     *  store, acquire load: a worker beats holding no task, after its
     *  previous iteration's pushes, so a supervisor that reads the
     *  last beat of a wedged worker also sees everything that worker
     *  wrote into the scheduler before it. Pushes and pops after the
     *  beat are ordered against the reclaim by the scheduler's
     *  owner-side guard (Scheduler::setReclaimAfterMs). Both are plain
     *  moves on x86. */
    std::atomic<uint64_t> lastBeatNs{0};
    /** Slot incarnation. A worker captures the epoch at spawn and
     *  exits at the next loop top once the supervisor bumped it
     *  (acquire/release pairing: a superseded worker that observes the
     *  bump also observes everything the supervisor published before
     *  it). */
    std::atomic<uint64_t> epoch{1};
    /** Exit latch: set exactly once by the exiting thread of the
     *  current incarnation, consumed (and cleared) by the supervisor
     *  before a replacement is spawned. */
    std::atomic<bool> exited{false};
    /** True when the exit was a crash (drill or escaped exception)
     *  rather than a cooperative supersession/shutdown exit. */
    std::atomic<bool> crashed{false};
};

/**
 * Stall recovery, shared by run()'s monitor thread and the
 * ExecutorService's supervisor thread: mask worker `tid` out of
 * routing, then drain its buffered tasks into its live peers
 * (Scheduler::quarantine, Scheduler::reclaimWorker). The caller is the
 * one monitor thread of its runtime, and the scheduler's owner-side
 * guard is armed (setReclaimAfterMs > 0), so the drain is safe while
 * `tid`'s thread still runs. Records the drain's latency and size in
 * the ReclaimLatencyMs and ReclaimedTasks global series, which only
 * that monitor writes, and no worker's metric slot. Returns the tasks
 * moved.
 */
inline size_t
quarantineAndReclaim(Scheduler &sched, unsigned tid,
                     MetricsRegistry *metrics)
{
    sched.quarantine(tid);
    const unsigned peer = (tid + 1) % sched.numWorkers();
    const uint64_t t0 = nowNs();
    const size_t moved = sched.reclaimWorker(peer, tid);
    if (metrics) {
        metrics->recordGlobal(GlobalSeries::ReclaimLatencyMs,
                              double(nowNs() - t0) / 1e6);
        metrics->recordGlobal(GlobalSeries::ReclaimedTasks,
                              double(moved));
    }
    return moved;
}

/**
 * Deterministic token-bucket rate limiter: refills continuously at
 * ratePerSec up to a burst capacity; each admission consumes one
 * token. Callers pass the clock in, so tests can drive it with a
 * virtual time base and the refill math stays reproducible.
 *
 * NOT thread-safe — callers serialize access (the ExecutorService
 * consults its tenants' buckets under the admission mutex, which it
 * already holds on that path).
 */
class TokenBucket
{
  public:
    /** (Re)arm the bucket: ratePerSec <= 0 disables limiting (every
     *  tryTake succeeds). The bucket starts full. */
    void
    configure(double ratePerSec, double burst, uint64_t nowNs)
    {
        ratePerNs_ = ratePerSec > 0.0 ? ratePerSec / 1e9 : 0.0;
        capacity_ = std::max(burst, 1.0);
        tokens_ = capacity_;
        lastNs_ = nowNs;
    }

    bool unlimited() const { return ratePerNs_ <= 0.0; }

    /** Refill to `nowNs`, then take one token. False = rate exceeded. */
    bool
    tryTake(uint64_t nowNs)
    {
        if (unlimited())
            return true;
        if (nowNs > lastNs_) {
            tokens_ = std::min(
                capacity_,
                tokens_ + double(nowNs - lastNs_) * ratePerNs_);
            lastNs_ = nowNs;
        }
        if (tokens_ < 1.0)
            return false;
        tokens_ -= 1.0;
        return true;
    }

    double tokens() const { return tokens_; }

  private:
    double ratePerNs_ = 0.0; ///< 0 = unlimited
    double capacity_ = 1.0;
    double tokens_ = 1.0;
    uint64_t lastNs_ = 0;
};

/** Idle-loop backoff: brief spin, then yield so oversubscribed hosts
 *  (threads > cores) still make progress. */
class IdleBackoff
{
  public:
    void reset() { spins_ = 0; }

    /** One empty-handed round; yields every 32nd call. Returns true
     *  when it yielded (callers may escalate to sleeping). */
    bool
    idle()
    {
        if (++spins_ <= 32)
            return false;
        spins_ = 0;
        std::this_thread::yield();
        return true;
    }

  private:
    unsigned spins_ = 0;
};

} // namespace hdcps

#endif // HDCPS_RUNTIME_WORKER_COMMON_H_
