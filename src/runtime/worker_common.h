/**
 * @file
 * The runtime machinery shared by the one-shot executor (executor.cc)
 * and the long-lived multi-tenant ExecutorService
 * (executor_service.cc). Both run the paper's per-core loop (Section
 * III-A: pop from the local PQ or sRQ, process, route the children,
 * detect termination) and supervise it the same way, so the loop, the
 * thread entry around it and the monitor exist here once, and each
 * runtime supplies a compile-time policy for what really differs:
 *
 *  - runWorker: the one worker loop (executor.cc RunWorker and
 *    executor_service.cc JobWorker are its policies).
 *  - runSlot: the one slot entry, the function a worker thread runs
 *    for its slot: one CPU per slot (SlotPlacement), the loop, plus
 *    the one heal — a crashed or superseded slot parks and resumes on
 *    the same thread, and so on the same CPU.
 *  - Monitor / superviseSlots: the one monitor skeleton and decision
 *    table over the WorkerSupervisor FSM (runtime/supervisor.h), with
 *    a per-runtime tick hook (RunMonitor, JobMonitor).
 *  - quarantineAndReclaim: the one stall-recovery action that table
 *    takes (DESIGN.md §10, §15.2).
 *  - TerminationCounters: the distributed created/completed counters
 *    and the completed-first quiescence scan (DESIGN.md §11), one per
 *    run in the executor and one per *job* in the service.
 *  - FailureLatch: first-error-wins failure latching plus the stop
 *    flag workers drain on, one per run or per job, so one job's
 *    failure stops only that job.
 *  - IdleBackoff: the brief-spin-then-yield policy an empty-handed
 *    worker follows so oversubscribed hosts still make progress.
 *  - TokenBucket: the deterministic admission rate limiter the
 *    service's per-tenant quotas use (DESIGN.md §17).
 */

#ifndef HDCPS_RUNTIME_WORKER_COMMON_H_
#define HDCPS_RUNTIME_WORKER_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cps/scheduler.h"
#include "obs/metrics.h"
#include "runtime/supervisor.h"
#include "support/compiler.h"
#include "support/fault.h"
#include "support/logging.h"
#include "support/straggler.h"
#include "support/timer.h"
#include "support/topology.h"

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
        const uint64_t done = completedTotal();
        return sum(created_) == done;
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
        const uint64_t done = completedTotal();
        return sum(created_) - done;
    }

    uint64_t completedTotal() const { return sum(completed_); }

  private:
    using Slots = std::vector<Padded<std::atomic<uint64_t>>>;

    static uint64_t
    sum(const Slots &slots)
    {
        uint64_t total = 0;
        for (const auto &c : slots)
            total += c.value.load(std::memory_order_acquire);
        return total;
    }

    Slots created_;
    Slots completed_;
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
 * Bind a runtime's `numThreads` worker slots to `sched`: check the
 * counts, attach `metrics` (when set), and set the owner-side guard,
 * which is on (reclaimAfterMs > 0) exactly when a monitor may reclaim
 * (DESIGN.md §10). Set either way, so a scheduler reused across
 * runtimes never carries an armed guard into one that wants it off.
 */
inline void
bindScheduler(Scheduler &sched, unsigned numThreads,
              MetricsRegistry *metrics, uint64_t reclaimAfterMs)
{
    hdcps_check(numThreads >= 1, "need at least one thread");
    hdcps_check(numThreads == sched.numWorkers(),
                "thread count (%u) != scheduler workers (%u)",
                numThreads, sched.numWorkers());
    if (metrics) {
        hdcps_check(metrics->numWorkers() >= numThreads,
                    "metrics registry has %u workers, need %u",
                    metrics->numWorkers(), numThreads);
        sched.attachMetrics(metrics);
    }
    sched.setReclaimAfterMs(reclaimAfterMs);
}

/**
 * Stall recovery, the action superviseSlots takes for both runtimes:
 * mask worker `tid` out of routing, then drain its buffered tasks into
 * its live peers (Scheduler::quarantine, Scheduler::reclaimWorker).
 * The caller is the one monitor thread of its runtime, and the
 * scheduler's owner-side guard is armed (setReclaimAfterMs > 0), so
 * the drain is safe while `tid`'s thread still runs. Records the
 * drain's latency and size in the ReclaimLatencyMs and ReclaimedTasks
 * global series, which only that monitor writes — one sample each per
 * call, even when nothing moved. Returns the tasks moved.
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

/**
 * The one worker loop. Policy hooks (inlined): `sched()`,
 * `supervisor()` (null when unsupervised), `stopRequested()` (leave at
 * the loop top), `beforePop()` (its result goes to the pop's outcome
 * hook), `onEmpty(ctx, backoff)` (false leaves), `onTask(task, ctx)`,
 * and `beforeBlock()`, run before every point where the worker may
 * block or leave. Returns true when `epoch` was superseded, false when
 * the policy ended the loop; the svc.worker.die drill throws.
 */
template <class Policy>
bool
runWorker(Policy &policy, unsigned tid, uint64_t epoch)
{
    Scheduler &sched = policy.sched();
    WorkerSupervisor *const supervisor = policy.supervisor();
    IdleBackoff backoff;
    while (true) {
        if (policy.stopRequested()) {
            policy.beforeBlock();
            return false;
        }

        if (supervisor) {
            // Loop top, holding no task: publish liveness.
            supervisor->beat(tid, nowNs());
            if (supervisor->superseded(tid, epoch)) {
                policy.beforeBlock();
                return true;
            }
            // Crash drill: die as if a bug killed this worker.
            if (faultFires(faultsite::SvcWorkerDie)) {
                policy.beforeBlock();
                throw FaultInjectedError(
                    "injected worker death (svc.worker.die)");
            }
            // Wedge drill: stall without heartbeats, holding no task.
            // A Delay-armed site sets the stall; other modes stall 3x
            // the wedged threshold so the detection provably trips.
            if (faultFires(faultsite::SvcWorkerWedge)) {
                policy.beforeBlock();
                uint64_t ns = faultAmount(faultsite::SvcWorkerWedge);
                if (ns == 0)
                    ns = supervisor->policy().wedgedAfterMs * 3000000ull;
                std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
                if (supervisor->superseded(tid, epoch))
                    return true;
            }
        }

        // Straggler drill: a paused worker looks exactly like a
        // descheduled one (stale heartbeat, stranded queues).
        if (StragglerInjector::active() != nullptr) {
            policy.beforeBlock();
            stragglerPausePoint(tid);
        }

        auto ctx = policy.beforePop();
        Task task;
        // Fault drill: the pop misfires; the task stays queued.
        if (faultFires(faultsite::ExecPopFail) || !sched.tryPop(tid, task)) {
            if (!policy.onEmpty(ctx, backoff)) {
                policy.beforeBlock();
                return false;
            }
            continue;
        }
        backoff.reset();
        policy.onTask(task, ctx);
    }
}

/**
 * The mask the calling thread entered its runSlot with while that slot
 * holds it pinned to one CPU, else null. A thread such a worker spawns
 * (a nested run()'s new helper) starts from this mask instead of
 * inheriting the worker's one CPU.
 */
inline thread_local const std::vector<unsigned> *slotEntryCpus = nullptr;

/**
 * One CPU per worker slot (DESIGN.md §16.5), applied by runSlot right
 * after each onWorkerStart. `plan` is the runtime's planSlotCpus; an
 * empty plan pins nothing. A scheduler that placed the thread itself
 * in onWorkerStart wins: the pin happens only while the thread's mask
 * is still the one it entered the slot with. A healed slot's thread is
 * then still on its CPU, so it keeps it.
 */
class SlotPlacement
{
  public:
    SlotPlacement(const std::vector<unsigned> &plan, unsigned tid)
        : planned_(!plan.empty()), cpu_(planned_ ? plan[tid] : 0),
          entry_(planned_ ? threadCpus() : std::vector<unsigned>()),
          outer_(slotEntryCpus)
    {}

    ~SlotPlacement() { slotEntryCpus = outer_; }

    SlotPlacement(const SlotPlacement &) = delete;
    SlotPlacement &operator=(const SlotPlacement &) = delete;

    void
    apply()
    {
        if (planned_ && threadCpus() == entry_ && pinThreadToCpu(cpu_))
            slotEntryCpus = &entry_;
    }

  private:
    const bool planned_;
    const unsigned cpu_;
    const std::vector<unsigned> entry_;
    const std::vector<unsigned> *const outer_;
};

/**
 * The one slot entry: a worker thread's whole stay in slot `tid`. It
 * announces the thread (onWorkerStart: topology-aware designs pin it),
 * gives it its own CPU from the policy's `slotCpus()` plan unless the
 * scheduler placed it (SlotPlacement), and runs the loop. A superseded
 * or crashed loop (anything thrown counts) latches its exit and parks,
 * holding no task, until the monitor re-arms the slot; then the same
 * thread announces itself again and carries on. Returns when the loop
 * ends, the runtime stops or the slot is retired. Unsupervised, a
 * throw propagates. The thread's mask stays as placed: run() restores
 * it, the service's threads keep it for good.
 */
template <class Policy>
void
runSlot(Policy &policy, unsigned tid)
{
    WorkerSupervisor *const supervisor = policy.supervisor();
    SlotPlacement placement(policy.slotCpus(), tid);
    while (true) {
        policy.sched().onWorkerStart(tid);
        placement.apply();
        if (supervisor == nullptr) {
            runWorker(policy, tid, 0);
            return;
        }
        bool crashed = false;
        try {
            if (!runWorker(policy, tid, supervisor->epochOf(tid)))
                return;
        } catch (...) {
            crashed = true;
        }
        supervisor->noteExit(tid, crashed);
        while (supervisor->awaitingRearm(tid)) {
            if (policy.stopRequested() ||
                supervisor->health(tid) == WorkerHealth::Retired)
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }
}

/**
 * The one decision table: poll every slot's FSM and act. Restart is
 * the one heal: the slot's thread is parked in runSlot, so reclaim
 * again (it may have pushed since the first drain; a crash was never
 * drained), flush the slot's counters while its metric row is still
 * ours (the re-arm's own Dead -> Healthy flip lands with the next
 * flush), then noteRestarted, whose last store releases the thread,
 * and reinstate. Policy hooks: `sched()`, `metrics()`, `onReclaimed()`
 * and `onEscalate(tid)`.
 */
template <class Policy>
void
superviseSlots(Policy &policy, WorkerSupervisor &supervisor)
{
    Scheduler &sched = policy.sched();
    MetricsRegistry *metrics = policy.metrics();
    for (unsigned tid = 0; tid < supervisor.numWorkers(); ++tid) {
        switch (supervisor.poll(tid, nowNs())) {
          case WorkerSupervisor::Decision::Quarantine:
            quarantineAndReclaim(sched, tid, metrics);
            policy.onReclaimed();
            break;
          case WorkerSupervisor::Decision::Restart:
            quarantineAndReclaim(sched, tid, metrics);
            policy.onReclaimed();
            if (metrics) {
                metrics->add(tid, WorkerCounter::WorkerRestarts);
                metrics->add(tid, WorkerCounter::HealthTransitions,
                             supervisor.drainTransitions(tid));
            }
            supervisor.noteRestarted(tid, nowNs());
            sched.reinstate(tid);
            break;
          case WorkerSupervisor::Decision::Escalate:
            policy.onEscalate(tid);
            break;
          case WorkerSupervisor::Decision::None:
            break;
        }
    }
}

/**
 * The one monitor skeleton: a thread that sleeps on one condvar per
 * `tickMs`, runs superviseSlots every probe interval when the policy's
 * `supervisor()` is set, then calls its `bool onTick(nowNs)`; false
 * retires the thread, and so does stop(), which also joins it.
 */
class Monitor
{
  public:
    ~Monitor() { stop(); }

    /** Start the thread; it owns `policy` (moved in). */
    template <class Policy>
    void
    start(Policy policy, uint64_t tickMs)
    {
        thread_ = std::thread(
            [this, tickMs](Policy p) { loop(p, tickMs); },
            std::move(policy));
    }

    /** Retire and join the thread, if it runs. Idempotent. */
    void
    stop()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopped_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    template <class Policy>
    void
    loop(Policy &policy, uint64_t tickMs)
    {
        WorkerSupervisor *const supervisor = policy.supervisor();
        const uint64_t probeNs =
            supervisor ? std::max<uint64_t>(
                             supervisor->policy().probeIntervalMs, 1) *
                             1000000ull
                       : 0;
        uint64_t lastProbeNs = nowNs();
        std::unique_lock<std::mutex> lock(mutex_);
        while (!cv_.wait_for(lock, std::chrono::milliseconds(tickMs),
                             [this] { return stopped_; })) {
            lock.unlock();
            const uint64_t now = nowNs();
            if (supervisor && now - lastProbeNs >= probeNs) {
                lastProbeNs = now;
                superviseSlots(policy, *supervisor);
            }
            const bool more = policy.onTick(now);
            lock.lock();
            if (!more)
                return;
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopped_ = false; ///< guarded by mutex_
    std::thread thread_;
};

} // namespace hdcps

#endif // HDCPS_RUNTIME_WORKER_COMMON_H_
