/**
 * @file
 * The common interface all threaded concurrent priority schedulers
 * (CPS designs) implement.
 *
 * A CPS stores newly created tasks and distributes them among worker
 * threads. Workers interact with it from inside the runtime's worker
 * loop: pop a task, process it, push the generated children. The
 * interface is deliberately minimal so every design in the paper — RELD,
 * OBIM, PMOD, Software Minnow, and HD-CPS:SW — plugs into the same
 * runtime and the same workloads.
 *
 * Contract:
 *  - push/tryPop may be called concurrently from different worker ids;
 *    a given worker id is only ever driven by one thread at a time.
 *  - Relaxed priority order: tryPop returns *a* high-priority task, not
 *    necessarily the global best (that relaxation is the whole point of
 *    a CPS).
 *  - No task loss: every pushed task is returned by some tryPop exactly
 *    once. Termination detection is the runtime's job (it counts
 *    in-flight tasks), so transient emptiness is fine.
 */

#ifndef HDCPS_CPS_SCHEDULER_H_
#define HDCPS_CPS_SCHEDULER_H_

#include <cstddef>

#include "cps/task.h"
#include "obs/metrics.h"

namespace hdcps {

/** Abstract threaded concurrent priority scheduler. */
class Scheduler
{
  public:
    explicit Scheduler(unsigned numWorkers) : numWorkers_(numWorkers) {}
    virtual ~Scheduler() = default;

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Insert one task on behalf of worker tid. */
    virtual void push(unsigned tid, const Task &task) = 0;

    /**
     * Insert a batch of children created by one parent task. Designs
     * with bag support override this — Algorithm 1 operates on exactly
     * this batch. The default forwards to push() one task at a time.
     */
    virtual void
    pushBatch(unsigned tid, const Task *tasks, size_t count)
    {
        for (size_t i = 0; i < count; ++i)
            push(tid, tasks[i]);
    }

    /**
     * Remove a high-priority task for worker tid. Returns false when
     * this worker currently sees no work (other workers may still have
     * some; the runtime keeps polling until its in-flight count hits 0).
     */
    virtual bool tryPop(unsigned tid, Task &out) = 0;

    /** Human-readable design name ("reld", "obim", ...). */
    virtual const char *name() const = 0;

    /**
     * Approximate number of buffered tasks, callable from *any* thread
     * while workers run — used by the runtime watchdog's stall
     * diagnostic. Implementations must only read race-free state
     * (atomics or locked structures); owner-private buffers may be
     * excluded, so the count can undershoot. The default, 0, means
     * "unknown".
     */
    virtual size_t sizeApprox() const { return 0; }

    unsigned numWorkers() const { return numWorkers_; }

    /**
     * Owner-side guard knob: `ms` > 0 means a monitor may call
     * reclaimWorker while workers run (its stall window, in
     * milliseconds), 0 means none will. Designs with owner-private
     * buffers guard every owner access to them while it is set. run()
     * forwards RunOptions::reclaimAfterMs here before the workers
     * start, and the ExecutorService its supervisor's wedged threshold
     * (0 without a supervisor). Designs without per-worker buffers
     * ignore it (the default). Must be called while no worker is
     * inside push/tryPop.
     */
    virtual void setReclaimAfterMs(uint64_t ms) { (void)ms; }

    /**
     * Worker-thread lifecycle hook: the runtime calls this from worker
     * `tid`'s *own* thread before its first pop — at pool startup,
     * again each time a healed slot's thread resumes after its re-arm,
     * and in run() at every run on each worker's thread, the caller's
     * (worker 0) included; run() restores each thread's CPU mask when
     * its worker body ends.
     * Topology-aware designs pin the calling thread to the slot's NUMA
     * node here, so a healed slot re-pins to its node group. Right
     * after this hook both runtimes pin the thread to the slot's own
     * CPU, unless the hook changed the thread's CPU mask: a design
     * that places its workers wins (DESIGN.md §16.5). Must
     * be idempotent and safe while other workers run (the default is a
     * no-op; overrides must not touch cross-worker state).
     */
    virtual void onWorkerStart(unsigned tid) { (void)tid; }

    /**
     * Supervision hook: stop routing new work toward worker `tid`.
     * Designs with per-worker destination choice (HD-CPS's chooseDest)
     * mask the slot so remote deliveries avoid a wedged/dead worker's
     * queues while its backlog is reclaimed; designs whose queues are
     * globally shared have nothing to mask (the default no-op). The
     * quarantined worker id itself may keep calling push/tryPop — its
     * thread resumes in the same slot once re-armed. Safe to call from
     * a monitor thread while workers run.
     */
    virtual void quarantine(unsigned tid) { (void)tid; }

    /** Supervision hook: lift a quarantine() so worker `tid` receives
     *  remote work again (the slot's thread is re-armed). */
    virtual void reinstate(unsigned tid) { (void)tid; }

    /**
     * Supervision hook: forcibly drain worker `victim`'s buffered
     * tasks (sRQ, overflow, bags, private PQ) into its live peers,
     * starting at worker `reclaimer`. Returns the number of tasks
     * moved. It pops the victim's owner-private queues, so it may run
     * while the victim's thread is inside push/tryPop only if
     * setReclaimAfterMs armed the owner-side guard; otherwise the
     * caller must guarantee the victim's thread is out of them.
     * Designs without per-worker buffers return 0 (the default).
     */
    virtual size_t
    reclaimWorker(unsigned reclaimer, unsigned victim)
    {
        (void)reclaimer;
        (void)victim;
        return 0;
    }

    /**
     * Attach an observability registry (nullptr detaches). Designs
     * record occupancy series and distribution counters into it; when
     * none is attached the hot paths pay one predictable branch.
     * Wrapper schedulers override this to forward the registry to the
     * wrapped design. Must be called while no worker is inside
     * push/tryPop.
     */
    virtual void attachMetrics(MetricsRegistry *metrics)
    {
        metrics_ = metrics;
    }

    MetricsRegistry *metrics() const { return metrics_; }

  protected:
    MetricsRegistry *metrics_ = nullptr;

  private:
    unsigned numWorkers_;
};

} // namespace hdcps

#endif // HDCPS_CPS_SCHEDULER_H_
