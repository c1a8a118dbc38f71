/**
 * @file
 * Worker supervision for both runtimes — run()'s monitor thread and
 * the ExecutorService's supervisor thread: a per-worker health FSM
 * driven by heartbeat freshness and the worker-exit latch, plus the
 * restart-budget policy that decides between healing and escalation.
 * It is the repo's one way to find a stalled worker (DESIGN.md §10).
 *
 * Health model (DESIGN.md §15):
 *
 *       fresh beat                 stale > suspectAfterMs
 *   Healthy <-------- Suspect -------------------------+
 *      |  ^              |                             |
 *      |  | noteRestarted| stale > wedgedAfterMs       |
 *      |  |              v                             |
 *      |  +---------- Wedged --(exit latch)--> Dead ---+--> Retired
 *      |                                        ^    (budget spent /
 *      +------------- (crash exit latch) -------+     shutdown)
 *
 * Division of labor: the supervisor *detects and decides* — it never
 * touches scheduler queues, metric slots, or threads itself. The
 * runtime's monitor executes the returned Decision: quarantine +
 * reclaim (quarantineAndReclaim in worker_common.h) in both; join +
 * respawn of the std::thread and metric flushes in the post-join safe
 * window in the service, while run() re-arms the slot for the same
 * thread. That split keeps this class a lock-free state machine that
 * unit tests drive without threads (test_service.cc,
 * WorkerSupervisorFsm.*).
 *
 * Threading contract:
 *  - Worker API (beat / superseded / noteExit) is called by worker
 *    threads; it only touches that worker's padded WorkerLifeline
 *    atomics.
 *  - Supervisor API (poll / noteRestarted / retire / restartAllowed)
 *    is called by exactly one supervisor thread; per-slot FSM state is
 *    plain data owned by that thread.
 *  - Read-only views (health / stats accessors) are safe from any
 *    thread: health is mirrored into an atomic per slot.
 */

#ifndef HDCPS_RUNTIME_SUPERVISOR_H_
#define HDCPS_RUNTIME_SUPERVISOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "runtime/worker_common.h"

namespace hdcps {

/** Per-worker health states, ordered by severity. */
enum class WorkerHealth : uint8_t {
    Healthy, ///< heartbeat fresh, thread live
    Suspect, ///< heartbeat stale past the suspect threshold
    Wedged,  ///< stale past the wedged threshold; superseded + quarantined
    Dead,    ///< exit latch observed (crash, or wedged thread drained out)
    Retired, ///< slot permanently out of service (escalation / shutdown)
};

const char *workerHealthName(WorkerHealth h);

/** Detection thresholds and healing budget for the supervisor. */
struct SupervisorPolicy
{
    /** Master switch; when false the service spawns no supervisor
     *  thread and workers pay only the heartbeat store. */
    bool enabled = false;
    /** Supervisor probe cadence. */
    uint64_t probeIntervalMs = 2;
    /** Heartbeat staleness that demotes Healthy -> Suspect. */
    uint64_t suspectAfterMs = 20;
    /** Staleness that demotes Suspect -> Wedged (supersede, quarantine,
     *  reclaim). Must be >= suspectAfterMs. */
    uint64_t wedgedAfterMs = 100;
    /** Replacement spawns allowed per sliding window before the
     *  supervisor escalates and fails the service. */
    unsigned maxRestarts = 8;
    /** Width of the restart-budget sliding window. */
    uint64_t restartWindowMs = 10000;
};

/** Aggregate supervision counters (monotone; readable any time). */
struct SupervisorStats
{
    uint64_t healthTransitions = 0;
    uint64_t workerRestarts = 0;
    uint64_t wedgesDetected = 0;
    uint64_t crashesDetected = 0;
    bool escalated = false;
};

/**
 * The health FSM over all worker slots. One instance per
 * ExecutorService (or per run() with reclamation armed), sized at
 * construction; slots are identified by the same tid the scheduler and
 * metrics use.
 */
class WorkerSupervisor
{
  public:
    /** What the runtime's monitor must do for a slot now. */
    enum class Decision : uint8_t {
        None,       ///< no action
        Quarantine, ///< newly Wedged: quarantine + reclaim; epoch bumped
        Restart,    ///< Dead, budget ok: join, reclaim, respawn, then
                    ///< noteRestarted
        Escalate,   ///< Dead, budget spent: fail the service, retire
    };

    WorkerSupervisor(unsigned numWorkers, SupervisorPolicy policy);

    // ---- worker-thread API -------------------------------------------

    /** Publish liveness; call at every loop top. One padded release
     *  store (WorkerLifeline::lastBeatNs says why release). */
    void
    beat(unsigned tid, uint64_t nowNs)
    {
        slots_[tid]->lifeline.lastBeatNs.store(
            nowNs, std::memory_order_release);
    }

    /** True once the supervisor superseded this incarnation: the
     *  caller must leave its loop top and noteExit() — the service's
     *  worker exits, a run() worker waits to be re-armed. Acquire
     *  pairs with the supervisor's epoch bump. */
    bool
    superseded(unsigned tid, uint64_t myEpoch) const
    {
        return slots_[tid]->lifeline.epoch.load(
                   std::memory_order_acquire) != myEpoch;
    }

    /** The epoch a newly spawned worker must capture before its first
     *  superseded() check. */
    uint64_t
    epochOf(unsigned tid) const
    {
        return slots_[tid]->lifeline.epoch.load(
            std::memory_order_acquire);
    }

    /** Latch this incarnation's exit. Every path out of the worker
     *  loop must call this exactly once; `crashed` marks drill-killed
     *  or exception exits (they trigger healing) versus cooperative
     *  supersession/shutdown exits (consumed silently). */
    void
    noteExit(unsigned tid, bool crashed)
    {
        WorkerLifeline &life = slots_[tid]->lifeline;
        life.crashed.store(crashed, std::memory_order_relaxed);
        life.exited.store(true, std::memory_order_release);
    }

    // ---- supervisor-thread API (single caller) -----------------------

    /**
     * Advance slot `tid`'s FSM against the clock and return what the
     * service must do. Quarantine is returned exactly once per wedge
     * (the epoch is bumped before returning, superseding the stuck
     * thread); Restart/Escalate exactly once per death (the exit latch
     * is consumed). Restart decisions pre-charge the budget window.
     */
    Decision poll(unsigned tid, uint64_t nowNs);

    /** Re-arm `tid`'s lifeline (fresh heartbeat, clear latches, bump
     *  the epoch last) and mark Healthy. The service calls it after
     *  joining the old thread and before spawning the replacement;
     *  run() calls it while the superseded thread waits to resume. */
    void noteRestarted(unsigned tid, uint64_t nowNs);

    /** Permanently remove `tid` from supervision (escalation or
     *  shutdown teardown of a dead slot). */
    void retire(unsigned tid);

    /** True while the restart budget has headroom at `nowNs`. */
    bool restartAllowed(uint64_t nowNs);

    // ---- read-only views (any thread) --------------------------------

    WorkerHealth
    health(unsigned tid) const
    {
        return slots_[tid]->health.load(std::memory_order_acquire);
    }

    bool
    escalated() const
    {
        return escalated_.load(std::memory_order_acquire);
    }

    SupervisorStats stats() const;

    /** Health transitions charged to slot `tid` since the last drain.
     *  Supervisor thread only; the service flushes the value into the
     *  per-worker metrics slot inside the post-join safe window. */
    uint64_t drainTransitions(unsigned tid);

    const SupervisorPolicy &policy() const { return policy_; }
    unsigned numWorkers() const { return unsigned(slots_.size()); }

  private:
    struct Slot
    {
        WorkerLifeline lifeline;
        /** Mirrored FSM state for cross-thread reads. */
        std::atomic<WorkerHealth> health{WorkerHealth::Healthy};
        /** Supervisor-private: transitions not yet drained into the
         *  per-worker metrics slot. */
        uint64_t pendingTransitions = 0;
        uint64_t restarts = 0;
    };

    void transition(Slot &slot, WorkerHealth next);

    SupervisorPolicy policy_;
    std::vector<std::unique_ptr<Slot>> slots_;
    /** Restart timestamps inside the sliding budget window
     *  (supervisor-thread private). */
    std::deque<uint64_t> restartWindow_;
    std::atomic<uint64_t> totalTransitions_{0};
    std::atomic<uint64_t> totalRestarts_{0};
    std::atomic<uint64_t> wedgesDetected_{0};
    std::atomic<uint64_t> crashesDetected_{0};
    std::atomic<bool> escalated_{false};
};

} // namespace hdcps

#endif // HDCPS_RUNTIME_SUPERVISOR_H_
