/**
 * @file
 * Worker supervision for both runtimes, polled by the one monitor
 * skeleton (Monitor in worker_common.h): a per-worker health FSM
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
 * Division of labor: the supervisor *detects and decides*; it never
 * touches scheduler queues, metric slots, or threads. The monitor's
 * one decision table (superviseSlots in worker_common.h) acts the same
 * way in both runtimes, so this class stays a lock-free state machine
 * that unit tests drive without threads (WorkerSupervisorFsm.*).
 *
 * Threading contract:
 *  - Worker API (beat / superseded / noteExit / awaitingRearm): worker
 *    threads, touching only their own padded WorkerLifeline atomics.
 *  - Supervisor API (poll / noteRestarted / retire): exactly one
 *    monitor thread, which owns the per-slot FSM state.
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

#include "support/compiler.h"

namespace hdcps {

/**
 * Per-worker lifeline shared between a worker thread and its
 * supervisor: a heartbeat, a slot epoch the supervisor bumps to
 * supersede a wedged thread, and an exit latch for a loop left to be
 * re-armed (crash or supersession). Cache-line padded: the heartbeat
 * store is on every worker's per-iteration hot path.
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
    /** Slot incarnation, captured when a worker enters the loop; the
     *  worker leaves at the next loop top once it was bumped
     *  (acquire/release). */
    std::atomic<uint64_t> epoch{1};
    /** Exit latch: set by the slot's thread when it parks for a
     *  re-arm, cleared last by noteRestarted (release). The thread
     *  resumes on observing the clear, so it sees the whole re-arm —
     *  reclaim, metric flush, new epoch — before its next pop. */
    std::atomic<bool> exited{false};
    /** True when the exit was a crash (drill or escaped exception)
     *  rather than a cooperative supersession. */
    std::atomic<bool> crashed{false};
};

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
    /** Master switch; when false the service's monitor polls no FSM
     *  and workers skip the heartbeat store and the drills. */
    bool enabled = false;
    /** Supervisor probe cadence. */
    uint64_t probeIntervalMs = 2;
    /** Heartbeat staleness that demotes Healthy -> Suspect. */
    uint64_t suspectAfterMs = 20;
    /** Staleness that demotes Suspect -> Wedged (supersede, quarantine,
     *  reclaim). Must be >= suspectAfterMs. */
    uint64_t wedgedAfterMs = 100;
    /** Restarts allowed per sliding window before the supervisor
     *  escalates and fails the service. */
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
        Restart,    ///< Dead, budget ok: reclaim again, flush the
                    ///< slot's metrics, noteRestarted, reinstate;
                    ///< the slot's own thread then resumes
        Escalate,   ///< Dead, budget spent: fail the service, retire
    };

    /** Every slot starts with a fresh heartbeat (now). */
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
     *  caller must leave its loop top, noteExit() and wait to be
     *  re-armed. Acquire pairs with the supervisor's epoch bump. */
    bool
    superseded(unsigned tid, uint64_t myEpoch) const
    {
        return slots_[tid]->lifeline.epoch.load(
                   std::memory_order_acquire) != myEpoch;
    }

    /** The epoch a worker captures on entering the loop, before its
     *  first superseded() check. */
    uint64_t
    epochOf(unsigned tid) const
    {
        return slots_[tid]->lifeline.epoch.load(
            std::memory_order_acquire);
    }

    /** Latch this incarnation's exit when it leaves the loop to be
     *  re-armed; `crashed` marks drill-killed or exception exits
     *  versus cooperative supersession exits. A loop that ends because
     *  its runtime stopped latches nothing. */
    void
    noteExit(unsigned tid, bool crashed)
    {
        WorkerLifeline &life = slots_[tid]->lifeline;
        life.crashed.store(crashed, std::memory_order_relaxed);
        life.exited.store(true, std::memory_order_release);
    }

    /** True while `tid`'s latched exit waits for noteRestarted. The
     *  acquire pairs with noteRestarted's release clear. */
    bool
    awaitingRearm(unsigned tid) const
    {
        return slots_[tid]->lifeline.exited.load(
            std::memory_order_acquire);
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

    /** Re-arm `tid`'s lifeline (fresh heartbeat, new epoch, exit latch
     *  cleared last) and mark Healthy. The monitor calls it while the
     *  slot's thread is parked in runSlot; the clear releases it. */
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
     *  Monitor thread only; superviseSlots flushes the value into the
     *  per-worker metrics slot while the slot's thread is parked. */
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
