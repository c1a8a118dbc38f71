#include "runtime/supervisor.h"

#include "support/logging.h"
#include "support/timer.h"

namespace hdcps {

const char *
workerHealthName(WorkerHealth h)
{
    switch (h) {
    case WorkerHealth::Healthy: return "healthy";
    case WorkerHealth::Suspect: return "suspect";
    case WorkerHealth::Wedged: return "wedged";
    case WorkerHealth::Dead: return "dead";
    case WorkerHealth::Retired: return "retired";
    }
    return "?";
}

WorkerSupervisor::WorkerSupervisor(unsigned numWorkers,
                                   SupervisorPolicy policy)
    : policy_(policy)
{
    hdcps_check(numWorkers >= 1, "need at least one worker");
    hdcps_check(policy_.wedgedAfterMs >= policy_.suspectAfterMs,
                "wedged threshold below suspect threshold");
    // Every heartbeat starts fresh, so a slow thread start-up cannot
    // read as a wedge.
    const uint64_t now = nowNs();
    slots_.reserve(numWorkers);
    for (unsigned i = 0; i < numWorkers; ++i) {
        slots_.push_back(std::make_unique<Slot>());
        slots_.back()->lifeline.lastBeatNs.store(
            now, std::memory_order_relaxed);
    }
}

void
WorkerSupervisor::transition(Slot &slot, WorkerHealth next)
{
    slot.pendingTransitions += 1;
    totalTransitions_.fetch_add(1, std::memory_order_relaxed);
    slot.health.store(next, std::memory_order_release);
}

WorkerSupervisor::Decision
WorkerSupervisor::poll(unsigned tid, uint64_t nowNs)
{
    Slot &slot = *slots_[tid];
    const WorkerHealth h =
        slot.health.load(std::memory_order_relaxed);
    if (h == WorkerHealth::Retired || h == WorkerHealth::Dead)
        return Decision::None; // mid-heal or out of service

    WorkerLifeline &life = slot.lifeline;

    // The exit latch outranks staleness: the thread is provably gone.
    if (life.exited.load(std::memory_order_acquire)) {
        const bool crashed =
            life.crashed.load(std::memory_order_relaxed);
        // A clean exit from a non-superseded worker is the shutdown
        // drain — the shutdown flag governs it, not the supervisor.
        if (!crashed && h != WorkerHealth::Wedged)
            return Decision::None;
        if (crashed)
            crashesDetected_.fetch_add(1, std::memory_order_relaxed);
        transition(slot, WorkerHealth::Dead);
        if (escalated_.load(std::memory_order_relaxed) ||
            !restartAllowed(nowNs)) {
            escalated_.store(true, std::memory_order_release);
            return Decision::Escalate;
        }
        restartWindow_.push_back(nowNs); // pre-charge the budget
        return Decision::Restart;
    }

    const uint64_t hb =
        life.lastBeatNs.load(std::memory_order_acquire);
    if (nowNs <= hb)
        return Decision::None; // clock skew
    const uint64_t staleNs = nowNs - hb;
    const uint64_t suspectNs = policy_.suspectAfterMs * 1000000ull;
    const uint64_t wedgedNs = policy_.wedgedAfterMs * 1000000ull;

    if (staleNs >= wedgedNs) {
        if (h != WorkerHealth::Wedged) {
            // Supersede first (release pairs with the zombie's
            // superseded() acquire), then report: by the time the
            // service quarantines and reclaims, any late wake of the
            // stuck thread exits at its next loop top instead of
            // racing the reclamation.
            life.epoch.fetch_add(1, std::memory_order_release);
            wedgesDetected_.fetch_add(1, std::memory_order_relaxed);
            if (h == WorkerHealth::Healthy)
                transition(slot, WorkerHealth::Suspect);
            transition(slot, WorkerHealth::Wedged);
            return Decision::Quarantine;
        }
        return Decision::None; // already superseded; await its exit
    }
    if (staleNs >= suspectNs) {
        if (h == WorkerHealth::Healthy)
            transition(slot, WorkerHealth::Suspect);
        return Decision::None;
    }
    if (h == WorkerHealth::Suspect)
        transition(slot, WorkerHealth::Healthy); // heartbeat recovered
    return Decision::None;
}

void
WorkerSupervisor::noteRestarted(unsigned tid, uint64_t nowNs)
{
    Slot &slot = *slots_[tid];
    WorkerLifeline &life = slot.lifeline;
    life.crashed.store(false, std::memory_order_relaxed);
    life.lastBeatNs.store(nowNs, std::memory_order_relaxed);
    life.epoch.fetch_add(1, std::memory_order_relaxed);
    slot.restarts += 1;
    totalRestarts_.fetch_add(1, std::memory_order_relaxed);
    transition(slot, WorkerHealth::Healthy);
    // The clear comes last and releases the re-armed lifeline: the
    // slot's thread, parked in runSlot (worker_common.h), resumes on
    // observing it. Only that thread sets the latch again, so a
    // Quarantine bump racing its exit cannot release it early.
    life.exited.store(false, std::memory_order_release);
}

void
WorkerSupervisor::retire(unsigned tid)
{
    Slot &slot = *slots_[tid];
    if (slot.health.load(std::memory_order_relaxed) !=
        WorkerHealth::Retired)
        transition(slot, WorkerHealth::Retired);
}

bool
WorkerSupervisor::restartAllowed(uint64_t nowNs)
{
    const uint64_t windowNs = policy_.restartWindowMs * 1000000ull;
    while (!restartWindow_.empty() &&
           restartWindow_.front() + windowNs <= nowNs)
        restartWindow_.pop_front();
    return restartWindow_.size() < policy_.maxRestarts;
}

SupervisorStats
WorkerSupervisor::stats() const
{
    SupervisorStats s;
    s.healthTransitions =
        totalTransitions_.load(std::memory_order_relaxed);
    s.workerRestarts = totalRestarts_.load(std::memory_order_relaxed);
    s.wedgesDetected = wedgesDetected_.load(std::memory_order_relaxed);
    s.crashesDetected =
        crashesDetected_.load(std::memory_order_relaxed);
    s.escalated = escalated_.load(std::memory_order_acquire);
    return s;
}

uint64_t
WorkerSupervisor::drainTransitions(unsigned tid)
{
    Slot &slot = *slots_[tid];
    const uint64_t n = slot.pendingTransitions;
    slot.pendingTransitions = 0;
    return n;
}

} // namespace hdcps
