#include "runtime/executor_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "support/fault.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/timer.h"
#include "support/topology.h"

namespace hdcps {

namespace detail {

/**
 * Everything the service tracks for one job. Shared between the
 * service (jobs table, admission queue) and the caller's JobHandle;
 * the record outlives the service entry so handles stay valid after
 * the job finishes.
 */
struct JobRecord
{
    JobRecord(unsigned numSlots, ExecutorService *owner)
        : term(numSlots), svc(owner)
    {}

    JobId id = 0;
    std::string name;
    ProcessFn process;
    RetryPolicy retry;
    Priority priority = 0;
    TenantId tenant = 0;
    /** Effective fair-share weight (JobSpec::weight, or the tenant
     *  quota default). Written once at submit under admitMutex_. */
    double weight = 1.0;
    /** SFQ service demand: max(1, seed count). */
    double cost = 1.0;
    Priority demotePenalty = 0;
    uint64_t submitNs = 0;
    uint64_t deadlineNs = 0; ///< absolute; 0 = no deadline
    uint64_t demoteAfterNs = 0; ///< absolute; 0 = no auto-demotion
    std::vector<Task> initial;

    /**
     * Preemption level: popped incarnations whose demote stamp lags
     * this are re-tagged (priority += levels * demotePenalty) and
     * re-pushed instead of processed. Bumped by deprioritize() and the
     * monitor's demoteAfterMs path; never decremented.
     */
    std::atomic<uint32_t> demoteLevel{0};
    std::atomic<RejectReason> rejectReason{RejectReason::None};

    std::atomic<JobState> state{JobState::Queued};
    /**
     * Pending terminal verdict for failure paths. Completed doubles
     * as the "no failure claimed" sentinel; the first terminateJob
     * CAS wins and its Failed/Cancelled value is what the finishing
     * worker publishes. Stored before the latch raises stop, so any
     * worker that observes stopRequested also observes the verdict
     * (release/acquire through the stop flag).
     */
    std::atomic<JobState> verdict{JobState::Completed};

    /** Per-job conservation ledger + quiescence scan — the executor's
     *  run-level termination counters, one instance per tenant. */
    TerminationCounters term;
    /** Per-job drain latch: stopRequested() is the worker-visible
     *  "discard this job's tasks" signal. */
    FailureLatch latch;

    std::atomic<double> latencyMs{0.0};
    std::mutex waitMutex;
    std::condition_variable waitCv;

    /**
     * Poison-task quarantine. A task the svc.task.poison drill marks
     * (keyed by node+data, attempt-independent) fails on *every*
     * attempt; once retries are exhausted the final incarnation lands
     * in deadLetters instead of being re-queued forever. poisonGate is
     * the hot-path skip: the per-task check costs one relaxed load
     * until the first poisoning (release store pairs with the acquire
     * load so a retry incarnation popped elsewhere sees its key).
     */
    std::atomic<uint32_t> poisonGate{0};
    mutable std::mutex poisonMutex;
    std::vector<uint64_t> poisonKeys;
    std::vector<Task> deadLetters;
    std::atomic<uint64_t> poisoned{0};

    static uint64_t
    poisonKey(const Task &t)
    {
        return (uint64_t(t.node) << 32) | t.data;
    }

    void
    markPoisoned(const Task &t)
    {
        std::lock_guard<std::mutex> lock(poisonMutex);
        uint64_t key = poisonKey(t);
        for (uint64_t k : poisonKeys) {
            if (k == key)
                return;
        }
        poisonKeys.push_back(key);
        poisonGate.store(uint32_t(poisonKeys.size()),
                         std::memory_order_release);
    }

    bool
    isPoisoned(const Task &t) const
    {
        if (poisonGate.load(std::memory_order_acquire) == 0)
            return false;
        std::lock_guard<std::mutex> lock(poisonMutex);
        uint64_t key = poisonKey(t);
        for (uint64_t k : poisonKeys) {
            if (k == key)
                return true;
        }
        return false;
    }

    ExecutorService *svc; ///< valid until the job is terminal
    /** Owning tenant's fair-queueing state (stable address; set at
     *  submit under admitMutex_, before any task of the job exists). */
    ExecutorService::TenantState *tenantState = nullptr;
};

} // namespace detail

using detail::JobRecord;

const char *
jobStateName(JobState s)
{
    static const char *const names[] = {
        "queued",    "running",   "draining", "completed",
        "failed",    "cancelled", "rejected",
    };
    return names[unsigned(s)];
}

const char *
rejectReasonName(RejectReason r)
{
    static const char *const names[] = {
        "none",          "invalid_spec",        "queue_full",
        "tenant_queue_full", "tenant_rate_limited", "shutting_down",
        "escalated",
    };
    return names[unsigned(r)];
}

// --- JobHandle ---------------------------------------------------------

JobId
JobHandle::id() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->id;
}

const std::string &
JobHandle::name() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->name;
}

JobState
JobHandle::state() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->state.load(std::memory_order_acquire);
}

std::string
JobHandle::error() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    JobState s = record_->state.load(std::memory_order_acquire);
    if (s != JobState::Failed && s != JobState::Cancelled &&
        s != JobState::Rejected)
        return std::string();
    return record_->latch.failed() ? record_->latch.error()
                                   : std::string();
}

bool
JobHandle::cancel()
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    if (jobStateTerminal(record_->state.load(std::memory_order_acquire)))
        return false;
    // Non-terminal implies the service is still alive (shutdown only
    // returns once every admitted job is terminal), so svc is valid.
    return record_->svc->terminateJob(record_, JobState::Cancelled,
                                      "job '" + record_->name +
                                          "' cancelled",
                                      /*widenCancelRace=*/true);
}

JobState
JobHandle::wait()
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    JobRecord &r = *record_;
    std::unique_lock<std::mutex> lock(r.waitMutex);
    r.waitCv.wait(lock, [&r] {
        return jobStateTerminal(r.state.load(std::memory_order_acquire));
    });
    return r.state.load(std::memory_order_acquire);
}

bool
JobHandle::waitFor(uint64_t ms, JobState *out)
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    JobRecord &r = *record_;
    std::unique_lock<std::mutex> lock(r.waitMutex);
    bool done = r.waitCv.wait_for(
        lock, std::chrono::milliseconds(ms), [&r] {
            return jobStateTerminal(
                r.state.load(std::memory_order_acquire));
        });
    if (done && out)
        *out = r.state.load(std::memory_order_acquire);
    return done;
}

RejectReason
JobHandle::rejectReason() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->rejectReason.load(std::memory_order_acquire);
}

TenantId
JobHandle::tenant() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->tenant;
}

bool
JobHandle::deprioritize()
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    if (jobStateTerminal(record_->state.load(std::memory_order_acquire)))
        return false;
    uint32_t level =
        record_->demoteLevel.load(std::memory_order_acquire);
    while (level < kMaxDemoteLevel) {
        if (record_->demoteLevel.compare_exchange_weak(
                level, level + 1, std::memory_order_acq_rel)) {
            return true;
        }
    }
    return false; // already at the cap
}

uint32_t
JobHandle::demoteLevel() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->demoteLevel.load(std::memory_order_acquire);
}

double
JobHandle::latencyMs() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->latencyMs.load(std::memory_order_acquire);
}

uint64_t
JobHandle::tasksCompleted() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->term.completedTotal();
}

uint64_t
JobHandle::poisonedTasks() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    return record_->poisoned.load(std::memory_order_acquire);
}

std::vector<Task>
JobHandle::deadLetters() const
{
    hdcps_check(record_ != nullptr, "invalid JobHandle");
    std::lock_guard<std::mutex> lock(record_->poisonMutex);
    return record_->deadLetters;
}

// --- ExecutorService ---------------------------------------------------

/**
 * The job policy of the shared worker loop (runWorker): adopt a queued
 * job before each pop, find the popped task's record through a
 * per-worker cache, process it, and pay the deferred quiescence scan
 * (DESIGN.md §14.6) at the pop that leaves the job and in beforeBlock.
 * The loop ends once the service is shut down with no active jobs.
 */
class ExecutorService::JobWorker
{
  public:
    JobWorker(ExecutorService &svc, unsigned tid) : svc_(svc), tid_(tid)
    {
        children_.reserve(64);
    }

    Scheduler &sched() { return svc_.sched_; }
    WorkerSupervisor *supervisor() { return svc_.supervisor_.get(); }
    const std::vector<unsigned> &slotCpus() const { return svc_.slotCpus_; }

    bool
    stopRequested() const
    {
        return svc_.shutdown_.load(std::memory_order_acquire) &&
               svc_.activeJobs_.load(std::memory_order_acquire) == 0;
    }

    void
    beforeBlock()
    {
        if (scanOwed_) {
            scanOwed_ = false;
            svc_.maybeFinishJob(cached_);
        }
    }

    /** True when this worker adopted a queued job. */
    bool beforePop() { return svc_.adoptOne(tid_); }

    bool
    onEmpty(bool adopted, IdleBackoff &backoff)
    {
        beforeBlock();
        if (adopted || !backoff.idle())
            return true;
        cached_.reset();
        if (svc_.activeJobs_.load(std::memory_order_acquire) == 0) {
            // Truly idle service: no admitted jobs at all, so no tasks
            // can appear except through submit (which notifies).
            // Sleep briefly instead of spinning.
            std::unique_lock<std::mutex> lock(svc_.admitMutex_);
            if (svc_.queuedJobs_.load(std::memory_order_relaxed) == 0 &&
                !svc_.shutdown_.load(std::memory_order_acquire)) {
                svc_.work_.wait_for(lock, std::chrono::milliseconds(1));
            }
        }
        return true;
    }

    void
    onTask(const Task &task, bool)
    {
        if (cached_ == nullptr || cached_->id != task.job) {
            beforeBlock();
            cached_ = svc_.findJob(task.job);
            hdcps_check(cached_ != nullptr,
                        "popped task for unknown job %u", task.job);
        }
        scanOwed_ = svc_.processTask(tid_, cached_, task, children_);
    }

  private:
    ExecutorService &svc_;
    const unsigned tid_;
    std::vector<Task> children_;
    /** Job-record cache keyed by Task::job: a hit takes no lock. It is
     *  always right, as job ids are never reused and a popped task's
     *  job is live. Dropped when idle, so a finished job's ProcessFn
     *  captures are not pinned. */
    RecordPtr cached_;
    /** A scan of cached_'s job is owed (after a childless completion).
     *  A pop of the same job's task drops it: that task was in flight,
     *  so the completion did not end the job. */
    bool scanOwed_ = false;
};

/**
 * The service's policy for the shared monitor, ticking every 1 ms: each
 * tick fails expired jobs, auto-demotes jobs past demoteAfterMs and,
 * every ~10 ms, records the tenant series. It runs through the
 * shutdown drain (a worker dying mid-drain still needs healing) and
 * retires once every admitted job is terminal.
 */
class ExecutorService::JobMonitor
{
  public:
    explicit JobMonitor(ExecutorService &svc) : svc_(svc) {}

    Scheduler &sched() { return svc_.sched_; }
    WorkerSupervisor *supervisor() { return svc_.supervisor_.get(); }
    MetricsRegistry *metrics() { return svc_.options_.metrics; }
    void onReclaimed() { svc_.work_.notify_all(); } // tasks sit with peers
    void onEscalate(unsigned tid) { svc_.escalateService(tid); }

    bool
    onTick(uint64_t now)
    {
        if (svc_.shutdown_.load(std::memory_order_acquire) &&
            svc_.activeJobs_.load(std::memory_order_acquire) == 0)
            return false;

        std::vector<RecordPtr> expired, pressured;
        {
            std::shared_lock<std::shared_mutex> lock(svc_.jobsMutex_);
            for (const auto &[id, record] : svc_.jobs_) {
                if (jobStateTerminal(record->state.load(
                        std::memory_order_acquire)) ||
                    record->latch.stopRequested())
                    continue;
                if (record->deadlineNs != 0 && now > record->deadlineNs) {
                    expired.push_back(record);
                } else if (record->demoteAfterNs != 0 &&
                           now > record->demoteAfterNs &&
                           record->demoteLevel.load(
                               std::memory_order_relaxed) == 0) {
                    pressured.push_back(record);
                }
            }
        }
        for (const RecordPtr &record : expired) {
            uint64_t budget =
                (record->deadlineNs - record->submitNs) / 1000000;
            std::ostringstream msg;
            msg << "job '" << record->name << "': deadline of " << budget
                << " ms exceeded";
            if (svc_.terminateJob(record, JobState::Failed, msg.str(),
                                  /*widenCancelRace=*/false)) {
                svc_.deadlineExpired_.fetch_add(1,
                                                std::memory_order_relaxed);
            }
        }
        // Deadline-pressure auto-demotion: a job past its soft budget
        // keeps running at lower standing instead of failing. One
        // level only — the CAS loses to a racing deprioritize(), which
        // already lowered the job further.
        for (const RecordPtr &record : pressured) {
            uint32_t zero = 0;
            if (record->demoteLevel.compare_exchange_strong(
                    zero, 1, std::memory_order_acq_rel)) {
                svc_.autoDemotedJobs_.fetch_add(1,
                                                std::memory_order_relaxed);
            }
        }
        // Per-tenant share/backlog series, paced to ~10ms. This
        // monitor is the single writer of these customSeries rings,
        // satisfying the registry's single-writer contract.
        if (svc_.options_.metrics && now - lastSeriesNs_ >= 10000000ull) {
            lastSeriesNs_ = now;
            recordTenantSeries();
        }
        return true;
    }

  private:
    /** Per-tenant share of tasks processed since the last sample, and
     *  backlog, into the tenant<id>.share / .backlog custom series. */
    void
    recordTenantSeries()
    {
        MetricsRegistry &metrics = *svc_.options_.metrics;
        struct Row
        {
            TenantState *state;
            uint64_t processed;
            size_t backlog;
        };
        std::vector<Row> rows;
        {
            std::lock_guard<std::mutex> lock(svc_.admitMutex_);
            rows.reserve(svc_.tenants_.size());
            for (auto &[id, state] : svc_.tenants_) {
                TenantState &ts = *state;
                if (ts.shareSeries < 0) {
                    std::string base = "tenant" + std::to_string(id);
                    ts.shareSeries = metrics.customSeries(base + ".share");
                    ts.backlogSeries =
                        metrics.customSeries(base + ".backlog");
                }
                rows.push_back(
                    {&ts, ts.tasksProcessed(), ts.backlog.size()});
            }
        }
        // Record outside the admission lock: TenantState addresses are
        // stable, and only this thread touches lastTasksProcessed or
        // writes these series.
        uint64_t totalDelta = 0;
        for (const Row &row : rows)
            totalDelta += row.processed - row.state->lastTasksProcessed;
        for (const Row &row : rows) {
            uint64_t delta = row.processed - row.state->lastTasksProcessed;
            row.state->lastTasksProcessed = row.processed;
            if (totalDelta > 0) {
                metrics.recordCustom(row.state->shareSeries,
                                     double(delta) / double(totalDelta));
            }
            metrics.recordCustom(row.state->backlogSeries,
                                 double(row.backlog));
        }
    }

    ExecutorService &svc_;
    uint64_t lastSeriesNs_ = 0;
};


ExecutorService::ExecutorService(Scheduler &sched,
                                 const ServiceOptions &options)
    : sched_(sched), options_(options)
{
    // The monitor may reclaim whenever the supervisor runs, and a
    // wedged worker may still be inside a task, so the guard is on.
    bindScheduler(sched, options.numThreads, options.metrics,
                  options.supervisor.enabled
                      ? std::max<uint64_t>(options.supervisor.wedgedAfterMs, 1)
                      : 0);
    hdcps_check(options.admissionCapacity >= 1,
                "admission capacity must be >= 1");

    // Materialize configured tenants up front so quotas and weights
    // apply from the very first submit; tenants first seen at submit
    // time get defaults (weight 1, no limits).
    uint64_t bucketEpoch = nowNs();
    for (const auto &[id, quota] : options_.tenants) {
        hdcps_check(quota.weight > 0.0,
                    "tenant %u: weight must be > 0", id);
        auto state = std::make_unique<TenantState>(options_.numThreads);
        state->id = id;
        state->quota = quota;
        state->bucket.configure(quota.admitRatePerSec,
                                quota.admitBurst, bucketEpoch);
        tenants_.emplace(id, std::move(state));
    }

    if (options_.supervisor.enabled) {
        supervisor_ = std::make_unique<WorkerSupervisor>(
            options_.numThreads, options_.supervisor);
    }

    // One CPU per slot, starting after the owner's own (DESIGN.md
    // §16.5).
    slotCpus_ = planSlotCpus(options.numThreads, 1);
    workers_.reserve(options.numThreads);
    for (unsigned tid = 0; tid < options.numThreads; ++tid) {
        workers_.emplace_back([this, tid] {
            JobWorker worker(*this, tid);
            runSlot(worker, tid);
        });
    }
    // One monitor at the deadline cadence (1 ms); it polls the FSM
    // every SupervisorPolicy::probeIntervalMs.
    monitor_.start(JobMonitor(*this), 1);
}

ExecutorService::~ExecutorService()
{
    shutdown();
}

JobHandle
ExecutorService::submit(JobSpec spec)
{
    submitted_.fetch_add(1, std::memory_order_relaxed);
    auto record = std::make_shared<JobRecord>(options_.numThreads, this);
    record->id = nextJobId_.fetch_add(1, std::memory_order_relaxed);
    record->name = spec.name.empty()
                       ? "job-" + std::to_string(record->id)
                       : std::move(spec.name);
    record->process = std::move(spec.process);
    record->retry = spec.retry;
    record->priority = spec.priority;
    record->tenant = spec.tenant;
    record->demotePenalty = spec.demotePenalty;
    record->submitNs = nowNs();
    if (spec.deadlineMs > 0)
        record->deadlineNs =
            record->submitNs + spec.deadlineMs * 1000000ull;
    if (spec.demoteAfterMs > 0)
        record->demoteAfterNs =
            record->submitNs + spec.demoteAfterMs * 1000000ull;
    record->initial = std::move(spec.initial);
    for (Task &t : record->initial) {
        t.job = record->id;
        t.attempt = 0;
    }
    record->cost =
        std::max<double>(1.0, double(record->initial.size()));

    auto reject = [&](RejectReason reason, const std::string &why) {
        record->rejectReason.store(reason, std::memory_order_release);
        record->latch.fail(why);
        {
            std::lock_guard<std::mutex> lock(record->waitMutex);
            record->state.store(JobState::Rejected,
                                std::memory_order_release);
        }
        record->waitCv.notify_all();
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return JobHandle(record);
    };

    if (!record->process) {
        return reject(RejectReason::InvalidSpec,
                      "job '" + record->name +
                          "' rejected: no ProcessFn");
    }
    if (record->retry.maxAttempts < 1) {
        return reject(RejectReason::InvalidSpec,
                      "job '" + record->name +
                          "' rejected: maxAttempts must be >= 1");
    }

    // The job must be findable by id before any of its tasks can be
    // popped, and tasks become poppable the moment an adopter seeds
    // them — so the table insert happens before the admission insert.
    {
        std::unique_lock<std::shared_mutex> lock(jobsMutex_);
        jobs_.emplace(record->id, record);
    }

    bool admittedNow = false;
    RejectReason reason = RejectReason::QueueFull;
    size_t tenantCap = 0;
    {
        std::unique_lock<std::mutex> lock(admitMutex_);
        TenantState &ts = tenantStateLocked(spec.tenant);
        ts.submitted++;
        double weight =
            spec.weight > 0.0 ? spec.weight : ts.quota.weight;
        record->weight = weight > 0.0 ? weight : 1.0;
        record->tenantState = &ts;
        tenantCap = ts.quota.maxQueuedJobs;

        auto globalFull = [&] {
            return queuedJobs_.load(std::memory_order_relaxed) >=
                   options_.admissionCapacity;
        };
        auto tenantFull = [&] {
            return ts.quota.maxQueuedJobs != 0 &&
                   ts.backlog.size() >= ts.quota.maxQueuedJobs;
        };

        if (!ts.bucket.tryTake(nowNs())) {
            // Rate limits always reject: a blocked rate-limited
            // submitter would have no event to wake it.
            reason = RejectReason::TenantRateLimited;
            ts.rejected++;
        } else {
            bool full = globalFull() || tenantFull();
            // Fault drill: admission pretends the queue is full.
            // Forces the rejection path even for blocking submitters
            // (blocking on a fictitious full queue would hang
            // forever).
            bool forcedFull = faultFires(faultsite::SvcAdmitFull);
            if ((full && !options_.blockWhenFull) || forcedFull) {
                reason = (!forcedFull && tenantFull() && !globalFull())
                             ? RejectReason::TenantQueueFull
                             : RejectReason::QueueFull;
                ts.rejected++;
            } else {
                if (full) {
                    admitSpace_.wait(lock, [&] {
                        return shutdown_.load(
                                   std::memory_order_acquire) ||
                               escalated_.load(
                                   std::memory_order_acquire) ||
                               (!globalFull() && !tenantFull());
                    });
                }
                if (!shutdown_.load(std::memory_order_acquire) &&
                    !escalated_.load(std::memory_order_acquire)) {
                    ts.backlog.emplace(
                        std::make_pair(record->priority, record->id),
                        record);
                    // Newly backlogged tenant: freeze its head start
                    // tag NOW. The tag must not be re-derived from the
                    // advancing global clock at every dispatch bid, or
                    // a light tenant's bid would slide forward with
                    // vtime_ forever and never be served (see
                    // adoptOne).
                    if (ts.backlog.size() == 1)
                        ts.headStart =
                            std::max(vtime_, ts.virtualFinish);
                    queuedJobs_.fetch_add(1, std::memory_order_relaxed);
                    ts.admitted++;
                    admittedNow = true;
                } else {
                    reason = escalated_.load(std::memory_order_acquire)
                                 ? RejectReason::Escalated
                                 : RejectReason::ShuttingDown;
                    ts.rejected++;
                }
            }
        }
    }

    if (!admittedNow) {
        {
            std::unique_lock<std::shared_mutex> lock(jobsMutex_);
            jobs_.erase(record->id);
        }
        std::string why = "job '" + record->name + "' rejected: ";
        switch (reason) {
          case RejectReason::Escalated:
            why += "service escalated (worker restart budget "
                   "exhausted)";
            break;
          case RejectReason::ShuttingDown:
            why += "service shutting down";
            break;
          case RejectReason::TenantQueueFull:
            why += "tenant " + std::to_string(spec.tenant) +
                   " queue quota reached (max " +
                   std::to_string(tenantCap) + " queued jobs)";
            break;
          case RejectReason::TenantRateLimited:
            why += "tenant " + std::to_string(spec.tenant) +
                   " admission rate limit exceeded";
            break;
          default:
            why += "admission queue full (capacity " +
                   std::to_string(options_.admissionCapacity) + ")";
            break;
        }
        return reject(reason, why);
    }

    admitted_.fetch_add(1, std::memory_order_relaxed);
    activeJobs_.fetch_add(1, std::memory_order_acq_rel);
    // Wake every idle worker, not just the adopter: the job's remote
    // sends land in peers' sRQs at once, and a peer left in its idle
    // sleep would hold them there. Workers do not sleep while a job is
    // active, so this is the only wake a job needs.
    work_.notify_all();
    return JobHandle(record);
}

ExecutorService::TenantState &
ExecutorService::tenantStateLocked(TenantId id)
{
    auto it = tenants_.find(id);
    if (it == tenants_.end()) {
        auto state = std::make_unique<TenantState>(options_.numThreads);
        state->id = id;
        state->bucket.configure(0.0, 1.0, nowNs());
        it = tenants_.emplace(id, std::move(state)).first;
    }
    return *it->second;
}

namespace {

/** Single-writer bump of a per-worker slot (TenantState::WorkerSlot).
 *  The release store pairs with the summing readers' acquire loads. */
void
bumpSlot(std::atomic<uint64_t> &slot, uint64_t n)
{
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_release);
}

} // namespace

uint64_t
ExecutorService::TenantState::inFlightTasks() const
{
    uint64_t done = 0;
    for (const WorkerSlot &s : slots)
        done += s.completed.load(std::memory_order_acquire);
    uint64_t made = 0;
    for (const WorkerSlot &s : slots)
        made += s.created.load(std::memory_order_acquire);
    return made - done;
}

uint64_t
ExecutorService::TenantState::tasksProcessed() const
{
    uint64_t n = 0;
    for (const WorkerSlot &s : slots)
        n += s.processed.load(std::memory_order_relaxed);
    return n;
}

void
ExecutorService::noteTasksCreated(Record &record, unsigned tid,
                                  uint64_t n)
{
    // tenantState is set at submit, before any task of the job exists.
    bumpSlot(record.tenantState->slots[tid].created, n);
    record.term.noteCreated(tid, n);
}

void
ExecutorService::noteTaskCompleted(Record &record, unsigned tid,
                                   bool processed)
{
    // The tenant slots are bumped before the ledger's release
    // increment, so whoever observes the job quiescent (and every
    // thread it then publishes the terminal state to) also sees them:
    // the tenant counts are exact once its jobs are terminal.
    TenantState::WorkerSlot &slot = record.tenantState->slots[tid];
    if (processed)
        bumpSlot(slot.processed, 1);
    bumpSlot(slot.completed, 1);
    record.term.noteCompleted(tid);
}

ExecutorService::RecordPtr
ExecutorService::findJob(JobId job) const
{
    std::shared_lock<std::shared_mutex> lock(jobsMutex_);
    auto it = jobs_.find(job);
    return it != jobs_.end() ? it->second : nullptr;
}

bool
ExecutorService::adoptOne(unsigned tid)
{
    // Every worker calls this once per loop iteration, so the common
    // empty case must not touch admitMutex_. A stale 0 only delays
    // adoption by one iteration: JobWorker's idle sleep re-checks
    // queuedJobs_ under the lock, so no submit's wake-up is lost.
    if (queuedJobs_.load(std::memory_order_relaxed) == 0)
        return false;
    RecordPtr record;
    {
        std::lock_guard<std::mutex> lock(admitMutex_);
        if (queuedJobs_.load(std::memory_order_relaxed) == 0)
            return false;
        // Global in-flight budget: at saturation dispatch is the
        // bottleneck, so the SFQ pick below governs the completed-task
        // share. (A dispatched job may overshoot the budget with its
        // whole seed batch; the gate only delays *further* jobs.)
        if (options_.maxInFlightTasks != 0) {
            uint64_t inFlight = 0;
            for (const auto &[id, state] : tenants_)
                inFlight += state->inFlightTasks();
            if (inFlight >= options_.maxInFlightTasks)
                return false;
        }
        // Start-time fair queueing: each backlogged, quota-eligible
        // tenant bids with its FROZEN head start tag (stamped when the
        // job reached the head of the tenant's backlog — at admission
        // into an empty backlog, or right after the previous dispatch)
        // plus cost/weight for the head job. The smallest candidate
        // finish wins; equal finishes go to the smaller start tag (the
        // tenant that has waited longest in virtual time), then to the
        // lowest tenant id via map order. Freezing the start tag is
        // the load-bearing part: re-deriving it from the advancing
        // global clock at every bid would slide a light tenant's
        // finish forward in lockstep with a heavy tenant's dispatches
        // — max(vtime, finish) + 1/w grows exactly as fast as the
        // winner's next bid — and starve it, which is the bug this
        // policy replaces. The start tie-break matters too: with unit
        // costs and integer weight ratios, finish ties recur every
        // round, and breaking them by id alone would hand a lower-id
        // heavy tenant the win forever. Charging cost/weight means a
        // weight-2 tenant's clock advances half as fast — twice the
        // dispatch share while both are backlogged — and taking
        // max(vtime_, virtualFinish) at head promotion means idle
        // time banks no credit.
        TenantState *best = nullptr;
        double bestFinish = 0.0;
        for (auto &[id, state] : tenants_) {
            TenantState &ts = *state;
            if (ts.backlog.empty())
                continue;
            if (ts.quota.maxInFlightTasks != 0 &&
                ts.inFlightTasks() >= ts.quota.maxInFlightTasks)
                continue;
            // Head cost is read live (a higher-priority job may have
            // displaced the head since promotion); the start tag is
            // the frozen one.
            const Record &head = *ts.backlog.begin()->second;
            double finish = ts.headStart + head.cost / head.weight;
            if (best == nullptr || finish < bestFinish ||
                (finish == bestFinish &&
                 ts.headStart < best->headStart)) {
                best = &ts;
                bestFinish = finish;
            }
        }
        if (best == nullptr)
            return false; // every backlogged tenant is quota-gated
        auto it = best->backlog.begin();
        record = it->second;
        best->backlog.erase(it);
        queuedJobs_.fetch_sub(1, std::memory_order_relaxed);
        // The global clock tracks the served start tag, monotonically
        // (a frozen tag can lag vtime_ when the tenant sat quota-gated
        // — served late must not drag the clock backwards).
        vtime_ = std::max(vtime_, best->headStart);
        best->virtualFinish = bestFinish;
        // Promote the next job in this tenant's backlog: its start tag
        // freezes here, not at bid time.
        if (!best->backlog.empty())
            best->headStart = std::max(vtime_, best->virtualFinish);
    }
    admitSpace_.notify_one(); // freed one admission slot

    // Only the adopter transitions a popped record out of Queued:
    // cancel and deadline expiry finish a queued job only after
    // erasing it from the queue themselves (under admitMutex_), so a
    // record we popped is still ours.
    JobState expected = JobState::Queued;
    bool owned = record->state.compare_exchange_strong(
        expected, JobState::Running, std::memory_order_acq_rel);
    hdcps_check(owned, "adopted job %u not in Queued state",
                record->id);

    // Seed under this worker's own tid (the only one this thread may
    // push on). Chunked so bag-based designs see child-batch-sized
    // pushBatch calls rather than one giant bag.
    std::vector<Task> seeds = std::move(record->initial);
    record->initial.clear();
    // A job deprioritized while still queued seeds at its current
    // standing — stamped and penalized up front, so its incarnations
    // never need the pop-time re-tag.
    uint32_t level = std::min(
        record->demoteLevel.load(std::memory_order_acquire),
        kMaxDemoteLevel);
    if (level != 0) {
        for (Task &t : seeds) {
            t.attempt = packAttempt(0, level);
            t.priority += Priority(level) * record->demotePenalty;
        }
    }
    if (seeds.empty()) {
        // A job admitted with zero seed tasks is already quiescent.
        maybeFinishJob(record);
        return true;
    }
    noteTasksCreated(*record, tid, seeds.size());
    constexpr size_t chunk = 256;
    for (size_t i = 0; i < seeds.size(); i += chunk) {
        size_t n = std::min(chunk, seeds.size() - i);
        sched_.pushBatch(tid, seeds.data() + i, n);
    }
    return true;
}

uint64_t
ExecutorService::retryBackoffUs(const Record &record,
                                const Task &task) const
{
    const RetryPolicy &retry = record.retry;
    if (retry.backoffBaseUs == 0)
        return 0;
    // Exponential in the retry attempt that just failed (the demote
    // stamp in the high bits is standing, not history — it must not
    // widen the backoff), capped, plus deterministic seeded jitter
    // (up to +50%) so co-failing tasks don't retry in lockstep.
    unsigned shift = std::min(retryAttemptOf(task.attempt), 32u);
    uint64_t base = retry.backoffBaseUs << shift;
    base = std::min(base, retry.backoffMaxUs);
    uint64_t jitter =
        mix64(options_.seed ^ (uint64_t(record.id) << 32) ^
              (uint64_t(task.node) << 8) ^
              retryAttemptOf(task.attempt)) %
        (base / 2 + 1);
    return std::min(base + jitter, retry.backoffMaxUs);
}

void
ExecutorService::handleTaskFailure(unsigned tid,
                                   const RecordPtr &record,
                                   const Task &task, const char *what)
{
    uint32_t tries = retryAttemptOf(task.attempt);
    if (tries + 1 < record->retry.maxAttempts) {
        // Transient: back off, then re-push the next incarnation. The
        // bumped attempt makes it a fresh conservation-ledger key —
        // the failed incarnation completes, the retry is created, so
        // per-job accounting stays exact with no shared retry table.
        // The demote stamp rides along unchanged: a retry keeps its
        // standing.
        uint64_t us = retryBackoffUs(*record, task);
        if (us > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(us));
        Task again = task;
        again.attempt =
            packAttempt(tries + 1, demoteStampOf(task.attempt));
        taskRetries_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::TaskRetries);
        // Complete-before-push, and no finish attempt: the retry is
        // counted created, so the job is not quiescent here, and a
        // peer that pops and completes it already sees this
        // completion in its scan.
        noteTasksCreated(*record, tid, 1);
        noteTaskCompleted(*record, tid);
        sched_.push(tid, again);
        return;
    }
    if (record->retry.deadLetterOnExhaustion) {
        // Poison quarantine: the task burned every attempt, but the
        // job's policy says divert it, not fail the tenant. The final
        // incarnation lands in the dead-letter queue and is counted
        // completed — the conservation ledger balances (the pop was
        // already recorded) and the job can still reach Completed.
        {
            std::lock_guard<std::mutex> lock(record->poisonMutex);
            record->deadLetters.push_back(task);
        }
        record->poisoned.fetch_add(1, std::memory_order_release);
        poisonedTasks_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::PoisonedTasks);
        noteTaskCompleted(*record, tid);
        maybeFinishJob(record);
        return;
    }
    noteTaskCompleted(*record, tid);
    std::ostringstream msg;
    msg << "job '" << record->name << "': task (node " << task.node
        << ", prio " << task.priority << ") failed after "
        << (tries + 1) << " attempt(s): " << what;
    terminateJob(record, JobState::Failed, msg.str(),
                 /*widenCancelRace=*/false);
    maybeFinishJob(record);
}

bool
ExecutorService::processTask(unsigned tid, const RecordPtr &record,
                             const Task &task,
                             std::vector<Task> &children)
{
    if (record->latch.stopRequested()) {
        // Draining: the job already failed / was cancelled / expired.
        // Discard the task but keep the ledger exact — the job's
        // outstanding count still reaches zero, which is what the
        // per-job conservation check (VerifyingScheduler ::
        // checkJobDrained) asserts.
        tasksDrained_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::DrainedTasks);
        noteTaskCompleted(*record, tid);
        maybeFinishJob(record);
        return false;
    }

    // Cooperative preemption: an incarnation stamped before the job's
    // current demote level is stale — re-tag it at the new standing
    // (penalized priority, fresh stamp) and re-push instead of
    // processing. Ledger-wise this is exactly a retry: the stale
    // incarnation completes, a distinct new key is created, so per-job
    // conservation stays exact through the VerifyingScheduler.
    uint32_t level = std::min(
        record->demoteLevel.load(std::memory_order_acquire),
        kMaxDemoteLevel);
    uint32_t stamp = demoteStampOf(task.attempt);
    if (stamp < level) {
        Task again = task;
        again.attempt =
            packAttempt(retryAttemptOf(task.attempt), level);
        again.priority = task.priority +
                         Priority(level - stamp) *
                             record->demotePenalty;
        demotedTasks_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::DemotedTasks);
        // Complete-before-push, and no finish attempt: as on the
        // retry path.
        noteTasksCreated(*record, tid, 1);
        noteTaskCompleted(*record, tid);
        sched_.push(tid, again);
        return false;
    }

    children.clear();
    try {
        // Fault drill: service task processing throws.
        if (faultFires(faultsite::SvcJobFail)) {
            throw FaultInjectedError(
                "injected service task failure (svc.job.fail)");
        }
        // Poison drill: mark this task so *every* attempt fails. Only
        // pristine first incarnations consult the drill (raw attempt
        // word 0: first try AND demote stamp 0), so the invocation
        // index — and with it the set of poisoned tasks under a fixed
        // seed — is independent of retry and demotion interleaving.
        if (task.attempt == 0 &&
            faultFires(faultsite::SvcTaskPoison)) {
            record->markPoisoned(task);
        }
        if (record->isPoisoned(task)) {
            throw FaultInjectedError(
                "injected poison task (svc.task.poison)");
        }
        record->process(tid, task, children);
    } catch (const std::exception &e) {
        handleTaskFailure(tid, record, task, e.what());
        return false;
    } catch (...) {
        handleTaskFailure(tid, record, task, "non-std exception");
        return false;
    }

    for (Task &c : children) {
        c.job = record->id;
        // Children are born at the job's current standing: stamped
        // with the level observed above so they skip the re-tag path,
        // and penalized the same way a re-tag would have.
        c.attempt = packAttempt(0, level);
        if (level != 0)
            c.priority += Priority(level) * record->demotePenalty;
    }
    if (options_.metrics)
        options_.metrics->add(tid, WorkerCounter::TasksProcessed);
    if (children.empty()) {
        // The scan is owed, not run: JobWorker pays it at the pop that
        // leaves this job.
        noteTaskCompleted(*record, tid, /*processed=*/true);
        return true;
    }
    // Complete-before-push: the children are counted created, so this
    // completion cannot make the job quiescent and needs no scan.
    noteTasksCreated(*record, tid, children.size());
    noteTaskCompleted(*record, tid, /*processed=*/true);
    sched_.pushBatch(tid, children.data(), children.size());
    return false;
}

bool
ExecutorService::terminateJob(const RecordPtr &record, JobState verdict,
                              const std::string &message,
                              bool widenCancelRace)
{
    // First verdict wins: the CAS claims the terminal state the
    // finishing worker will publish. Losers only reinforce the stop.
    JobState sentinel = JobState::Completed;
    if (!record->verdict.compare_exchange_strong(
            sentinel, verdict, std::memory_order_acq_rel)) {
        record->latch.requestStop();
        return false;
    }

    // Fault drill: widen the window between claiming the verdict and
    // publishing the drain — the job may complete normally meanwhile,
    // which is exactly the cancel/complete race under test.
    if (widenCancelRace)
        faultSleep(faultsite::SvcCancelRace);

    // Publish: latches the error and raises stop (release), making
    // the verdict visible to any worker that observes the stop.
    record->latch.fail(message);

    // A still-queued job has no tasks to drain: finish it in place.
    // The queue erase and the adopter's pop are both under
    // admitMutex_, so exactly one side wins.
    bool wasQueued = false;
    {
        std::lock_guard<std::mutex> lock(admitMutex_);
        // tenantState is assigned under this mutex at submit; a record
        // terminated in the narrow window before that assignment was
        // never queued.
        if (record->tenantState) {
            wasQueued = record->tenantState->backlog.erase(
                            {record->priority, record->id}) > 0;
            if (wasQueued)
                queuedJobs_.fetch_sub(1, std::memory_order_relaxed);
        }
    }
    if (wasQueued) {
        admitSpace_.notify_one();
        {
            std::lock_guard<std::mutex> lock(record->waitMutex);
            record->state.store(verdict, std::memory_order_release);
        }
        finishRecord(*record, verdict);
        return true;
    }

    // Running (or mid-adoption): flip the observable state; workers
    // drain via the latch regardless, and the last completion
    // publishes the verdict. The CAS may lose to a concurrent
    // completion — that is the documented race, completion wins.
    JobState running = JobState::Running;
    record->state.compare_exchange_strong(running, JobState::Draining,
                                          std::memory_order_acq_rel);
    return true;
}

void
ExecutorService::maybeFinishJob(const RecordPtr &record)
{
    // Per-job quiescence: same completed-first two-pass scan the
    // executor uses for run-level termination (worker_common.h), over
    // this job's ledger only. Completion paths call it only when the
    // completion pushed nothing (the complete-before-push rule).
    if (!record->term.quiescent())
        return;
    JobState expected = record->state.load(std::memory_order_acquire);
    while (!jobStateTerminal(expected)) {
        JobState terminal =
            record->latch.stopRequested()
                ? record->verdict.load(std::memory_order_acquire)
                : JobState::Completed;
        bool won;
        {
            // State flips to terminal under waitMutex so wait()'s
            // predicate check can't miss the wakeup.
            std::lock_guard<std::mutex> lock(record->waitMutex);
            won = record->state.compare_exchange_strong(
                expected, terminal, std::memory_order_acq_rel);
        }
        if (won) {
            finishRecord(*record, terminal);
            return;
        }
        // `expected` was refreshed by the failed CAS (e.g. a
        // concurrent Running -> Draining flip); re-evaluate.
    }
}

void
ExecutorService::finishRecord(Record &record, JobState terminal)
{
    // Exactly-once per admitted job: callers reach here only after
    // winning the terminal-state transition.
    double ms =
        static_cast<double>(nowNs() - record.submitNs) / 1e6;
    record.latencyMs.store(ms, std::memory_order_release);

    {
        std::unique_lock<std::shared_mutex> lock(jobsMutex_);
        jobs_.erase(record.id);
    }

    switch (terminal) {
      case JobState::Completed:
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (record.tenantState) {
            record.tenantState->jobsCompleted.fetch_add(
                1, std::memory_order_relaxed);
        }
        break;
      case JobState::Failed:
        failed_.fetch_add(1, std::memory_order_relaxed);
        break;
      case JobState::Cancelled:
        cancelled_.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        hdcps_check(false, "finishRecord with non-terminal state %u",
                    unsigned(terminal));
    }

    {
        std::lock_guard<std::mutex> lock(latencyMutex_);
        latenciesMs_.push_back(ms);
        // latencyMutex_ serializes writers, satisfying the global
        // series single-writer contract.
        if (options_.metrics) {
            options_.metrics->recordGlobal(GlobalSeries::JobLatencyMs,
                                           ms);
        }
    }

    activeJobs_.fetch_sub(1, std::memory_order_acq_rel);
    record.waitCv.notify_all();
    work_.notify_all(); // shutdown exit condition may hold now
}

void
ExecutorService::escalateService(unsigned tid)
{
    // First escalation fails the tenants; every escalated slot (more
    // workers may die afterwards with the budget already spent) is
    // individually reclaimed, retired, and drained. Its thread latched
    // its exit before the FSM could decide, so it touches neither the
    // scheduler nor its metric row again.
    const bool first =
        !escalated_.exchange(true, std::memory_order_acq_rel);
    admitSpace_.notify_all(); // blocked submitters re-check and reject

    quarantineAndReclaim(sched_, tid, options_.metrics);
    work_.notify_all();
    supervisor_->retire(tid);
    if (options_.metrics) {
        options_.metrics->add(tid, WorkerCounter::HealthTransitions,
                              supervisor_->drainTransitions(tid));
    }

    if (first) {
        std::vector<RecordPtr> live;
        {
            std::shared_lock<std::shared_mutex> lock(jobsMutex_);
            live.reserve(jobs_.size());
            for (const auto &[id, record] : jobs_)
                live.push_back(record);
        }
        for (const RecordPtr &record : live) {
            terminateJob(record, JobState::Failed,
                         "job '" + record->name +
                             "' failed: service escalated (worker "
                             "restart budget exhausted)",
                         /*widenCancelRace=*/false);
            maybeFinishJob(record);
        }
    }

    // Drain the retired slot here, the one pop outside runWorker: with
    // no thread driving it — and possibly no live worker left at all —
    // its remaining tasks must still reach their pop so every job's
    // ledger balances.
    Task task;
    while (sched_.tryPop(tid, task)) {
        RecordPtr record = findJob(task.job);
        hdcps_check(record != nullptr,
                    "popped task for unknown job %u", task.job);
        tasksDrained_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->add(tid, WorkerCounter::DrainedTasks);
        noteTaskCompleted(*record, tid);
        maybeFinishJob(record);
    }
    work_.notify_all();
}

uint64_t
ExecutorService::activeJobs() const
{
    return activeJobs_.load(std::memory_order_acquire);
}

ServiceStats
ExecutorService::stats() const
{
    ServiceStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.admitted = admitted_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.deadlineExpired =
        deadlineExpired_.load(std::memory_order_relaxed);
    s.cancelled = cancelled_.load(std::memory_order_relaxed);
    s.taskRetries = taskRetries_.load(std::memory_order_relaxed);
    s.tasksDrained = tasksDrained_.load(std::memory_order_relaxed);
    s.poisonedTasks = poisonedTasks_.load(std::memory_order_relaxed);
    s.demotedTasks = demotedTasks_.load(std::memory_order_relaxed);
    s.autoDemotedJobs =
        autoDemotedJobs_.load(std::memory_order_relaxed);
    if (supervisor_) {
        SupervisorStats sup = supervisor_->stats();
        s.workerRestarts = sup.workerRestarts;
        s.healthTransitions = sup.healthTransitions;
        s.wedgesDetected = sup.wedgesDetected;
        s.crashesDetected = sup.crashesDetected;
        s.escalated = sup.escalated;
    }

    std::vector<double> lat;
    {
        std::lock_guard<std::mutex> lock(latencyMutex_);
        lat = latenciesMs_;
    }
    s.jobsMeasured = lat.size();
    if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        auto pct = [&lat](double q) {
            size_t idx = static_cast<size_t>(q * double(lat.size()));
            return lat[std::min(idx, lat.size() - 1)];
        };
        s.jobLatencyP50Ms = pct(0.50);
        s.jobLatencyP99Ms = pct(0.99);
        s.jobLatencyMaxMs = lat.back();
    }
    return s;
}

std::vector<TenantStats>
ExecutorService::tenantStats() const
{
    std::vector<TenantStats> out;
    std::lock_guard<std::mutex> lock(admitMutex_);
    out.reserve(tenants_.size());
    for (const auto &[id, state] : tenants_) {
        const TenantState &ts = *state;
        TenantStats s;
        s.tenant = id;
        s.weight = ts.quota.weight;
        s.submitted = ts.submitted;
        s.admitted = ts.admitted;
        s.rejected = ts.rejected;
        s.jobsCompleted =
            ts.jobsCompleted.load(std::memory_order_relaxed);
        s.tasksProcessed = ts.tasksProcessed();
        s.queuedJobs = ts.backlog.size();
        s.inFlightTasks = ts.inFlightTasks();
        s.virtualFinish = ts.virtualFinish;
        out.push_back(s);
    }
    return out;
}

WorkerHealth
ExecutorService::workerHealth(unsigned tid) const
{
    hdcps_check(tid < options_.numThreads, "bad worker id %u", tid);
    return supervisor_ ? supervisor_->health(tid)
                       : WorkerHealth::Healthy;
}

bool
ExecutorService::escalated() const
{
    return escalated_.load(std::memory_order_acquire);
}

void
ExecutorService::shutdown()
{
    std::lock_guard<std::mutex> guard(shutdownMutex_);
    shutdown_.store(true, std::memory_order_release);
    admitSpace_.notify_all();
    work_.notify_all();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    monitor_.stop();
}

} // namespace hdcps
