/**
 * @file
 * Long-lived multi-tenant scheduling service over any CPS design.
 *
 * The one-shot executor (executor.h) answers "run this workload to
 * completion once". Real deployments of a concurrent priority
 * scheduler look different: a resident worker pool serves a *stream*
 * of jobs — each with its own task-processing function, initial tasks,
 * job-level priority, deadline and retry policy — and one tenant's
 * failure must not take down its neighbours. ExecutorService is that
 * service, layered on the exact same building blocks as the executor
 * (see runtime/worker_common.h) — the same worker loop, slot entry and
 * monitor, instantiated with the job policy:
 *
 *  - Two-level scheduling with weighted fair sharing: admission
 *    dispatch is start-time fair queueing (SFQ) across *tenants* —
 *    each tenant keeps a virtual-finish clock, every dispatch charges
 *    cost(job)/weight to it, and the eligible tenant with the smallest
 *    candidate virtual finish time wins. Within one tenant, jobs keep
 *    the original strict (priority, FIFO) order; task-level
 *    interleaving inside the shared CPS stays relaxed — co-resident
 *    jobs' tasks mix freely in the scheduler, tagged with their
 *    owner's JobId (cps/task.h). The pre-fairness policy — one strict
 *    (priority, id) queue across all jobs — starved low-priority
 *    tenants indefinitely under sustained high-priority load; SFQ
 *    bounds every backlogged tenant's wait by the weighted round.
 *  - Per-tenant quotas (ServiceOptions::tenants): max queued jobs,
 *    max in-flight tasks (a dispatch-eligibility gate), and a
 *    token-bucket admission rate. Violations reject at submit with a
 *    typed reason (JobHandle::rejectReason()); queue-space quotas
 *    honor blockWhenFull, rate limits always reject. A global
 *    ServiceOptions::maxInFlightTasks budget makes dispatch the
 *    bottleneck at saturation, which is what turns the weighted
 *    dispatch share into a completed-task share.
 *  - Cooperative preemption: JobHandle::deprioritize() (or the
 *    deadline-pressure auto path, JobSpec::demoteAfterMs) bumps a
 *    running job's demote level. Its already-queued task incarnations
 *    are lazily re-tagged at pop time — pushed back with a lower
 *    effective priority and a new demote stamp in the attempt word —
 *    instead of drained, so the job keeps running at lower standing
 *    and per-job conservation stays exact (each re-tag completes the
 *    old incarnation and creates a distinct new ledger key, the same
 *    shape as a retry).
 *  - Per-job failure isolation: every admitted job carries its own
 *    TerminationCounters and FailureLatch. A thrown ProcessFn (after
 *    retries are exhausted), an expired deadline, or JobHandle::cancel
 *    latches that job's first error and flips it to Draining: workers
 *    keep popping its tasks but discard them (counted, so the per-job
 *    conservation ledger still balances to zero) until the job is
 *    quiescent — co-resident jobs never notice.
 *  - Per-job completion detection: the executor's distributed
 *    created/completed counters and completed-first quiescence scan,
 *    instantiated once per job. Whichever worker completes a job's
 *    last task wins a CAS to the terminal state, records the latency,
 *    and wakes waiters. It scans at its next pop that leaves the job,
 *    not right after the completion (DESIGN.md §14.6).
 *  - Bounded admission with backpressure: at most
 *    ServiceOptions::admissionCapacity jobs may be queued (admitted
 *    but not yet adopted by a worker). An overflowing submit either
 *    rejects with a reason (default) or blocks until space frees,
 *    per ServiceOptions::blockWhenFull.
 *  - Transient-failure retries: a ProcessFn throw re-pushes the task
 *    with attempt+1 after seeded exponential backoff, up to
 *    RetryPolicy::maxAttempts; the attempt rides in the Task itself,
 *    so the retried incarnation is a distinct conservation-ledger key
 *    and no shared retry table is needed.
 *
 * Supervision and self-healing (runtime/supervisor.h, DESIGN.md §15):
 * with ServiceOptions::supervisor.enabled, the one monitor thread also
 * polls a per-worker health FSM. A worker that wedges or dies is
 * quarantined and its buffered tasks reclaimed into live peers; its
 * thread parks, and the monitor re-arms the slot for the same thread,
 * up to SupervisorPolicy::maxRestarts per sliding window. Past the
 * budget the service escalates: every live job fails, submissions are
 * rejected, and the slot is retired. Task conservation stays exact.
 * A healed slot resumes on its own thread, and so on its own CPU.
 *
 * One CPU per worker (DESIGN.md §16.5): slot `tid` is pinned to the
 * (tid+1)-th CPU of the constructing thread's mask, counted from the
 * CPU that thread runs on, so with fewer slots than CPUs the owner
 * (typically the submitter) keeps a CPU to itself and the workers
 * submit() wakes never stack on one CPU. Nothing is pinned when the
 * slots outnumber the mask's CPUs or the mask holds one CPU, and a
 * scheduler that places the thread in onWorkerStart keeps its
 * placement.
 *
 * Poison-task quarantine: a task that exhausts RetryPolicy::maxAttempts
 * is, when RetryPolicy::deadLetterOnExhaustion is set, diverted to the
 * job's dead-letter queue (JobHandle::deadLetters) instead of failing
 * the job — the job can still complete with poisonedTasks() > 0.
 *
 * Fault sites (support/fault.h, described in its catalog):
 * `svc.admit.full`, `svc.job.fail`, `svc.cancel.race`,
 * `svc.worker.wedge`, `svc.worker.die` and `svc.task.poison`.
 *
 * Thread safety: submit/cancel/wait/stats are safe from any thread
 * (including concurrently with each other); shutdown() and the
 * destructor must not race with submit().
 */

#ifndef HDCPS_RUNTIME_EXECUTOR_SERVICE_H_
#define HDCPS_RUNTIME_EXECUTOR_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cps/scheduler.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/supervisor.h"
#include "runtime/worker_common.h"

namespace hdcps {

/** Tenant identity: jobs sharing a tenant id share one fair-queueing
 *  virtual clock and one quota set. 0 is the default tenant. */
using TenantId = uint32_t;

/**
 * Task::attempt packing. The low 24 bits count service retry attempts
 * (the original meaning); the high 8 bits carry the job's demote stamp
 * at task-creation/re-tag time, so a preempted job's stale
 * incarnations are recognizable at pop time and every re-tag is a
 * distinct conservation-ledger key.
 */
inline constexpr uint32_t kRetryAttemptBits = 24;
inline constexpr uint32_t kRetryAttemptMask =
    (uint32_t(1) << kRetryAttemptBits) - 1;
inline constexpr uint32_t kMaxDemoteLevel = 255;

constexpr uint32_t
retryAttemptOf(uint32_t attempt)
{
    return attempt & kRetryAttemptMask;
}

constexpr uint32_t
demoteStampOf(uint32_t attempt)
{
    return attempt >> kRetryAttemptBits;
}

constexpr uint32_t
packAttempt(uint32_t retryAttempt, uint32_t demoteStamp)
{
    return (demoteStamp << kRetryAttemptBits) |
           (retryAttempt & kRetryAttemptMask);
}

/** Why a submit was rejected (JobHandle::rejectReason()). */
enum class RejectReason : unsigned {
    None = 0,          ///< not rejected
    InvalidSpec,       ///< no ProcessFn, or maxAttempts < 1
    QueueFull,         ///< service-wide admission capacity exceeded
    TenantQueueFull,   ///< tenant's maxQueuedJobs quota exceeded
    TenantRateLimited, ///< tenant's admission token bucket was empty
    ShuttingDown,      ///< service is shutting down
    Escalated,         ///< supervisor escalation failed the service
};

const char *rejectReasonName(RejectReason r);

/** Per-tenant fair-share weight and admission quotas
 *  (ServiceOptions::tenants). Every field's default is "unlimited". */
struct TenantQuota
{
    /** Fair-share weight for jobs that leave JobSpec::weight at 0. A
     *  tenant with weight 2 receives twice the dispatch share of a
     *  weight-1 tenant while both are backlogged. */
    double weight = 1.0;
    /** Max jobs admitted-but-not-dispatched for this tenant; beyond it
     *  submit rejects TenantQueueFull (or blocks, per blockWhenFull).
     *  0 = unlimited. */
    size_t maxQueuedJobs = 0;
    /** Dispatch-eligibility gate: while the tenant has this many tasks
     *  in flight, no further job of its dispatches. 0 = unlimited. */
    uint64_t maxInFlightTasks = 0;
    /** Token-bucket admission rate: submits/second refill, up to
     *  admitBurst tokens banked. Violations always reject
     *  (TenantRateLimited) — a blocked rate-limited submitter would
     *  have nothing to wake it. 0 = unlimited. */
    double admitRatePerSec = 0.0;
    double admitBurst = 4.0;
};

/** Retry policy for transiently failing tasks of one job. */
struct RetryPolicy
{
    /** Total tries per task (1 = no retries: first throw fails the
     *  job). A task whose attempt reaches maxAttempts-1 and throws
     *  again latches the job failure. */
    uint32_t maxAttempts = 1;
    /** Backoff before attempt k retries is roughly
     *  min(backoffBaseUs << (k-1), backoffMaxUs) plus seeded jitter. */
    uint64_t backoffBaseUs = 50;
    uint64_t backoffMaxUs = 5000;
    /** Poison-task policy: when true, a task that exhausts maxAttempts
     *  is diverted to the job's dead-letter queue instead of latching
     *  the job failure — the job can still complete, with the
     *  quarantined tasks inspectable via JobHandle::deadLetters(). */
    bool deadLetterOnExhaustion = false;
};

/** One job submitted to the service. */
struct JobSpec
{
    std::string name;         ///< for error messages and reports
    ProcessFn process;        ///< per-job task-processing function
    std::vector<Task> initial; ///< seed tasks (job/attempt tags are
                               ///< stamped by the service)
    Priority priority = 0;     ///< within-tenant: lower = dispatched sooner
    /** Owning tenant: the fair-share clock and quotas this job charges
     *  against. */
    TenantId tenant = 0;
    /** Fair-share weight of this job's dispatch charge; 0 (default)
     *  inherits the tenant's TenantQuota::weight. */
    double weight = 0.0;
    /** Wall-clock budget from submission; 0 = none. A job still
     *  Queued or Running past its deadline fails with a deadline
     *  error and drains. */
    uint64_t deadlineMs = 0;
    /** Deadline-pressure auto-demotion: a job still not terminal this
     *  many ms after submission is deprioritized once (demote level 1)
     *  by the service's monitor — it keeps running at lower standing
     *  instead of being failed. 0 = never. */
    uint64_t demoteAfterMs = 0;
    /** Priority added to a task incarnation per demote level when a
     *  preempted job's tasks are re-tagged (lower standing = larger
     *  numeric priority). */
    Priority demotePenalty = uint64_t(1) << 16;
    RetryPolicy retry;
};

/** Lifecycle of one job. Terminal states: Completed, Failed,
 *  Cancelled, Rejected. */
enum class JobState : unsigned {
    Queued = 0, ///< admitted, waiting for a worker to adopt it
    Running,    ///< seeded; its tasks are in the shared scheduler
    Draining,   ///< failure latched; tasks are being discarded
    Completed,  ///< all tasks processed, conservation balanced
    Failed,     ///< ProcessFn error (retries exhausted) or deadline
    Cancelled,  ///< JobHandle::cancel won
    Rejected,   ///< never admitted (queue full, or shutdown)
};

const char *jobStateName(JobState s);

/** True for states no job ever leaves. */
inline bool
jobStateTerminal(JobState s)
{
    return s == JobState::Completed || s == JobState::Failed ||
           s == JobState::Cancelled || s == JobState::Rejected;
}

class ExecutorService;

namespace detail {
struct JobRecord;
} // namespace detail

/**
 * Caller-side handle to one submitted job. Copyable (shared
 * ownership); outliving the service is safe — the record is detached
 * at shutdown and terminal by then.
 */
class JobHandle
{
  public:
    JobHandle() = default;

    bool valid() const { return record_ != nullptr; }
    JobId id() const;
    const std::string &name() const;

    JobState state() const;
    bool done() const { return jobStateTerminal(state()); }

    /** First error of a Failed/Cancelled/Rejected job ("" otherwise). */
    std::string error() const;

    /** Typed rejection cause (None unless state() == Rejected). */
    RejectReason rejectReason() const;

    /** The tenant this job was submitted under. */
    TenantId tenant() const;

    /**
     * Cooperative preemption: bump the job's demote level (capped at
     * kMaxDemoteLevel). Already-queued task incarnations are re-tagged
     * at pop time with priority += levels * JobSpec::demotePenalty and
     * re-pushed — the job keeps running at lower effective standing
     * instead of draining. Returns true when the level was bumped
     * (false once the job is terminal).
     */
    bool deprioritize();

    /** Current demote level (0 = never deprioritized). */
    uint32_t demoteLevel() const;

    /**
     * Request cancellation. A Queued job is cancelled in place (never
     * runs); a Running job flips to Draining and its tasks are
     * discarded until quiescent. Returns true when this call latched
     * the cancellation, false when the job was already terminal or
     * already failing (the earlier verdict wins).
     */
    bool cancel();

    /** Block until the job is terminal; returns the terminal state. */
    JobState wait();

    /** Bounded wait; false on timeout (job not yet terminal). */
    bool waitFor(uint64_t ms, JobState *out = nullptr);

    /** Submit-to-terminal latency in ms (0 until terminal). */
    double latencyMs() const;

    /** Tasks this job completed (processed + discarded), for tests. */
    uint64_t tasksCompleted() const;

    /** Tasks this job dead-lettered (poison quarantine). */
    uint64_t poisonedTasks() const;

    /** Snapshot of the job's dead-letter queue: the final incarnation
     *  of every poisoned task, in quarantine order. */
    std::vector<Task> deadLetters() const;

  private:
    friend class ExecutorService;
    explicit JobHandle(std::shared_ptr<detail::JobRecord> record)
        : record_(std::move(record))
    {}

    std::shared_ptr<detail::JobRecord> record_;
};

/** Service tunables. */
struct ServiceOptions
{
    unsigned numThreads = 1;
    /** Max jobs admitted but not yet adopted by a worker. Submissions
     *  beyond this are rejected (or block, see blockWhenFull). */
    size_t admissionCapacity = 16;
    /** Overflowing submit blocks for queue space instead of
     *  rejecting. Shutdown unblocks such submitters with Rejected.
     *  Applies to the service-wide capacity and to per-tenant
     *  maxQueuedJobs quotas; rate limits always reject. */
    bool blockWhenFull = false;
    /**
     * Global in-flight task budget: while at least this many tasks are
     * created-but-not-completed across all jobs, no further queued job
     * dispatches (a dispatching job may overshoot transiently — its
     * seeds and children are never split). This is the saturation
     * throttle that makes the fair-queueing dispatch order govern the
     * completed-task share; 0 (default) = dispatch greedily, the
     * pre-fairness behavior.
     */
    uint64_t maxInFlightTasks = 0;
    /** Per-tenant weights and quotas. Tenants absent from the map get
     *  default TenantQuota (weight 1, no limits) on first use. */
    std::map<TenantId, TenantQuota> tenants;
    uint64_t seed = 1;           ///< retry-backoff jitter seed
    /** Optional observability sink (>= numThreads worker slots,
     *  outlives the service). Workers attribute TaskRetries /
     *  DrainedTasks to their own slots; job latencies land in the
     *  JobLatencyMs global series. */
    MetricsRegistry *metrics = nullptr;
    /** Worker supervision: health FSM thresholds, restart budget,
     *  escalation (disabled by default — no FSM polling, zero
     *  per-iteration cost). */
    SupervisorPolicy supervisor;
};

/** Aggregate service counters + job-latency percentiles. */
struct ServiceStats
{
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;  ///< admission-queue overflow or shutdown
    uint64_t completed = 0;
    uint64_t failed = 0;    ///< ProcessFn errors (incl. deadline)
    uint64_t deadlineExpired = 0; ///< subset of failed
    uint64_t cancelled = 0;
    uint64_t taskRetries = 0;
    uint64_t tasksDrained = 0; ///< discarded for draining jobs
    uint64_t poisonedTasks = 0; ///< dead-lettered across all jobs
    uint64_t demotedTasks = 0; ///< incarnations re-tagged by preemption
    uint64_t autoDemotedJobs = 0; ///< demoteAfterMs auto-demotions
    /** Supervision (all 0 / false while supervision is disabled). */
    uint64_t workerRestarts = 0;
    uint64_t healthTransitions = 0;
    uint64_t wedgesDetected = 0;
    uint64_t crashesDetected = 0;
    bool escalated = false;
    /** Submit-to-terminal latency over terminal (non-rejected) jobs. */
    double jobLatencyP50Ms = 0.0;
    double jobLatencyP99Ms = 0.0;
    double jobLatencyMaxMs = 0.0;
    uint64_t jobsMeasured = 0;
};

/** Per-tenant accounting snapshot (ExecutorService::tenantStats()). */
struct TenantStats
{
    TenantId tenant = 0;
    double weight = 1.0;       ///< TenantQuota default weight
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t jobsCompleted = 0;
    uint64_t tasksProcessed = 0; ///< successful ProcessFn completions
    uint64_t queuedJobs = 0;     ///< backlog at snapshot time
    uint64_t inFlightTasks = 0;  ///< created-but-not-completed now
    double virtualFinish = 0.0;  ///< SFQ clock (diagnostics)
};

/**
 * The long-lived worker pool. Owns one thread per worker slot and one
 * monitor thread (deadlines, auto-demotion, tenant series and, when
 * enabled, supervision); schedules every job's tasks through the
 * caller-provided scheduler (any CPS design — wrap it in a
 * VerifyingScheduler to get per-job conservation checking). The
 * scheduler must have exactly ServiceOptions::numThreads workers and
 * must outlive the service.
 */
class ExecutorService
{
  public:
    ExecutorService(Scheduler &sched, const ServiceOptions &options);
    ~ExecutorService();

    ExecutorService(const ExecutorService &) = delete;
    ExecutorService &operator=(const ExecutorService &) = delete;

    /**
     * Submit one job. Always returns a handle: inspect
     * handle.state() == JobState::Rejected (with handle.error() as the
     * reason) for admission failures. Safe from any thread, including
     * several submitters at once.
     */
    JobHandle submit(JobSpec spec);

    /** Jobs admitted and not yet terminal (queued + running +
     *  draining). */
    uint64_t activeJobs() const;

    /** Aggregate counters and latency percentiles so far. */
    ServiceStats stats() const;

    /** Per-tenant accounting for every tenant seen so far, ascending
     *  by tenant id. Safe from any thread. */
    std::vector<TenantStats> tenantStats() const;

    /** Health of worker slot `tid` (Healthy when supervision is
     *  disabled). Safe from any thread. */
    WorkerHealth workerHealth(unsigned tid) const;

    /** True once the supervisor spent the restart budget and failed
     *  the service: live jobs fail, new submissions are rejected. */
    bool escalated() const;

    /**
     * Stop accepting work, run every already-admitted job to a
     * terminal state, then join all threads. Idempotent; called by the
     * destructor. Blocked submitters are released with Rejected.
     */
    void shutdown();

  private:
    friend class JobHandle; ///< cancel/deprioritize route through here
    friend struct detail::JobRecord; ///< holds its TenantState pointer

    using Record = detail::JobRecord;
    using RecordPtr = std::shared_ptr<detail::JobRecord>;

    /**
     * One tenant's fair-queueing state. Structure (backlog, clocks,
     * bucket, plain counters) is guarded by admitMutex_; the per-worker
     * task slots are written on the per-task hot path without it.
     * Stored behind stable unique_ptrs: JobRecords keep a raw pointer
     * for in-flight accounting, and tenants are never erased while the
     * service lives.
     */
    struct TenantState
    {
        /**
         * One worker's share of the tenant's task accounting, on its
         * own cache line. Only the thread driving slot `tid` writes it
         * (a healed slot keeps its thread; a retired slot's drain runs
         * after its thread left the loop), so a bump is a relaxed load
         * plus a release store, not an RMW on a line every worker
         * fights over. Readers sum the slots.
         */
        struct alignas(cacheLineBytes) WorkerSlot
        {
            std::atomic<uint64_t> created{0};
            std::atomic<uint64_t> completed{0};
            std::atomic<uint64_t> processed{0}; ///< ProcessFn returned
        };

        explicit TenantState(unsigned numSlots) : slots(numSlots) {}

        /**
         * Created-but-not-completed tasks, read completed-first like
         * TerminationCounters::quiescentOnce: never less than the true
         * count at the instant the completed pass ends, and exact once
         * the tenant is quiescent. It can over-count by the tasks
         * created during the scan, so a gate reading it errs toward
         * delaying a dispatch.
         */
        uint64_t inFlightTasks() const;

        /** Successful ProcessFn completions so far. */
        uint64_t tasksProcessed() const;

        TenantId id = 0;
        TenantQuota quota;
        /** Backlog ordered by (job priority, id): strict priority +
         *  FIFO *within* the tenant; SFQ picks across tenants. */
        std::map<std::pair<Priority, JobId>, RecordPtr> backlog;
        double virtualFinish = 0.0; ///< SFQ per-tenant clock
        /** Frozen start tag of the current backlog head. Stamped when
         *  the backlog becomes non-empty and again after each
         *  dispatch — never re-derived from the advancing global
         *  clock at bid time, which would let a heavy tenant's
         *  dispatches push a light tenant's bid forward forever. */
        double headStart = 0.0;
        TokenBucket bucket;         ///< admission rate limiter
        uint64_t submitted = 0;
        uint64_t admitted = 0;
        uint64_t rejected = 0;
        std::atomic<uint64_t> jobsCompleted{0};
        std::vector<WorkerSlot> slots; ///< one per worker thread
        /** Monitor-only sampling state for the per-tenant
         *  share/backlog series. */
        int shareSeries = -1;
        int backlogSeries = -1;
        uint64_t lastTasksProcessed = 0;
    };

    /** The service's policies for the shared worker loop and monitor
     *  (worker_common.h). */
    class JobWorker;
    class JobMonitor;

    /** Restart budget spent: retire `tid` (its thread has latched its
     *  exit and leaves on seeing Retired), fail every live job, reject
     *  future submissions, and drain the retired slot's queues so no
     *  task (and no job) strands. */
    void escalateService(unsigned tid);

    /** Dispatch the fair-queueing winner (if any tenant is eligible):
     *  seed its tasks under this worker's tid. Returns true when a job
     *  was adopted. */
    bool adoptOne(unsigned tid);

    /** Get-or-create a tenant's state; admitMutex_ must be held. */
    TenantState &tenantStateLocked(TenantId id);

    /** Ledger + in-flight accounting for `n` tasks created by `tid`
     *  on behalf of record's job (before they become poppable). */
    void noteTasksCreated(Record &record, unsigned tid, uint64_t n);

    /** Ledger + in-flight accounting for one completed task;
     *  `processed` when its ProcessFn returned normally. Call before
     *  pushing what the task created (see maybeFinishJob). */
    void noteTaskCompleted(Record &record, unsigned tid,
                           bool processed = false);

    /** The live record for `job`, looked up under jobsMutex_ (null
     *  when the job is not in the table). */
    RecordPtr findJob(JobId job) const;

    /** Pop-side handling of one task belonging to `record`. Returns
     *  true when the task completed with no children: the job's
     *  quiescence scan is then owed, and JobWorker pays it at the pop
     *  that leaves the job (DESIGN.md §14.6). */
    bool processTask(unsigned tid, const RecordPtr &record,
                     const Task &task, std::vector<Task> &children);

    /** A task of `record` threw: retry with backoff, or exhaust the
     *  policy and latch the job failure. */
    void handleTaskFailure(unsigned tid, const RecordPtr &record,
                           const Task &task, const char *what);

    /**
     * Latch a failure verdict for the job (first verdict wins) and
     * start its drain; a still-Queued job is finished in place.
     * `widenCancelRace` arms the svc.cancel.race delay between the
     * verdict claim and the stop-flag publication. Returns true when
     * this call claimed the verdict.
     */
    bool terminateJob(const RecordPtr &record, JobState verdict,
                      const std::string &message, bool widenCancelRace);

    /**
     * Terminal-transition attempt: if the job is quiescent, CAS it to
     * its terminal state, record latency, wake waiters. Completion
     * paths call it only when they pushed nothing: a worker counts its
     * task completed before it pushes what the task created, so only
     * such a completion can make a job quiescent (soundness argument
     * on TerminationCounters::quiescentOnce). A childless success
     * defers the call to the worker's next pop that leaves the job;
     * the cold paths call it at once.
     */
    void maybeFinishJob(const RecordPtr &record);

    /** One-time terminal bookkeeping (state already stored). */
    void finishRecord(Record &record, JobState terminal);

    uint64_t retryBackoffUs(const Record &record,
                            const Task &task) const;

    Scheduler &sched_;
    ServiceOptions options_;

    /** Job table: every admitted, non-terminal job by id. Written on
     *  admit/finish; read by the monitor, escalation, and a worker
     *  whose job-record cache missed (JobWorker). */
    mutable std::shared_mutex jobsMutex_;
    std::unordered_map<JobId, RecordPtr> jobs_;

    /**
     * Admission state: per-tenant backlogs plus the global SFQ virtual
     * time. vtime_ advances to the winner's virtual start tag on every
     * dispatch, so a tenant going idle and returning gets no banked
     * credit (its clock snaps forward to max(vtime_, own finish)).
     * All guarded by admitMutex_.
     */
    mutable std::mutex admitMutex_;
    std::map<TenantId, std::unique_ptr<TenantState>> tenants_;
    double vtime_ = 0.0;
    /** Total backlog across tenants. Written only under admitMutex_;
     *  adoptOne's empty check reads it without the lock. */
    std::atomic<size_t> queuedJobs_{0};
    std::condition_variable admitSpace_; ///< blocked submitters
    std::condition_variable work_;       ///< idle workers

    std::atomic<uint32_t> nextJobId_{1};
    std::atomic<bool> shutdown_{false};
    std::atomic<bool> escalated_{false};
    std::atomic<uint64_t> activeJobs_{0};

    /** Aggregate counters (relaxed; exact because each event is
     *  counted exactly once). */
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> admitted_{0};
    std::atomic<uint64_t> rejected_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> deadlineExpired_{0};
    std::atomic<uint64_t> cancelled_{0};
    std::atomic<uint64_t> taskRetries_{0};
    std::atomic<uint64_t> tasksDrained_{0};
    std::atomic<uint64_t> poisonedTasks_{0};
    std::atomic<uint64_t> demotedTasks_{0};
    std::atomic<uint64_t> autoDemotedJobs_{0};

    /** Latencies of terminal (non-rejected) jobs, ms. The mutex also
     *  serializes JobLatencyMs recordGlobal writers. */
    mutable std::mutex latencyMutex_;
    std::vector<double> latenciesMs_;

    /** The health FSM; null while supervision is disabled. */
    std::unique_ptr<WorkerSupervisor> supervisor_;

    /** Slot `tid`'s CPU (planSlotCpus from the owner, skipping the
     *  owner's CPU); empty when nothing is pinned. Set before the
     *  workers start. */
    std::vector<unsigned> slotCpus_;

    std::mutex shutdownMutex_; ///< serializes the join phase
    std::vector<std::thread> workers_; ///< one per slot, for good
    Monitor monitor_;
};

} // namespace hdcps

#endif // HDCPS_RUNTIME_EXECUTOR_SERVICE_H_
