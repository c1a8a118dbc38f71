/**
 * @file
 * Low-overhead scheduler observability: per-worker, cache-padded metric
 * slots (counters + gauges + fixed-capacity time-series ring buffers)
 * behind one registry, with a snapshot/merge API.
 *
 * Motivation (MultiQueues engineering paper, PMOD): adaptive schedulers
 * are only debuggable and tunable when their internal signals — drift,
 * TDF decisions, receive-queue occupancy, bag creation — are visible
 * *over time*, not just as end-of-run averages. A lone average hides
 * exactly the pathologies that matter (e.g. a wrapped-subtraction drift
 * spike poisons the TDF controller for one interval and then vanishes
 * into the mean).
 *
 * Concurrency contract (kept deliberately loose so the hot path stays
 * cheap):
 *  - counter/gauge writes are relaxed atomics — safe from any thread;
 *  - each TimeSeries has a single writer at a time (per-worker series
 *    are written by the owning worker; global series by whichever
 *    thread holds the sampling role, serialized by the caller);
 *  - snapshot() may run concurrently with writers. Samples about to be
 *    overwritten in a full ring can tear (timestamp from one sample,
 *    value from another) — acceptable for observability, and all
 *    accesses are atomic so there is no UB and TSan stays quiet.
 *
 * Attribution contract (audited in PR 4, enforced on demand here):
 * every scheduler/runtime metrics call must act on the *calling*
 * thread's worker slot — "who did it", never "who it was done to". A
 * given worker id is driven by one thread at a time (sequential
 * handoffs, e.g. the executor's single-threaded seeding phase, are
 * fine), so no two threads should ever be inside a write to the same
 * slot simultaneously. Config::checkSingleWriter arms a debug checker
 * that records the writing thread per slot (and per global series) for
 * the duration of each write and flags any overlapping write by a
 * different thread; Config::abortOnWriterViolation upgrades the flag
 * to a fatal abort. The checker is off by default and costs the hot
 * path one predicted branch.
 */

#ifndef HDCPS_OBS_METRICS_H_
#define HDCPS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/compiler.h"
#include "support/logging.h"
#include "support/timer.h"

namespace hdcps {

/** One timestamped observation (t is ns since the registry's epoch). */
struct MetricSample
{
    uint64_t t = 0;
    double value = 0.0;
};

/**
 * Fixed-capacity ring of timestamped samples. Overwrites the oldest
 * sample when full; totalRecorded() exposes how many were ever written
 * so exporters can report drops.
 */
class MetricTimeSeries
{
  public:
    explicit MetricTimeSeries(size_t capacity) : capacity_(capacity)
    {
        hdcps_check(capacity >= 1, "time series capacity must be >= 1");
        slots_ = std::make_unique<Slot[]>(capacity);
    }

    size_t capacity() const { return capacity_; }

    /** Samples ever recorded (recorded - min(recorded, capacity) were
     *  dropped by the ring). */
    uint64_t
    totalRecorded() const
    {
        return count_.load(std::memory_order_acquire);
    }

    /** Append one sample. Single writer at a time (see file comment). */
    void
    record(uint64_t t, double value)
    {
        uint64_t n = count_.load(std::memory_order_relaxed);
        Slot &slot = slots_[n % capacity_];
        slot.t.store(t, std::memory_order_relaxed);
        slot.value.store(value, std::memory_order_relaxed);
        count_.store(n + 1, std::memory_order_release);
    }

    /**
     * Sampled-recording gate (Config::sampleShift): count the offer and
     * return true for 1 in 2^shift offers — the first of every stride,
     * so short runs still produce points. Same single-writer contract
     * as record(); the counter is a load+store pair, not an RMW, for
     * the same reason the schedulers' distributed counters are.
     */
    bool
    offerSampled(unsigned shift)
    {
        uint64_t n = offered_.load(std::memory_order_relaxed);
        offered_.store(n + 1, std::memory_order_relaxed);
        return (n & ((uint64_t(1) << shift) - 1)) == 0;
    }

    /** Offers ever made through offerSampled (0 when unsampled). */
    uint64_t
    totalOffered() const
    {
        return offered_.load(std::memory_order_relaxed);
    }

    /** The retained samples, oldest first. Safe concurrently with the
     *  writer (wraparound tearing possible, see file comment). */
    std::vector<MetricSample>
    snapshot() const
    {
        uint64_t n = count_.load(std::memory_order_acquire);
        uint64_t keep = n < capacity_ ? n : capacity_;
        std::vector<MetricSample> out;
        out.reserve(keep);
        for (uint64_t i = n - keep; i < n; ++i) {
            const Slot &slot = slots_[i % capacity_];
            out.push_back(
                MetricSample{slot.t.load(std::memory_order_relaxed),
                             slot.value.load(std::memory_order_relaxed)});
        }
        return out;
    }

  private:
    struct Slot
    {
        std::atomic<uint64_t> t{0};
        std::atomic<double> value{0.0};
    };

    std::unique_ptr<Slot[]> slots_;
    size_t capacity_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> offered_{0}; ///< offerSampled calls ever made
};

/** Per-worker monotonic counters. */
enum class WorkerCounter : unsigned {
    TasksProcessed = 0, ///< pops whose processing completed
    EmptyTasks,         ///< processed tasks that created no children
    LocalEnqueues,      ///< tasks pushed to the worker's own queue
    RemoteEnqueues,     ///< tasks pushed toward another worker
    OverflowPushes,     ///< sRQ-full fallbacks to the spill path
    BagsCreated,        ///< Algorithm 1 bags created
    TasksInBags,        ///< tasks shipped inside bags
    ReclaimedTasks,     ///< tasks drained from a straggler's queues
    ReclaimRaces,       ///< reclamation lock attempts lost to a peer
    PoolRecycled,       ///< bag envelopes served from the pool free list
    TaskRetries,        ///< service tasks re-pushed after a transient failure
    DrainedTasks,       ///< tasks discarded for a cancelled/failed/expired job
    WorkerRestarts,     ///< replacement workers spawned into a freed slot
    HealthTransitions,  ///< supervisor health-FSM state changes
    PoisonedTasks,      ///< tasks diverted to a job's dead-letter queue
    CrossNodeEnqueues,  ///< remote sends routed across NUMA node bounds
    SameNodeEnqueues,   ///< remote sends kept within the sender's node
    DemotedTasks,       ///< incarnations re-tagged by job preemption
    Count
};

/** Per-worker last-value gauges. */
enum class WorkerGauge : unsigned {
    QueueDepth = 0, ///< tasks buffered at the worker (design-defined)
    PendingTasks,   ///< runtime in-flight count (sampled by worker 0)
    Count
};

/** Per-worker time series. */
enum class WorkerSeries : unsigned {
    SrqOccupancy = 0, ///< HD-CPS receive-queue occupancy at sample time
    QueueOccupancy,   ///< baseline designs' local buffered work
    EnqueueNs,        ///< cumulative per-phase breakdown (threaded runtime)
    DequeueNs,
    ComputeNs,
    CommNs,
    Count
};

/** Global (master-written) time series. */
enum class GlobalSeries : unsigned {
    Drift = 0, ///< executor's design-independent Eq. 1 samples
    TdfDrift,  ///< HD-CPS drift samples, closed by its worker 0
    RankError, ///< verifying wrapper's sampled priority-inversion gap
    JobLatencyMs, ///< service per-job submit-to-terminal latency
    ReclaimLatencyMs, ///< supervisor quarantine-to-reclaimed latency
    CrossNodePct, ///< % of remote sends that crossed node boundaries
    Count
};

const char *workerCounterName(WorkerCounter c);
const char *workerGaugeName(WorkerGauge g);
const char *workerSeriesName(WorkerSeries s);
const char *globalSeriesName(GlobalSeries s);

/** Everything a registry held at one instant, merged and nameable. */
struct MetricsSnapshot
{
    struct Counter
    {
        std::string name;
        uint64_t total = 0;
        std::vector<uint64_t> perWorker;
    };

    struct Gauge
    {
        std::string name;
        std::vector<double> perWorker;
    };

    struct Series
    {
        std::string name;
        int worker = -1; ///< -1 = global
        uint64_t totalRecorded = 0;
        std::vector<MetricSample> samples;
    };

    uint64_t epochNs = 0;       ///< registry creation, absolute ns
    uint64_t takenNs = 0;       ///< snapshot time relative to epoch
    unsigned numWorkers = 0;
    uint64_t sampleInterval = 0;
    std::vector<Counter> counters;
    std::vector<Gauge> gauges;
    std::vector<Series> series; ///< only non-empty series

    /**
     * Fold another snapshot into this one (counters add element-wise by
     * name, gauges keep the other's values where set, series are
     * appended). Used to combine registries from repeated runs.
     */
    void merge(const MetricsSnapshot &other);
};

/**
 * The registry: one cache-padded slot per worker plus the global
 * series. Hot-path methods are branch-plus-relaxed-atomic cheap; the
 * expensive work (naming, merging, export) happens in snapshot().
 */
class MetricsRegistry
{
  public:
    struct Config
    {
        size_t seriesCapacity = 4096; ///< ring slots per time series
        /** Pops between occupancy samples taken via tick(). */
        uint64_t sampleInterval = 500;
        /** Arm the single-writer debug checker (see file comment).
         *  Conformance/chaos harness knob, not a production default. */
        bool checkSingleWriter = false;
        /** With the checker armed, abort the process on a cross-thread
         *  write instead of only counting it. */
        bool abortOnWriterViolation = false;
        /**
         * Always-on sampling mode: when nonzero, record()/recordGlobal()
         * keep only 1 in 2^sampleShift offered samples per series (the
         * first of each stride, so short runs still yield points) and
         * drop the rest before touching the ring or the clock. Cheap
         * enough to leave attached during perf-gate runs; 0 (default)
         * records everything, the original behavior.
         */
        unsigned sampleShift = 0;
    };

    explicit MetricsRegistry(unsigned numWorkers)
        : MetricsRegistry(numWorkers, Config{})
    {}

    MetricsRegistry(unsigned numWorkers, const Config &config);

    unsigned numWorkers() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    uint64_t sampleInterval() const { return config_.sampleInterval; }

    /** Nanoseconds since the registry was created. */
    uint64_t now() const { return nowNs() - epochNs_; }

    /** Bump a per-worker counter (attribute to the acting thread's
     *  worker id; see the attribution contract in the file comment). */
    void
    add(unsigned tid, WorkerCounter c, uint64_t n = 1)
    {
        WriterCheck check(*this, workers_[tid]->busy, int(tid));
        workers_[tid]->counters[unsigned(c)].fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Set a per-worker gauge (acting thread's worker id). */
    void
    set(unsigned tid, WorkerGauge g, double value)
    {
        WriterCheck check(*this, workers_[tid]->busy, int(tid));
        workers_[tid]->gauges[unsigned(g)].store(
            value, std::memory_order_relaxed);
    }

    /** Record into a per-worker series (owning worker only). */
    void
    record(unsigned tid, WorkerSeries s, double value)
    {
        WriterCheck check(*this, workers_[tid]->busy, int(tid));
        MetricTimeSeries &series = *workers_[tid]->series[unsigned(s)];
        if (config_.sampleShift != 0 &&
            !series.offerSampled(config_.sampleShift))
            return;
        series.record(now(), value);
    }

    /**
     * Get-or-create a *named* global series for populations only known
     * at runtime (e.g. the service's per-tenant share/backlog series).
     * Returns a stable handle for recordCustom; the same name always
     * yields the same handle. Thread-safe; intended for cold-path
     * setup, not per-task calls.
     */
    int customSeries(const std::string &name);

    /** Record into a custom series (single writer per series, same
     *  contract as recordGlobal). Snapshots report it as a global
     *  (worker == -1) series under its registered name. */
    void recordCustom(int handle, double value);

    /** Record into a global series (caller serializes writers). */
    void
    recordGlobal(GlobalSeries s, double value)
    {
        WriterCheck check(*this, globalBusy_[unsigned(s)], -1 - int(s));
        MetricTimeSeries &series = *global_[unsigned(s)];
        if (config_.sampleShift != 0 &&
            !series.offerSampled(config_.sampleShift))
            return;
        series.record(now(), value);
    }

    /**
     * Per-worker sampling pacer: count one pop for tid and return true
     * every sampleInterval-th call. Owning worker only — this is the
     * one-liner that lets every scheduler design emit occupancy series
     * without keeping its own sampling state.
     */
    bool
    tick(unsigned tid)
    {
        WorkerSlot &w = *workers_[tid];
        WriterCheck check(*this, w.busy, int(tid));
        if (++w.ticks < config_.sampleInterval)
            return false;
        w.ticks = 0;
        return true;
    }

    /**
     * Cross-thread writes the armed checker flagged so far. A nonzero
     * count means some metrics call acted on a slot while a different
     * thread was mid-write to it — an attribution bug in a scheduler or
     * the runtime, never legitimate load.
     */
    uint64_t
    writerViolations() const
    {
        return writerViolations_.load(std::memory_order_relaxed);
    }

    /** Retained human-readable violation descriptions (capped). */
    std::vector<std::string> writerViolationSamples() const;

    /** Name, merge and copy out everything currently held. */
    MetricsSnapshot snapshot() const;

  private:
    struct alignas(cacheLineBytes) WorkerSlot
    {
        std::atomic<uint64_t>
            counters[unsigned(WorkerCounter::Count)] = {};
        std::atomic<double> gauges[unsigned(WorkerGauge::Count)] = {};
        uint64_t ticks = 0; ///< owner-only tick() state
        std::vector<std::unique_ptr<MetricTimeSeries>> series;
        /** Debug-checker cell: tag of the thread currently inside a
         *  write to this slot, 0 when none (unused unless armed). */
        std::atomic<uint64_t> busy{0};
    };

    /**
     * RAII guard marking one write to a slot/series. With the checker
     * off it is a single predicted branch; armed, it exchanges the
     * writing thread's tag into the busy cell and flags overlap with a
     * different tag. Detection is overlap-based on purpose: sequential
     * handoffs of a worker id between threads are legal, simultaneous
     * writes never are.
     */
    class WriterCheck
    {
      public:
        WriterCheck(const MetricsRegistry &registry,
                    std::atomic<uint64_t> &cell, int slot)
        {
            if (__builtin_expect(!registry.config_.checkSingleWriter, 1))
                return;
            cell_ = &cell;
            uint64_t me = writerTag();
            uint64_t prev = cell.exchange(me, std::memory_order_acq_rel);
            if (prev != 0 && prev != me)
                registry.noteWriterViolation(slot, prev, me);
        }

        ~WriterCheck()
        {
            if (cell_)
                cell_->store(0, std::memory_order_release);
        }

        WriterCheck(const WriterCheck &) = delete;
        WriterCheck &operator=(const WriterCheck &) = delete;

      private:
        std::atomic<uint64_t> *cell_ = nullptr;
    };

    /** Small dense per-thread tag (1-based; 0 means "no writer"). */
    static uint64_t writerTag();

    /** Count + describe one flagged cross-thread write. `slot` >= 0 is
     *  a worker id; negative encodes global series -1 - int(series). */
    void noteWriterViolation(int slot, uint64_t prevTag,
                             uint64_t myTag) const;

    /** One runtime-named global series (customSeries). The busy cell
     *  is per-series so the single-writer checker covers these too. */
    struct CustomSeries
    {
        std::string name;
        std::unique_ptr<MetricTimeSeries> series;
        std::atomic<uint64_t> busy{0};
    };

    Config config_;
    uint64_t epochNs_;
    std::vector<std::unique_ptr<WorkerSlot>> workers_;
    std::vector<std::unique_ptr<MetricTimeSeries>> global_;
    /** Runtime-named series; append-only behind customMutex_ (entries
     *  have stable addresses, so recordCustom only takes the mutex to
     *  resolve the handle). */
    mutable std::mutex customMutex_;
    std::vector<std::unique_ptr<CustomSeries>> custom_;
    /** Debug-checker cells for the global series (parallel to global_). */
    std::unique_ptr<std::atomic<uint64_t>[]> globalBusy_;
    mutable std::atomic<uint64_t> writerViolations_{0};
    mutable std::mutex violationMutex_;
    mutable std::vector<std::string> violationSamples_;
};

} // namespace hdcps

#endif // HDCPS_OBS_METRICS_H_
