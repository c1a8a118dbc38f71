#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

namespace hdcps {

const char *
workerCounterName(WorkerCounter c)
{
    static const char *const names[unsigned(WorkerCounter::Count)] = {
        "tasks_processed", "empty_tasks",   "local_enqueues",
        "remote_enqueues", "overflow_pushes", "bags_created",
        "tasks_in_bags",   "reclaimed_tasks", "reclaim_races",
        "pool_recycled",   "task_retries",
        "drained_tasks",   "worker_restarts", "health_transitions",
        "poisoned_tasks",  "cross_node_enqueues", "same_node_enqueues",
        "demoted_tasks",
    };
    return names[unsigned(c)];
}

const char *
workerGaugeName(WorkerGauge g)
{
    static const char *const names[unsigned(WorkerGauge::Count)] = {
        "queue_depth",
        "pending_tasks",
    };
    return names[unsigned(g)];
}

const char *
workerSeriesName(WorkerSeries s)
{
    static const char *const names[unsigned(WorkerSeries::Count)] = {
        "srq_occupancy", "queue_occupancy", "enqueue_ns",
        "dequeue_ns",    "compute_ns",      "comm_ns",
    };
    return names[unsigned(s)];
}

const char *
globalSeriesName(GlobalSeries s)
{
    static const char *const names[unsigned(GlobalSeries::Count)] = {
        "drift",
        "tdf_drift",
        "rank_error",
        "job_latency_ms",
        "reclaim_latency_ms",
        "cross_node_pct",
    };
    return names[unsigned(s)];
}

MetricsRegistry::MetricsRegistry(unsigned numWorkers,
                                 const Config &config)
    : config_(config), epochNs_(nowNs())
{
    hdcps_check(numWorkers >= 1, "need at least one worker");
    hdcps_check(config.seriesCapacity >= 1,
                "series capacity must be >= 1");
    hdcps_check(config.sampleInterval >= 1,
                "sample interval must be >= 1");
    workers_.reserve(numWorkers);
    for (unsigned i = 0; i < numWorkers; ++i) {
        auto slot = std::make_unique<WorkerSlot>();
        slot->series.reserve(unsigned(WorkerSeries::Count));
        for (unsigned s = 0; s < unsigned(WorkerSeries::Count); ++s) {
            slot->series.push_back(std::make_unique<MetricTimeSeries>(
                config.seriesCapacity));
        }
        workers_.push_back(std::move(slot));
    }
    global_.reserve(unsigned(GlobalSeries::Count));
    for (unsigned s = 0; s < unsigned(GlobalSeries::Count); ++s) {
        global_.push_back(
            std::make_unique<MetricTimeSeries>(config.seriesCapacity));
    }
    globalBusy_ = std::make_unique<std::atomic<uint64_t>[]>(
        unsigned(GlobalSeries::Count));
    for (unsigned s = 0; s < unsigned(GlobalSeries::Count); ++s)
        globalBusy_[s].store(0, std::memory_order_relaxed);
}

int
MetricsRegistry::customSeries(const std::string &name)
{
    hdcps_check(!name.empty(), "custom series needs a name");
    std::lock_guard<std::mutex> lock(customMutex_);
    for (size_t i = 0; i < custom_.size(); ++i) {
        if (custom_[i]->name == name)
            return int(i);
    }
    auto entry = std::make_unique<CustomSeries>();
    entry->name = name;
    entry->series =
        std::make_unique<MetricTimeSeries>(config_.seriesCapacity);
    custom_.push_back(std::move(entry));
    return int(custom_.size() - 1);
}

void
MetricsRegistry::recordCustom(int handle, double value)
{
    CustomSeries *entry;
    {
        std::lock_guard<std::mutex> lock(customMutex_);
        hdcps_check(handle >= 0 &&
                        size_t(handle) < custom_.size(),
                    "bad custom series handle %d", handle);
        entry = custom_[handle].get();
    }
    // Negative slots below the GlobalSeries range encode custom
    // handles for the violation report.
    WriterCheck check(*this, entry->busy,
                      -1 - int(GlobalSeries::Count) - handle);
    if (config_.sampleShift != 0 &&
        !entry->series->offerSampled(config_.sampleShift))
        return;
    entry->series->record(now(), value);
}

uint64_t
MetricsRegistry::writerTag()
{
    static std::atomic<uint64_t> next{1};
    thread_local uint64_t tag =
        next.fetch_add(1, std::memory_order_relaxed);
    return tag;
}

void
MetricsRegistry::noteWriterViolation(int slot, uint64_t prevTag,
                                     uint64_t myTag) const
{
    writerViolations_.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream out;
    if (slot >= 0) {
        out << "worker slot " << slot;
    } else {
        unsigned s = unsigned(-1 - slot);
        if (s < unsigned(GlobalSeries::Count))
            out << "global series '"
                << globalSeriesName(GlobalSeries(s)) << "'";
        else
            out << "custom series #"
                << (s - unsigned(GlobalSeries::Count));
    }
    out << " written concurrently by thread #" << myTag
        << " while thread #" << prevTag << " was mid-write";
    if (config_.abortOnWriterViolation)
        hdcps_fatal("metrics single-writer violation: %s",
                    out.str().c_str());
    std::lock_guard<std::mutex> lock(violationMutex_);
    constexpr size_t kMaxSamples = 8;
    if (violationSamples_.size() < kMaxSamples)
        violationSamples_.push_back(out.str());
}

std::vector<std::string>
MetricsRegistry::writerViolationSamples() const
{
    std::lock_guard<std::mutex> lock(violationMutex_);
    return violationSamples_;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    snap.epochNs = epochNs_;
    snap.takenNs = now();
    snap.numWorkers = numWorkers();
    snap.sampleInterval = config_.sampleInterval;

    for (unsigned c = 0; c < unsigned(WorkerCounter::Count); ++c) {
        MetricsSnapshot::Counter counter;
        counter.name = workerCounterName(WorkerCounter(c));
        counter.perWorker.reserve(workers_.size());
        for (const auto &w : workers_) {
            uint64_t v = w->counters[c].load(std::memory_order_relaxed);
            counter.perWorker.push_back(v);
            counter.total += v;
        }
        snap.counters.push_back(std::move(counter));
    }

    for (unsigned g = 0; g < unsigned(WorkerGauge::Count); ++g) {
        MetricsSnapshot::Gauge gauge;
        gauge.name = workerGaugeName(WorkerGauge(g));
        gauge.perWorker.reserve(workers_.size());
        for (const auto &w : workers_)
            gauge.perWorker.push_back(
                w->gauges[g].load(std::memory_order_relaxed));
        snap.gauges.push_back(std::move(gauge));
    }

    auto addSeries = [&snap](const MetricTimeSeries &ts,
                             const char *name, int worker) {
        uint64_t total = ts.totalRecorded();
        if (total == 0)
            return; // never written: keep exports compact
        MetricsSnapshot::Series series;
        series.name = name;
        series.worker = worker;
        series.totalRecorded = total;
        series.samples = ts.snapshot();
        snap.series.push_back(std::move(series));
    };

    for (unsigned s = 0; s < unsigned(GlobalSeries::Count); ++s)
        addSeries(*global_[s], globalSeriesName(GlobalSeries(s)), -1);
    {
        std::lock_guard<std::mutex> lock(customMutex_);
        for (const auto &entry : custom_)
            addSeries(*entry->series, entry->name.c_str(), -1);
    }
    for (unsigned tid = 0; tid < workers_.size(); ++tid) {
        for (unsigned s = 0; s < unsigned(WorkerSeries::Count); ++s) {
            addSeries(*workers_[tid]->series[s],
                      workerSeriesName(WorkerSeries(s)), int(tid));
        }
    }
    return snap;
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    numWorkers = std::max(numWorkers, other.numWorkers);
    takenNs = std::max(takenNs, other.takenNs);
    for (const Counter &theirs : other.counters) {
        auto it = std::find_if(counters.begin(), counters.end(),
                               [&theirs](const Counter &c) {
                                   return c.name == theirs.name;
                               });
        if (it == counters.end()) {
            counters.push_back(theirs);
            continue;
        }
        it->total += theirs.total;
        it->perWorker.resize(
            std::max(it->perWorker.size(), theirs.perWorker.size()), 0);
        for (size_t i = 0; i < theirs.perWorker.size(); ++i)
            it->perWorker[i] += theirs.perWorker[i];
    }
    for (const Gauge &theirs : other.gauges) {
        auto it = std::find_if(gauges.begin(), gauges.end(),
                               [&theirs](const Gauge &g) {
                                   return g.name == theirs.name;
                               });
        if (it == gauges.end())
            gauges.push_back(theirs);
        else
            *it = theirs; // gauges are last-value: newest snapshot wins
    }
    for (const Series &theirs : other.series)
        series.push_back(theirs);
}

} // namespace hdcps
