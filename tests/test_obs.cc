/**
 * @file
 * Tests for the observability subsystem: the time-series ring, the
 * registry's counters/gauges/series/tick pacing, snapshot merging, the
 * JSON/CSV exporters (validated with a minimal JSON parser), and an
 * end-to-end threaded run that must produce the acceptance-critical
 * drift / TDF / sRQ-occupancy series.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hdcps.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/executor.h"

namespace hdcps {
namespace {

// ---------------------------------------------------------------------
// MetricTimeSeries

TEST(MetricTimeSeries, RecordsInOrderBelowCapacity)
{
    MetricTimeSeries series(8);
    for (uint64_t i = 0; i < 5; ++i)
        series.record(i * 10, double(i));
    EXPECT_EQ(series.totalRecorded(), 5u);
    std::vector<MetricSample> samples = series.snapshot();
    ASSERT_EQ(samples.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(samples[i].t, i * 10);
        EXPECT_DOUBLE_EQ(samples[i].value, double(i));
    }
}

TEST(MetricTimeSeries, RingKeepsNewestWhenFull)
{
    MetricTimeSeries series(4);
    for (uint64_t i = 0; i < 10; ++i)
        series.record(i, double(i));
    EXPECT_EQ(series.totalRecorded(), 10u);
    std::vector<MetricSample> samples = series.snapshot();
    ASSERT_EQ(samples.size(), 4u);
    // Oldest-first: 6, 7, 8, 9 survive.
    for (uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(samples[i].t, 6 + i);
        EXPECT_DOUBLE_EQ(samples[i].value, double(6 + i));
    }
}

TEST(MetricTimeSeries, SnapshotSafeDuringConcurrentWrites)
{
    MetricTimeSeries series(64);
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            series.record(i, double(i));
            ++i;
        }
    });
    // Values equal their timestamps except for benign wraparound
    // tearing, which can only pair fields from two *valid* samples —
    // so every observed field must still be one the writer produced,
    // and the retained window can never exceed capacity.
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<MetricSample> samples = series.snapshot();
        EXPECT_LE(samples.size(), series.capacity());
        uint64_t total = series.totalRecorded();
        for (const MetricSample &s : samples) {
            EXPECT_LE(s.t, total + 1);
            EXPECT_GE(s.value, 0.0);
        }
    }
    stop.store(true);
    writer.join();
}

// ---------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, CountersAggregateAcrossWorkers)
{
    MetricsRegistry registry(3);
    registry.add(0, WorkerCounter::TasksProcessed, 5);
    registry.add(1, WorkerCounter::TasksProcessed, 7);
    registry.add(2, WorkerCounter::TasksProcessed);
    registry.add(1, WorkerCounter::BagsCreated, 2);

    MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.numWorkers, 3u);
    bool sawTasks = false;
    bool sawBags = false;
    for (const auto &c : snap.counters) {
        if (c.name == "tasks_processed") {
            sawTasks = true;
            EXPECT_EQ(c.total, 13u);
            ASSERT_EQ(c.perWorker.size(), 3u);
            EXPECT_EQ(c.perWorker[0], 5u);
            EXPECT_EQ(c.perWorker[1], 7u);
            EXPECT_EQ(c.perWorker[2], 1u);
        }
        if (c.name == "bags_created") {
            sawBags = true;
            EXPECT_EQ(c.total, 2u);
        }
    }
    EXPECT_TRUE(sawTasks);
    EXPECT_TRUE(sawBags);
}

TEST(MetricsRegistry, GaugesKeepLastValue)
{
    MetricsRegistry registry(2);
    registry.set(0, WorkerGauge::QueueDepth, 10.0);
    registry.set(0, WorkerGauge::QueueDepth, 4.0);
    MetricsSnapshot snap = registry.snapshot();
    bool saw = false;
    for (const auto &g : snap.gauges) {
        if (g.name != "queue_depth")
            continue;
        saw = true;
        ASSERT_EQ(g.perWorker.size(), 2u);
        EXPECT_DOUBLE_EQ(g.perWorker[0], 4.0);
        EXPECT_DOUBLE_EQ(g.perWorker[1], 0.0);
    }
    EXPECT_TRUE(saw);
}

TEST(MetricsRegistry, SnapshotSkipsNeverWrittenSeries)
{
    MetricsRegistry registry(2);
    registry.record(1, WorkerSeries::SrqOccupancy, 3.0);
    registry.recordGlobal(GlobalSeries::Drift, 1.5);
    MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.series.size(), 2u);
    std::set<std::string> names;
    for (const auto &s : snap.series)
        names.insert(s.name);
    EXPECT_TRUE(names.count("srq_occupancy"));
    EXPECT_TRUE(names.count("drift"));
    for (const auto &s : snap.series) {
        if (s.name == "srq_occupancy") {
            EXPECT_EQ(s.worker, 1);
        } else if (s.name == "drift") {
            EXPECT_EQ(s.worker, -1);
        }
    }
}

TEST(MetricsRegistry, TickFiresEverySampleInterval)
{
    MetricsRegistry::Config config;
    config.sampleInterval = 4;
    MetricsRegistry registry(1, config);
    unsigned fired = 0;
    for (int i = 0; i < 20; ++i) {
        if (registry.tick(0))
            ++fired;
    }
    EXPECT_EQ(fired, 5u);
}

TEST(MetricsRegistry, SeriesTimestampsAreMonotoneFromEpoch)
{
    MetricsRegistry registry(1);
    for (int i = 0; i < 10; ++i)
        registry.recordGlobal(GlobalSeries::Drift, double(i));
    MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.series.size(), 1u);
    const auto &samples = snap.series[0].samples;
    ASSERT_EQ(samples.size(), 10u);
    for (size_t i = 1; i < samples.size(); ++i)
        EXPECT_GE(samples[i].t, samples[i - 1].t);
    EXPECT_GE(snap.takenNs, samples.back().t);
}

// ---------------------------------------------------------------------
// Always-on sampling mode (Config::sampleShift): keep 1 in 2^shift
// offered samples per series — the first of each stride — and drop the
// rest before touching the ring or the clock.

TEST(MetricsSampling, ShiftKeepsFirstOfEachStride)
{
    MetricsRegistry::Config config;
    config.seriesCapacity = 64;
    config.sampleShift = 3; // keep 1 in 8
    MetricsRegistry registry(1, config);
    for (int i = 0; i < 64; ++i)
        registry.record(0, WorkerSeries::SrqOccupancy, double(i));
    MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.series.size(), 1u);
    const auto &samples = snap.series[0].samples;
    ASSERT_EQ(samples.size(), 8u);
    for (size_t i = 0; i < samples.size(); ++i)
        EXPECT_EQ(samples[i].value, double(i * 8))
            << "kept sample must be the first of its stride";
}

TEST(MetricsSampling, ZeroShiftRecordsEveryOffer)
{
    MetricsRegistry::Config config;
    config.seriesCapacity = 64;
    MetricsRegistry registry(1, config); // default sampleShift = 0
    for (int i = 0; i < 64; ++i)
        registry.record(0, WorkerSeries::SrqOccupancy, double(i));
    MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.series.size(), 1u);
    EXPECT_EQ(snap.series[0].samples.size(), 64u);
}

TEST(MetricsSampling, GlobalSeriesSampledWithTheSameShift)
{
    MetricsRegistry::Config config;
    config.seriesCapacity = 64;
    config.sampleShift = 2; // keep 1 in 4
    MetricsRegistry registry(1, config);
    for (int i = 0; i < 16; ++i)
        registry.recordGlobal(GlobalSeries::Drift, double(i));
    MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.series.size(), 1u);
    const auto &samples = snap.series[0].samples;
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[0].value, 0.0);
    EXPECT_EQ(samples[3].value, 12.0);
}

TEST(MetricsSampling, SampledWritesStaySingleWriterClean)
{
    // The sampling gate adds a second per-series counter to the write
    // path; with the debug checker armed, a legal one-writer-per-slot
    // workload must still report zero violations.
    MetricsRegistry::Config config;
    config.checkSingleWriter = true;
    config.sampleShift = 4;
    MetricsRegistry registry(2, config);
    std::thread a([&] {
        for (int i = 0; i < 50000; ++i)
            registry.record(0, WorkerSeries::SrqOccupancy, double(i));
    });
    std::thread b([&] {
        for (int i = 0; i < 50000; ++i)
            registry.record(1, WorkerSeries::SrqOccupancy, double(i));
    });
    a.join();
    b.join();
    EXPECT_EQ(registry.writerViolations(), 0u);
}

// ---------------------------------------------------------------------
// Single-writer debug checker. The registry's contract is that series,
// gauge, and tick writes for worker slot w come from one thread at a
// time (the acting thread owning w); the checker detects two threads
// inside a write to the same slot simultaneously.

TEST(MetricsSingleWriter, CheckerOffByDefault)
{
    MetricsRegistry registry(1);
    std::atomic<bool> start{false};
    auto hammer = [&] {
        while (!start.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < 50000; ++i)
            registry.record(0, WorkerSeries::SrqOccupancy, double(i));
    };
    std::thread a(hammer);
    std::thread b(hammer);
    start.store(true, std::memory_order_release);
    a.join();
    b.join();
    EXPECT_EQ(registry.writerViolations(), 0u);
    EXPECT_TRUE(registry.writerViolationSamples().empty());
}

TEST(MetricsSingleWriter, DetectsConcurrentWritesToOneSlot)
{
    MetricsRegistry::Config config;
    config.checkSingleWriter = true;
    MetricsRegistry registry(2, config);
    // Two threads spinning on the same slot overlap with near-certainty
    // within a round; retry a few rounds so the test cannot flake on a
    // pathological schedule.
    for (int round = 0; round < 20 && registry.writerViolations() == 0;
         ++round) {
        std::atomic<bool> start{false};
        auto hammer = [&] {
            while (!start.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < 100000; ++i)
                registry.record(0, WorkerSeries::SrqOccupancy, double(i));
        };
        std::thread a(hammer);
        std::thread b(hammer);
        start.store(true, std::memory_order_release);
        a.join();
        b.join();
    }
    EXPECT_GT(registry.writerViolations(), 0u);
    std::vector<std::string> samples = registry.writerViolationSamples();
    ASSERT_FALSE(samples.empty());
    EXPECT_NE(samples[0].find("worker slot 0"), std::string::npos)
        << samples[0];
}

TEST(MetricsSingleWriter, DetectsConcurrentGlobalSeriesWrites)
{
    MetricsRegistry::Config config;
    config.checkSingleWriter = true;
    MetricsRegistry registry(1, config);
    for (int round = 0; round < 20 && registry.writerViolations() == 0;
         ++round) {
        std::atomic<bool> start{false};
        auto hammer = [&] {
            while (!start.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < 100000; ++i)
                registry.recordGlobal(GlobalSeries::Drift, double(i));
        };
        std::thread a(hammer);
        std::thread b(hammer);
        start.store(true, std::memory_order_release);
        a.join();
        b.join();
    }
    EXPECT_GT(registry.writerViolations(), 0u);
    std::vector<std::string> samples = registry.writerViolationSamples();
    ASSERT_FALSE(samples.empty());
    EXPECT_NE(samples[0].find("global series 'drift'"), std::string::npos)
        << samples[0];
}

TEST(MetricsSingleWriter, SequentialHandoffIsClean)
{
    // The executor legitimately seeds every worker's slot from the main
    // thread before the workers start: ownership handoff is legal, only
    // *overlap* is a violation.
    MetricsRegistry::Config config;
    config.checkSingleWriter = true;
    MetricsRegistry registry(2, config);
    for (unsigned tid = 0; tid < 2; ++tid) {
        registry.add(tid, WorkerCounter::TasksProcessed);
        registry.record(tid, WorkerSeries::SrqOccupancy, 1.0);
        registry.tick(tid);
    }
    std::thread worker([&] {
        for (int i = 0; i < 10000; ++i) {
            registry.record(0, WorkerSeries::SrqOccupancy, double(i));
            registry.set(0, WorkerGauge::QueueDepth, double(i));
            registry.tick(0);
        }
    });
    worker.join();
    registry.record(0, WorkerSeries::SrqOccupancy, 2.0);
    EXPECT_EQ(registry.writerViolations(), 0u);
}

TEST(MetricsSingleWriter, DistinctSlotsWriteConcurrentlyClean)
{
    MetricsRegistry::Config config;
    config.checkSingleWriter = true;
    MetricsRegistry registry(4, config);
    std::atomic<bool> start{false};
    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < 4; ++tid) {
        threads.emplace_back([&, tid] {
            while (!start.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < 50000; ++i) {
                registry.add(tid, WorkerCounter::TasksProcessed);
                registry.record(tid, WorkerSeries::SrqOccupancy,
                                double(i));
                registry.tick(tid);
            }
        });
    }
    start.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(registry.writerViolations(), 0u);
}

TEST(MetricsSnapshot, MergeAddsCountersAndAppendsSeries)
{
    MetricsRegistry a(2);
    MetricsRegistry b(2);
    a.add(0, WorkerCounter::TasksProcessed, 3);
    b.add(1, WorkerCounter::TasksProcessed, 4);
    a.recordGlobal(GlobalSeries::Drift, 1.0);
    b.recordGlobal(GlobalSeries::RankError, 50.0);
    b.set(0, WorkerGauge::QueueDepth, 9.0);

    MetricsSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());

    for (const auto &c : merged.counters) {
        if (c.name == "tasks_processed") {
            EXPECT_EQ(c.total, 7u);
            EXPECT_EQ(c.perWorker[0], 3u);
            EXPECT_EQ(c.perWorker[1], 4u);
        }
    }
    std::set<std::string> names;
    for (const auto &s : merged.series)
        names.insert(s.name);
    EXPECT_TRUE(names.count("drift"));
    EXPECT_TRUE(names.count("rank_error"));
}

// ---------------------------------------------------------------------
// Exporters. The JSON checker below is a minimal recursive-descent
// well-formedness parser — enough to catch missing commas, bad
// escaping, or non-finite number leakage without an external library.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        skipSpace();
        return pos_ == text_.size();
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    value()
    {
        skipSpace();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            if (!string())
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipSpace();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string &text_;
    size_t pos_ = 0;
};

TEST(MetricsExport, JsonIsWellFormedAndSelfDescribing)
{
    MetricsRegistry registry(2);
    registry.add(0, WorkerCounter::TasksProcessed, 42);
    registry.set(1, WorkerGauge::QueueDepth, 7.0);
    registry.record(0, WorkerSeries::SrqOccupancy, 3.0);
    registry.recordGlobal(GlobalSeries::Drift, 12.5);
    registry.recordGlobal(GlobalSeries::RankError, 60.0);

    std::string json = metricsToJson(registry.snapshot());
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"hdcps-metrics-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"tasks_processed\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_depth\""), std::string::npos);
    EXPECT_NE(json.find("\"srq_occupancy\""), std::string::npos);
    EXPECT_NE(json.find("\"drift\""), std::string::npos);
    EXPECT_NE(json.find("\"rank_error\""), std::string::npos);
}

TEST(MetricsExport, JsonHandlesNonFiniteValues)
{
    MetricsRegistry registry(1);
    registry.recordGlobal(GlobalSeries::Drift,
                          std::numeric_limits<double>::infinity());
    registry.recordGlobal(GlobalSeries::Drift,
                          std::numeric_limits<double>::quiet_NaN());
    std::string json = metricsToJson(registry.snapshot());
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    // Non-finite doubles must not leak as bare inf/nan tokens.
    EXPECT_EQ(json.find("inf"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(MetricsExport, CsvHasHeaderAndRows)
{
    MetricsRegistry registry(1);
    registry.add(0, WorkerCounter::TasksProcessed, 9);
    registry.recordGlobal(GlobalSeries::Drift, 2.0);
    std::ostringstream out;
    writeMetricsCsv(out, registry.snapshot());
    std::string csv = out.str();
    EXPECT_EQ(csv.rfind("kind,name,worker,t_ns,value", 0), 0u);
    EXPECT_NE(csv.find("counter,tasks_processed"), std::string::npos);
    EXPECT_NE(csv.find("series,drift"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end: a threaded HD-CPS run with a registry attached must emit
// the acceptance-critical drift / TDF / sRQ-occupancy series, and the
// exported document for that run must be valid JSON.

ProcessFn
obsTreeWorkload(unsigned fanout, unsigned depth)
{
    return [fanout, depth](unsigned, const Task &task,
                           std::vector<Task> &children) {
        unsigned level = task.data;
        if (level >= depth)
            return;
        for (unsigned i = 0; i < fanout; ++i) {
            children.push_back(Task{task.priority + 1,
                                    task.node * fanout + i, level + 1});
        }
    };
}

TEST(MetricsEndToEnd, HdCpsRunProducesDriftTdfAndSrqSeries)
{
    constexpr unsigned threads = 4;
    HdCpsConfig config = HdCpsScheduler::configSw();
    config.sampleInterval = 25; // publish/TDF-decide often
    HdCpsScheduler sched(threads, config);

    MetricsRegistry::Config metricsConfig;
    metricsConfig.sampleInterval = 25;
    MetricsRegistry registry(threads, metricsConfig);

    RunOptions options;
    options.numThreads = threads;
    options.driftSampleInterval = 25;
    options.metrics = &registry;
    RunResult result = run(sched, {Task{0, 0, 0}},
                           obsTreeWorkload(3, 9), options);
    ASSERT_GT(result.total.tasksProcessed, 0u);

    MetricsSnapshot snap = registry.snapshot();
    std::set<std::string> names;
    for (const auto &s : snap.series) {
        names.insert(s.name);
        EXPECT_FALSE(s.samples.empty()) << s.name;
    }
    EXPECT_TRUE(names.count("drift"));
    EXPECT_TRUE(names.count("tdf_drift"));
    EXPECT_TRUE(names.count("srq_occupancy"));

    // Counters: the executor reports totals at loop exit, and every
    // HD-CPS delivery is classified local or remote. An enqueue moves
    // one envelope; a bag envelope carries tasks_in_bags tasks, so the
    // per-task count is (enqueues - bags) singles + tasks in bags, and
    // no-loss/no-dup makes that equal the processed total (the seed
    // push included).
    uint64_t tasks = 0;
    uint64_t enqueues = 0;
    uint64_t bags = 0;
    uint64_t inBags = 0;
    for (const auto &c : snap.counters) {
        if (c.name == "tasks_processed")
            tasks = c.total;
        if (c.name == "local_enqueues" || c.name == "remote_enqueues")
            enqueues += c.total;
        if (c.name == "bags_created")
            bags = c.total;
        if (c.name == "tasks_in_bags")
            inBags = c.total;
    }
    EXPECT_EQ(tasks, result.total.tasksProcessed);
    EXPECT_EQ(enqueues - bags + inBags, result.total.tasksProcessed);

    std::string json = metricsToJson(snap);
    EXPECT_TRUE(JsonChecker(json).valid());
}

TEST(MetricsEndToEnd, RegistryRejectsTooFewWorkers)
{
    HdCpsScheduler sched(2, HdCpsScheduler::configSw());
    MetricsRegistry registry(1);
    RunOptions options;
    options.numThreads = 2;
    options.metrics = &registry;
    EXPECT_DEATH(run(sched, {Task{0, 0, 0}}, obsTreeWorkload(2, 2),
                     options),
                 "metrics registry");
}

} // namespace
} // namespace hdcps
