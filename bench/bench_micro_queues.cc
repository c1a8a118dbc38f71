/**
 * @file
 * Google-benchmark microbenchmarks for the queue substrate plus the
 * scheduler-level throughput scenarios the perf gate tracks.
 *
 * The micro section quantifies, on the host, the software PQ rebalance
 * cost growth with occupancy (DAryHeap, and HD-CPS's keyed local PQ
 * next to it) and the cost gap between the locked PQ
 * (RELD's enqueue path) and the receive queue (HD-CPS's enqueue path)
 * — the software-side motivation for Figure 5's sRQ gains. The
 * scenario section drives a whole HdCpsScheduler (and the threaded
 * runtime) through remote-heavy traffic so sRQ transfer, pooled bags,
 * and distributed termination show up as one number.
 *
 * The local_backend scenario quantifies the relaxed-vs-exact queue
 * tradeoff from the MultiQueue modernization: MultiQueue churn at
 * stickiness 1 and 8, and HD-CPS's private-PQ seam driven over both
 * backends (keyed 4-ary heap vs relaxed MQ), each row carrying quiescent
 * rank-error counters next to its throughput.
 *
 * Results are mirrored into a machine-readable JSON file (default
 * BENCH_micro.json, override with HDCPS_BENCH_JSON_OUT) that
 * tools/bench_compare validates and diffs across revisions.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/bag_policy.h"
#include "core/bag_pool.h"
#include "core/hdcps.h"
#include "core/local_pq.h"
#include "core/recv_queue.h"
#include "cps/multiqueue.h"
#include "cps/task.h"
#include "pq/dary_heap.h"
#include "pq/locked_pq.h"
#include "runtime/executor.h"
#include "sim/hwqueue.h"
#include "support/rng.h"

#include "bench_common.h"

namespace {

using namespace hdcps;

void
BM_DAryHeapPushPop(benchmark::State &state)
{
    const size_t occupancy = static_cast<size_t>(state.range(0));
    DAryHeap<Task, TaskOrder> heap;
    Rng rng(1);
    for (size_t i = 0; i < occupancy; ++i)
        heap.push(Task{rng.below(1 << 20), uint32_t(i), 0});
    for (auto _ : state) {
        heap.push(Task{rng.below(1 << 20), 0, 0});
        benchmark::DoNotOptimize(heap.pop());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_DAryHeapPushPop)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

/** The same churn through HD-CPS's exact local-PQ backend: 16-byte
 *  keys in the heap, the tasks in its slab. */
void
BM_DAryLocalPqPushPop(benchmark::State &state)
{
    const size_t occupancy = static_cast<size_t>(state.range(0));
    DAryLocalPq<Task, TaskOrder> pq;
    Rng rng(1);
    for (size_t i = 0; i < occupancy; ++i)
        pq.push(Task{rng.below(1 << 20), uint32_t(i), 0});
    for (auto _ : state) {
        pq.push(Task{rng.below(1 << 20), 0, 0});
        benchmark::DoNotOptimize(pq.pop());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_DAryLocalPqPushPop)->Arg(16)->Arg(256)->Arg(4096)->Arg(65536);

void
BM_LockedPqRemoteEnqueue(benchmark::State &state)
{
    // RELD's push path: lock + rebalance at the destination.
    LockedTaskPq pq;
    Rng rng(2);
    for (int i = 0; i < 1024; ++i)
        pq.push(Task{rng.below(1 << 20), uint32_t(i), 0});
    for (auto _ : state) {
        pq.push(Task{rng.below(1 << 20), 0, 0});
        Task t;
        pq.tryPop(t);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_LockedPqRemoteEnqueue);

void
BM_ReceiveQueueTransfer(benchmark::State &state)
{
    // HD-CPS's push path: one slot claim + one flag store.
    ReceiveQueue<Task> rq(1024);
    Rng rng(3);
    for (auto _ : state) {
        rq.tryPush(Task{rng.below(1 << 20), 0, 0});
        Task t;
        rq.tryPop(t);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2);
}
BENCHMARK(BM_ReceiveQueueTransfer);

void
BM_HwPqModelPushEvict(benchmark::State &state)
{
    HwPriorityQueue hpq(48);
    Rng rng(4);
    for (auto _ : state) {
        auto evicted = hpq.pushEvict(Task{rng.below(1 << 20), 0, 0});
        benchmark::DoNotOptimize(evicted);
        if (!hpq.empty() && rng.chance(0.5))
            benchmark::DoNotOptimize(hpq.popMin());
    }
}
BENCHMARK(BM_HwPqModelPushEvict);

void
BM_BagPolicyPlan(benchmark::State &state)
{
    // Algorithm 1 on a typical child batch.
    Rng rng(5);
    std::vector<Task> batch;
    for (int i = 0; i < 24; ++i)
        batch.push_back(Task{rng.below(4), uint32_t(i), 0});
    BagPolicy policy;
    for (auto _ : state) {
        auto copy = batch;
        benchmark::DoNotOptimize(policy.plan(std::move(copy)));
    }
}
BENCHMARK(BM_BagPolicyPlan);

void
BM_ReceiveQueueBatchTransfer(benchmark::State &state)
{
    // Batched sRQ transfer: one multi-slot claim moves the whole run,
    // versus one CAS per task in BM_ReceiveQueueTransfer.
    const size_t batchSize = static_cast<size_t>(state.range(0));
    ReceiveQueue<Task> rq(1024);
    Rng rng(6);
    std::vector<Task> batch(batchSize);
    for (auto _ : state) {
        for (size_t i = 0; i < batchSize; ++i)
            batch[i] = Task{rng.below(1 << 20), uint32_t(i), 0};
        size_t pushed = 0;
        while (pushed < batchSize)
            pushed += rq.tryPushN(batch.data() + pushed,
                                  batchSize - pushed);
        Task t;
        for (size_t i = 0; i < batchSize; ++i) {
            rq.tryPop(t);
            benchmark::DoNotOptimize(t);
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batchSize) * 2);
}
BENCHMARK(BM_ReceiveQueueBatchTransfer)->Arg(8)->Arg(32)->Arg(128);

void
BM_BagPoolAcquireRelease(benchmark::State &state)
{
    // The pooled-envelope cycle that replaces new/delete per bag.
    BagPool pool(2);
    Rng rng(7);
    std::vector<Task> payload;
    for (int i = 0; i < 8; ++i)
        payload.push_back(Task{rng.below(16), uint32_t(i), 0});
    for (auto _ : state) {
        Bag *bag = pool.acquire(0);
        bag->priority = payload[0].priority;
        bag->tasks.assign(payload.begin(), payload.end());
        benchmark::DoNotOptimize(bag);
        pool.release(0, bag);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BagPoolAcquireRelease);

/**
 * The perf gate's headline scenario: remote-heavy traffic (95% TDF, 8
 * workers, per-task envelopes) through a full HdCpsScheduler, driven
 * round-robin by one thread so the number is deterministic and
 * host-core-count independent. Every iteration pushes one 256-task
 * batch as worker k — ~34 tasks per remote destination — and pops all
 * 256 back out (rotating over workers until found), so throughput
 * prices the whole transfer pipeline: envelope routing, one sRQ claim
 * per remote task, drain, bulk heap build. Bagged transfer has its own
 * end-to-end scenario (pipeline_spawn); this one keeps BagMode::None so
 * the number isolates the per-task path.
 */
void
BM_HdCpsRemoteHeavy(benchmark::State &state)
{
    constexpr unsigned kWorkers = 8;
    constexpr size_t kBatch = 256;
    HdCpsConfig config;
    config.tdf = 95;
    config.bags.mode = BagMode::None;
    HdCpsScheduler sched(kWorkers, config);
    Rng rng(8);
    std::vector<Task> batch(kBatch);
    uint32_t node = 0;
    unsigned tid = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < kBatch; ++i)
            batch[i] = Task{rng.below(64), node++, 0};
        sched.pushBatch(tid, batch.data(), kBatch);
        size_t popped = 0;
        unsigned p = tid;
        while (popped < kBatch) {
            Task t;
            if (sched.tryPop(p, t)) {
                ++popped;
                benchmark::DoNotOptimize(t);
            } else {
                p = (p + 1) % kWorkers;
            }
        }
        tid = (tid + 1) % kWorkers;
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kBatch));
}
BENCHMARK(BM_HdCpsRemoteHeavy);

/**
 * Shared driver for the scenario matrix (local_heavy / bursty /
 * skewed_destination): the same deterministic single-thread rotation
 * harness as BM_HdCpsRemoteHeavy, parameterized by traffic shape and
 * topology. Each scenario runs twice — flat, and under a synthetic 2x4
 * topology with hierarchical routing — so the JSON carries both sides
 * of the locality tradeoff and bench_compare can gate each scenario
 * independently. A metrics registry in sampled always-on mode
 * (sampleShift) stays attached for the whole measurement: the gate
 * numbers price the scheduler *as observed in production*, and the
 * sampling mode is what makes that affordable.
 */
struct ScenarioShape
{
    unsigned tdf;        ///< distribution %, steady phases
    size_t batch;        ///< tasks per pushBatch
    bool rotateProducer; ///< false = worker 0 produces everything
    unsigned burstEvery; ///< 0 = steady; else every k-th batch is 4x
    /** Numa variants only: crossNodePct policy (kCrossNodeFollowTdf =
     *  track the drift signal, the production default). */
    unsigned crossNodePct = kCrossNodeFollowTdf;
};

void
runHdCpsScenario(benchmark::State &state, const ScenarioShape &shape,
                 bool numa)
{
    constexpr unsigned kWorkers = 8;
    HdCpsConfig config;
    config.tdf = shape.tdf;
    config.bags.mode = BagMode::None;
    if (numa) {
        config.topology = Topology::synthetic(2, 4);
        config.crossNodePct = shape.crossNodePct;
    }
    HdCpsScheduler sched(kWorkers, config);
    MetricsRegistry::Config metricsConfig;
    metricsConfig.sampleShift = 6; // keep 1 in 64 series samples
    MetricsRegistry metrics(kWorkers, metricsConfig);
    sched.attachMetrics(&metrics);
    Rng rng(8);
    const size_t maxBatch = shape.batch * 4;
    std::vector<Task> batch(maxBatch);
    uint32_t node = 0;
    unsigned tid = 0;
    uint64_t round = 0;
    uint64_t tasks = 0;
    // Drain scan order: the flat system consumes by plain rotation
    // from the producer; the topology-aware system consumes its own
    // node's queues before crossing the boundary (the executor's
    // per-worker pop pattern under topology-aware placement — remote
    // tasks land on same-node peers and are drained there). Each
    // variant is priced with the consumption policy its routing
    // policy implies.
    std::array<unsigned, 8> scan;
    for (auto _ : state) {
        const size_t count =
            (shape.burstEvery != 0 && ++round % shape.burstEvery == 0)
                ? maxBatch
                : shape.batch;
        for (size_t i = 0; i < count; ++i)
            batch[i] = Task{rng.below(64), node++, 0};
        sched.pushBatch(tid, batch.data(), count);
        if (numa) {
            const unsigned perNode = kWorkers / 2;
            const unsigned base = (tid / perNode) * perNode;
            for (unsigned k = 0; k < perNode; ++k)
                scan[k] = base + (tid - base + k) % perNode;
            const unsigned far = (base + perNode) % kWorkers;
            for (unsigned k = 0; k < perNode; ++k)
                scan[perNode + k] = far + k;
        } else {
            for (unsigned k = 0; k < kWorkers; ++k)
                scan[k] = (tid + k) % kWorkers;
        }
        size_t popped = 0;
        unsigned si = 0;
        while (popped < count) {
            Task t;
            if (sched.tryPop(scan[si], t)) {
                ++popped;
                benchmark::DoNotOptimize(t);
            } else {
                si = (si + 1) % kWorkers;
            }
        }
        if (shape.rotateProducer)
            tid = (tid + 1) % kWorkers;
        tasks += count;
    }
    state.SetItemsProcessed(int64_t(tasks));
    if (numa) {
        const double cross = double(sched.crossNodeEnqueues());
        const double same = double(sched.sameNodeEnqueues());
        state.counters["cross_node_enqueues"] = cross;
        state.counters["same_node_enqueues"] = same;
        if (cross + same > 0)
            state.counters["cross_node_pct"] =
                100.0 * cross / (cross + same);
    }
}

/** local_heavy: 80% of children stay on the producing worker and
 *  batches are small, so the number prices the private-PQ path with a
 *  trickle of remote traffic — the regime where hierarchical routing
 *  concentrates that trickle on same-node peers, whose drains never
 *  leave the node. The small batch is what makes the locality signal
 *  visible at all. */
void
BM_HdCpsLocalHeavyFlat(benchmark::State &state)
{
    runHdCpsScenario(state, {20, 32, true, 0}, false);
}
BENCHMARK(BM_HdCpsLocalHeavyFlat);

void
BM_HdCpsLocalHeavyNuma(benchmark::State &state)
{
    // crossNodePct 0: at low drift the hierarchy keeps every remote
    // push on-node, concentrating the trickle on 3 same-node peers
    // instead of 7.
    runHdCpsScenario(state, {20, 32, true, 0, 0}, true);
}
BENCHMARK(BM_HdCpsLocalHeavyNuma);

/** bursty: every 4th batch is 4x the steady size at 50% distribution,
 *  alternating drain pressure between the sRQs and the private PQs. */
void
BM_HdCpsBurstyFlat(benchmark::State &state)
{
    runHdCpsScenario(state, {50, 64, true, 4}, false);
}
BENCHMARK(BM_HdCpsBurstyFlat);

void
BM_HdCpsBurstyNuma(benchmark::State &state)
{
    runHdCpsScenario(state, {50, 64, true, 4}, true);
}
BENCHMARK(BM_HdCpsBurstyNuma);

/** skewed_destination: one hot producer (worker 0) fans out at 95%
 *  distribution while pops rotate — the all-roads-lead-away-from-one-
 *  core shape that stresses the remote send path. */
void
BM_HdCpsSkewedDestinationFlat(benchmark::State &state)
{
    runHdCpsScenario(state, {95, 256, false, 0}, false);
}
BENCHMARK(BM_HdCpsSkewedDestinationFlat);

void
BM_HdCpsSkewedDestinationNuma(benchmark::State &state)
{
    runHdCpsScenario(state, {95, 256, false, 0}, true);
}
BENCHMARK(BM_HdCpsSkewedDestinationNuma);

/**
 * End-to-end runtime scenario: run() executes a deterministic spawn
 * tree (4 same-priority children per task, depth 4) over 8 threads, so
 * the measurement includes the termination-detection cost the
 * distributed counters removed from the per-task path.
 */
void
BM_HdCpsPipelineSpawn(benchmark::State &state)
{
    constexpr unsigned kThreads = 8;
    uint64_t tasks = 0;
    for (auto _ : state) {
        HdCpsConfig config;
        config.tdf = 95;
        config.bags.mode = BagMode::Selective;
        config.seed = 9;
        HdCpsScheduler sched(kThreads, config);
        std::vector<Task> initial;
        for (uint32_t i = 0; i < 32; ++i)
            initial.push_back(Task{i % 4, i, 4});
        RunOptions options;
        options.numThreads = kThreads;
        RunResult result = hdcps::run(
            sched, initial,
            [](unsigned, const Task &task, std::vector<Task> &children) {
                if (task.data == 0)
                    return;
                // Same priority for all four siblings: bag-sized group.
                for (uint32_t i = 0; i < 4; ++i) {
                    children.push_back(Task{task.priority + 1,
                                            task.node * 4 + i,
                                            task.data - 1});
                }
            },
            options);
        if (result.failed)
            state.SkipWithError(result.error.c_str());
        tasks += result.total.tasksProcessed;
        benchmark::DoNotOptimize(result.wallNs);
    }
    state.SetItemsProcessed(int64_t(tasks));
}
// Wall time: the calling thread runs worker 0 of each run(), so its
// CPU time counts one worker's share of the run, not the run.
BENCHMARK(BM_HdCpsPipelineSpawn)->UseRealTime();

/** Quiescent rank-error bounds of a (possibly relaxed) scheduler. */
struct RankErrorStats
{
    double max = 0.0;
    double mean = 0.0;
};

/**
 * Push a random permutation of `n` distinct 64-bit priorities (spaced
 * by 2^33 so truncation bugs would show as ~2^33-rank errors, the
 * conformance suite's methodology) through one driver thread, then
 * drain to empty rotating over workers. The rank error of a pop is
 * the number of still-outstanding tasks with strictly smaller
 * priority — 0 everywhere for an exact queue, O(workers x queues) in
 * expectation for a MultiQueue. Runs outside the timed region.
 */
RankErrorStats
quiescentRankError(Scheduler &sched, unsigned numWorkers, size_t n,
                   uint64_t seed)
{
    Rng rng(seed);
    std::vector<Priority> prios(n);
    for (size_t i = 0; i < n; ++i)
        prios[i] = Priority(i) << 33;
    for (size_t i = n; i > 1; --i)
        std::swap(prios[i - 1], prios[rng.below(i)]);
    std::multiset<Priority> outstanding;
    for (size_t i = 0; i < n; ++i) {
        sched.push(unsigned(i) % numWorkers,
                   Task{prios[i], uint32_t(i), 0});
        outstanding.insert(prios[i]);
    }
    RankErrorStats stats;
    size_t pops = 0;
    double sum = 0.0;
    unsigned tid = 0;
    while (!outstanding.empty()) {
        Task t;
        if (!sched.tryPop(tid, t)) {
            tid = (tid + 1) % numWorkers;
            continue;
        }
        double rank = double(std::distance(
            outstanding.begin(), outstanding.lower_bound(t.priority)));
        stats.max = std::max(stats.max, rank);
        sum += rank;
        ++pops;
        outstanding.erase(outstanding.find(t.priority));
    }
    stats.mean = pops ? sum / double(pops) : 0.0;
    return stats;
}

/**
 * MultiQueue churn at a fixed stickiness (the benchmark argument):
 * steady-state occupancy ~1k, one driver thread rotating over 4
 * workers, 64 pushes + 64 pops per iteration. Stickiness 1 redraws
 * the sticky queues every operation (SPAA'15 behavior); stickiness 8
 * amortizes the redraw and the lock traffic over 8 operations
 * (Engineering-MultiQueues behavior). The quiescent rank-error bounds
 * for the same configuration are reported as counters so the JSON
 * carries the quality side of the throughput/rank-error tradeoff.
 */
void
BM_MultiQueueChurn(benchmark::State &state)
{
    const unsigned stickiness = unsigned(state.range(0));
    constexpr unsigned kWorkers = 4;
    constexpr size_t kBatch = 64;
    MultiQueueConfig config;
    config.stickiness = stickiness;
    config.seed = 10;
    MultiQueueScheduler sched(kWorkers, config);
    Rng rng(10);
    for (uint32_t i = 0; i < 1024; ++i)
        sched.push(i % kWorkers, Task{rng.below(1 << 20), i, 0});
    unsigned tid = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < kBatch; ++i)
            sched.push(tid, Task{rng.below(1 << 20), uint32_t(i), 0});
        size_t popped = 0;
        unsigned p = tid;
        while (popped < kBatch) {
            Task t;
            if (sched.tryPop(p, t)) {
                ++popped;
                benchmark::DoNotOptimize(t);
            } else {
                p = (p + 1) % kWorkers;
            }
        }
        tid = (tid + 1) % kWorkers;
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kBatch) * 2);
    MultiQueueScheduler probe(kWorkers, config);
    RankErrorStats stats = quiescentRankError(probe, kWorkers, 512, 11);
    state.counters["rank_error_max"] = stats.max;
    state.counters["rank_error_mean"] = stats.mean;
}
BENCHMARK(BM_MultiQueueChurn)->Arg(1)->Arg(8);

/**
 * Local-backend A/B: the same single-worker HD-CPS scheduler over its
 * two private-PQ backends — the exact keyed heap (HdCpsScheduler) and
 * the relaxed owner-private MultiQueue (HdCpsMqScheduler). One worker
 * keeps every task on the local path, so the throughput difference is
 * purely the backend's push/pop cost, and the rank-error counters
 * (measured in an untimed quiescent drain) are purely the backend's
 * ordering relaxation: 0 for DAry, bounded by the conformance suite's
 * hdcps-mq row for the MQ.
 */
template <typename SchedT>
void
BM_LocalBackendPushPop(benchmark::State &state)
{
    constexpr size_t kBatch = 256;
    HdCpsConfig config = SchedT::configSw();
    config.tdf = 0;
    config.bags.mode = BagMode::None;
    config.seed = 12;
    SchedT sched(1, config);
    Rng rng(12);
    std::vector<Task> batch(kBatch);
    uint32_t node = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < kBatch; ++i)
            batch[i] = Task{rng.below(1 << 20), node++, 0};
        sched.pushBatch(0, batch.data(), kBatch);
        for (size_t i = 0; i < kBatch; ++i) {
            Task t;
            if (!sched.tryPop(0, t)) {
                state.SkipWithError("local backend lost a task");
                return;
            }
            benchmark::DoNotOptimize(t);
        }
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(kBatch) * 2);
    SchedT probe(1, config);
    RankErrorStats stats = quiescentRankError(probe, 1, 512, 13);
    state.counters["rank_error_max"] = stats.max;
    state.counters["rank_error_mean"] = stats.mean;
}
BENCHMARK_TEMPLATE(BM_LocalBackendPushPop, HdCpsScheduler);
BENCHMARK_TEMPLATE(BM_LocalBackendPushPop, HdCpsMqScheduler);

/** Coarse scenario tag for the perf-gate JSON. */
std::string
scenarioOf(const std::string &name)
{
    if (name.find("BM_HdCpsRemoteHeavy") == 0)
        return "remote_heavy";
    if (name.find("BM_HdCpsLocalHeavy") == 0)
        return "local_heavy";
    if (name.find("BM_HdCpsBursty") == 0)
        return "bursty";
    if (name.find("BM_HdCpsSkewedDestination") == 0)
        return "skewed_destination";
    if (name.find("BM_HdCpsPipelineSpawn") == 0)
        return "pipeline_spawn";
    if (name.find("BM_MultiQueueChurn") == 0 ||
        name.find("BM_LocalBackendPushPop") == 0)
        return "local_backend";
    return "micro";
}

/** Stack layer a row prices (tools/bench_compare groups by it). */
std::string
layerOf(const std::string &name)
{
    if (name.find("BM_DAryHeap") == 0 || name.find("BM_LockedPq") == 0)
        return "pq";
    if (name.find("BM_DAryLocalPq") == 0 ||
        name.find("BM_LocalBackendPushPop") == 0)
        return "local_pq";
    if (name.find("BM_ReceiveQueue") == 0 || name.find("BM_Bag") == 0)
        return "transfer";
    if (name.find("BM_HdCpsPipelineSpawn") == 0)
        return "runtime";
    if (name.find("BM_HwPqModel") == 0)
        return "sim";
    return "sched";
}

/** Console reporter that also captures rows for the perf-gate JSON. */
class CaptureReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &report) override
    {
        for (const Run &run : report) {
            if (run.error_occurred || run.run_type != Run::RT_Iteration)
                continue;
            hdcps::bench::PerfGateResult r;
            r.name = run.benchmark_name();
            r.scenario = scenarioOf(r.name);
            r.layer = layerOf(r.name);
            auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                r.itemsPerSecond = double(it->second);
            for (const auto &[key, value] : run.counters) {
                if (key == "items_per_second" ||
                    key == "bytes_per_second")
                    continue;
                r.counters[key] = double(value);
            }
            r.iterations = int64_t(run.iterations);
            r.realTimeNs =
                run.iterations
                    ? run.real_accumulated_time * 1e9 /
                          double(run.iterations)
                    : run.real_accumulated_time * 1e9;
            results.push_back(std::move(r));
        }
        ConsoleReporter::ReportRuns(report);
    }

    std::vector<hdcps::bench::PerfGateResult> results;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CaptureReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const char *out = std::getenv("HDCPS_BENCH_JSON_OUT");
    std::string path = out && *out ? out : "BENCH_micro.json";
    if (!hdcps::bench::writePerfGateJson(path, reporter.results))
        return 1;
    std::cout << "perf gate JSON: " << path << " ("
              << reporter.results.size() << " benchmarks, rev "
              << hdcps::bench::gitRev() << ")\n";
    return 0;
}
