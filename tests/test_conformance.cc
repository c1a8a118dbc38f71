/**
 * @file
 * Cross-scheduler conformance battery.
 *
 * Every Scheduler implementation — the baselines (reld, obim, pmod,
 * multiqueue, swminnow) as much as HD-CPS itself — must honor the same
 * contract, and chaos must not weaken it. One table-driven matrix runs
 * each design through fault-drill × straggler × kernel scenarios and
 * checks, on every run:
 *
 *  1. exact task conservation (VerifyingScheduler: no loss, no
 *     duplication, no invention), including under reclamation and
 *     graceful failure;
 *  2. the MetricsRegistry single-writer contract (instrumented debug
 *     registry, Config::checkSingleWriter) — no scheduler or helper
 *     thread may write another worker's metric slot mid-write;
 *  3. per-backend sampled rank-error bounds on a quiescent wide
 *     (>2^32) priority domain — exact backends must stay exact, the
 *     relaxed ones inside their documented slack, and any internal
 *     32-bit priority truncation shows up as a near-domain-width error;
 *  4. leak-free teardown with fault sites armed while tasks are still
 *     queued (the asan stage's LSan closes the loop).
 *
 * The matrix is the test-suite twin of tools/soak.cc: soak explores
 * randomized scenarios over minutes, this battery pins the named
 * corners deterministically on every ctest run.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "algos/workload.h"
#include "core/designs.h"
#include "cps/verifying_scheduler.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "support/fault.h"
#include "support/rng.h"
#include "support/straggler.h"
#include "support/timer.h"
#include "support/topology.h"

namespace hdcps {
namespace {

constexpr unsigned kThreads = 3;
constexpr uint64_t kReclaimAfterMs = 25;
constexpr uint64_t kWatchdogMs = 5000;

/** Wide-domain priority step: one rank on the >2^32 test domain. */
constexpr uint64_t kWideStep = uint64_t(1) << 33;

/** A registry design under its conformance name. hdcps-numa is the one
 *  local variant: the same software design under a synthetic 2-node
 *  topology, where hierarchical routing, per-node peer groups, and
 *  node-aware reclamation must uphold the identical contract (and the
 *  same exact rank bound — locality changes *where* a task lands,
 *  never its priority). */
struct DesignCase
{
    const char *name;
    const DesignEntry *design;
    Topology topology{};

    std::unique_ptr<Scheduler>
    make(unsigned threads, uint64_t seed) const
    {
        return design->make(threads, {.seed = seed, .topology = topology});
    }
};

std::vector<DesignCase>
conformanceDesigns()
{
    std::vector<DesignCase> cases;
    for (const DesignEntry &design : threadedDesigns())
        cases.push_back({design.name, &design});
    cases.push_back({"hdcps-numa", findThreadedDesign("hdcps-sw"),
                     Topology::synthetic(2, 2)});
    return cases;
}

/** One chaos corner of the scenario matrix. */
struct ChaosCase
{
    const char *label;
    const char *faultSpec;     ///< "" = none
    const char *stragglerSpec; ///< "" = none
    bool expectFailure;        ///< arms exec.process.throw
};

const ChaosCase kChaosCases[] = {
    {"clean", "", "", false},
    {"faults", "exec.pop.fail:prob:0.01,hdcps.overflow.spill:prob:0.02",
     "", false},
    {"straggler", "", "1:40:60", false},
    {"faults+stragglers", "exec.pop.fail:prob:0.005", "1:30:60,2:200:50",
     false},
    // nth must stay below the smallest kernel's pop count (sssp on the
    // 12x12 grid settles 144 nodes) so the throw fires for every
    // design, including those that process near-zero wasted work.
    {"graceful-failure", "exec.process.throw:nth:50", "", true},
};

/** Task-tree kernel: fanout^0 + ... + fanout^depth tasks, priorities
 *  ascending by `step` per level (step = kWideStep spans >2^32). */
ProcessFn
treeKernel(unsigned fanout, unsigned depth, uint64_t step)
{
    return [fanout, depth, step](unsigned, const Task &task,
                                 std::vector<Task> &children) {
        unsigned level = task.data;
        if (level >= depth)
            return;
        for (unsigned i = 0; i < fanout; ++i) {
            children.push_back(Task{task.priority + step,
                                    task.node * fanout + i, level + 1});
        }
    };
}

constexpr uint64_t
treeTaskCount(uint64_t fanout, unsigned depth)
{
    uint64_t total = 0;
    uint64_t level = 1;
    for (unsigned d = 0; d <= depth; ++d) {
        total += level;
        level *= fanout;
    }
    return total;
}

class ConformanceMatrix : public testing::TestWithParam<size_t>
{
  protected:
    DesignCase design() const
    {
        return conformanceDesigns()[GetParam()];
    }
};

/** Shared per-run plumbing: scheduler + verifier + armed debug registry
 *  + chaos, through the threaded executor. Asserts the invariants that
 *  must hold on *every* run, completed or failed. */
void
runConformanceScenario(const DesignCase &design, const ChaosCase &chaos,
                       const std::string &kernelLabel,
                       const std::vector<Task> &seeds,
                       const ProcessFn &process,
                       uint64_t expectTasks, // 0 = don't check
                       Workload *oracle)
{
    SCOPED_TRACE(std::string(design.name) + "/" + chaos.label + "/" +
                 kernelLabel);
    const uint64_t seed = 1234;

    ScopedFaultInjection faults(seed);
    if (chaos.faultSpec[0] != '\0') {
        std::string error;
        ASSERT_TRUE(faults->parseSpec(chaos.faultSpec, &error)) << error;
    }
    ScopedStragglerInjection stragglers(kThreads, seed);
    if (chaos.stragglerSpec[0] != '\0') {
        std::string error;
        ASSERT_TRUE(stragglers.injector().parseSpec(chaos.stragglerSpec,
                                                    &error))
            << error;
    }

    auto inner = design.make(kThreads, seed);
    VerifyingScheduler verified(*inner);
    MetricsRegistry::Config mconfig;
    mconfig.checkSingleWriter = true;
    MetricsRegistry metrics(kThreads, mconfig);

    RunOptions options;
    options.numThreads = kThreads;
    options.watchdogMs = kWatchdogMs;
    options.reclaimAfterMs = kReclaimAfterMs;
    options.metrics = &metrics;

    RunResult r = run(verified, seeds, process, options);

    // Conservation holds unconditionally (a failed run may strand
    // tasks, never lose or duplicate delivered ones).
    std::string why;
    EXPECT_TRUE(verified.checkComplete(r.failed, &why)) << why;

    // Single-writer contract: no cross-thread slot write anywhere in
    // the scheduler, its helper threads, or the runtime.
    EXPECT_EQ(metrics.writerViolations(), 0u)
        << (metrics.writerViolationSamples().empty()
                ? std::string("(no sample retained)")
                : metrics.writerViolationSamples()[0]);

    if (chaos.expectFailure) {
        EXPECT_TRUE(r.failed)
            << "injected ProcessFn throw must fail the run";
        EXPECT_NE(r.error.find("injected"), std::string::npos)
            << r.error;
        return;
    }
    EXPECT_FALSE(r.failed) << r.error;
    if (expectTasks > 0) {
        EXPECT_EQ(r.total.tasksProcessed, expectTasks);
    }
    if (oracle != nullptr) {
        EXPECT_TRUE(oracle->verify(&why)) << why;
    }
}

TEST_P(ConformanceMatrix, ChaosInvariantsOnTaskTree)
{
    // Narrow-domain tree: priorities 0..depth.
    constexpr unsigned fanout = 3;
    constexpr unsigned depth = 7;
    constexpr uint64_t expect = treeTaskCount(fanout, depth);
    for (const ChaosCase &chaos : kChaosCases) {
        runConformanceScenario(design(), chaos, "tree",
                               {Task{0, 0, 0}},
                               treeKernel(fanout, depth, 1), expect,
                               nullptr);
    }
}

TEST_P(ConformanceMatrix, ChaosInvariantsOnWidePriorityTree)
{
    // Same tree over a >2^32 priority domain: every backend must carry
    // full 64-bit priorities through its bags/buckets/heaps while the
    // chaos drills run. A truncating backend reorders, loses bag
    // lookups, or trips conservation here.
    constexpr unsigned fanout = 3;
    constexpr unsigned depth = 7;
    constexpr uint64_t expect = treeTaskCount(fanout, depth);
    for (const ChaosCase &chaos : kChaosCases) {
        runConformanceScenario(design(), chaos, "wide-tree",
                               {Task{0, 0, 0}},
                               treeKernel(fanout, depth, kWideStep),
                               expect, nullptr);
    }
}

TEST_P(ConformanceMatrix, ChaosInvariantsOnDuplicatePriorityMultiSource)
{
    // Multi-source duplicate-priority workload: four sources seed
    // overlapping priority ranges (only 8 distinct priorities across
    // 128 seeds), every seed is pushed twice (exact-duplicate tasks —
    // multiset multiplicity, not distinct keys), and each task spawns
    // two *identical* children at its own priority. Ties dominate
    // every scheduling decision, so this corner stresses FIFO
    // tie-breaking structures (bag maps, bucket FIFOs, heap
    // tie-break comparators) and the verifier's exact multiset: every
    // duplicate must come back exactly as many times as it went in.
    constexpr unsigned sources = 4;
    constexpr unsigned perSource = 16;
    constexpr unsigned generations = 2;
    std::vector<Task> seeds;
    for (unsigned s = 0; s < sources; ++s) {
        for (unsigned i = 0; i < perSource; ++i) {
            Task t{/*priority=*/i % 8, s * perSource + i, generations};
            seeds.push_back(t);
            seeds.push_back(t); // exact duplicate of the same task
        }
    }
    // Each seed expands to 2^0 + 2^1 + ... + 2^generations tasks.
    constexpr uint64_t expect = uint64_t(sources) * perSource * 2 *
                                ((1u << (generations + 1)) - 1);
    ProcessFn kernel = [](unsigned, const Task &task,
                          std::vector<Task> &children) {
        if (task.data == 0)
            return;
        Task child{task.priority, task.node, task.data - 1};
        children.push_back(child);
        children.push_back(child); // identical twins, same priority
    };
    for (const ChaosCase &chaos : kChaosCases) {
        runConformanceScenario(design(), chaos, "dup-priority", seeds,
                               kernel, expect, nullptr);
    }
}

TEST_P(ConformanceMatrix, ChaosInvariantsOnSsspOracle)
{
    // Real kernel with a sequential oracle: beyond conservation, the
    // computed distances must be exactly Dijkstra's.
    Graph g = makeRoadGrid(12, 12, {.seed = 29});
    for (const ChaosCase &chaos : kChaosCases) {
        auto workload = makeWorkload("sssp", g, /*source=*/0);
        runConformanceScenario(design(), chaos, "sssp",
                               workload->initialTasks(),
                               workloadProcessFn(*workload), 0,
                               chaos.expectFailure ? nullptr
                                                   : workload.get());
    }
}

TEST_P(ConformanceMatrix, ChaosInvariantsOnBfsOracle)
{
    // BFS's unit-weight relaxation is a different stressor from SSSP:
    // level-synchronous frontiers produce long runs of equal-priority
    // tasks (one bag/bucket per level), so tie-dominated scheduling
    // meets a real kernel with a sequential oracle — every node's
    // level must match bfsLevels() exactly.
    Graph g = makeRoadGrid(12, 12, {.seed = 29});
    for (const ChaosCase &chaos : kChaosCases) {
        auto workload = makeWorkload("bfs", g, /*source=*/0);
        runConformanceScenario(design(), chaos, "bfs",
                               workload->initialTasks(),
                               workloadProcessFn(*workload), 0,
                               chaos.expectFailure ? nullptr
                                                   : workload.get());
    }
}

TEST_P(ConformanceMatrix, ChaosInvariantsOnAStarOracle)
{
    // A* adds a heuristic offset to every priority, so unlike SSSP the
    // pushed rank is not the settled distance: goal-directed pruning
    // makes the processed set depend on pop order, which stresses
    // relaxed backends differently (wasted work instead of wrong
    // answers). The oracle checks the goal cost against sequential A*
    // exactly, so any heuristic/priority mix-up in a backend shows up
    // as a wrong shortest path, not just extra work.
    Graph g = makeRoadGrid(12, 12, {.seed = 29});
    for (const ChaosCase &chaos : kChaosCases) {
        auto workload = makeWorkload("astar", g, /*source=*/0);
        runConformanceScenario(design(), chaos, "astar",
                               workload->initialTasks(),
                               workloadProcessFn(*workload), 0,
                               chaos.expectFailure ? nullptr
                                                   : workload.get());
    }
}

TEST_P(ConformanceMatrix, QuiescentRankErrorWithinBackendBound)
{
    // A quiescent single worker pushes a shuffled permutation of K
    // priorities spaced kWideStep apart (so the domain spans far past
    // 2^32), then drains. The verifier samples every pop; each backend
    // owes the bound documented in its registry entry
    // (DesignEntry::rankBoundSteps).
    constexpr unsigned K = 512;
    const DesignCase d = design();
    for (uint64_t seed : {1ull, 7ull, 19ull}) {
        auto inner = d.make(1, seed);
        VerifyingScheduler::Config vconfig;
        vconfig.sampleInterval = 1;
        VerifyingScheduler verified(*inner, vconfig);

        std::vector<uint32_t> perm(K);
        std::iota(perm.begin(), perm.end(), 0u);
        Rng rng(seed);
        for (unsigned i = K; i > 1; --i)
            std::swap(perm[i - 1], perm[rng.below(i)]);
        for (unsigned i = 0; i < K; ++i)
            verified.push(0, Task{uint64_t(perm[i]) * kWideStep + i, i,
                                  0});
        // One empty tryPop is not quiescence: swminnow's helper can
        // transiently hold claimed tasks in its staging ring (the
        // executor's idle-backoff loop retries for the same reason),
        // so drain with retries until all K tasks surface.
        Task t;
        unsigned popped = 0;
        const uint64_t deadline = nowNs() + uint64_t(10e9);
        while (popped < K && nowNs() < deadline) {
            if (verified.tryPop(0, t))
                ++popped;
            else
                std::this_thread::yield();
        }
        EXPECT_EQ(popped, K) << d.name;

        VerifyingScheduler::Report report = verified.report();
        EXPECT_EQ(report.violations, 0u) << d.name;
        EXPECT_EQ(report.outstanding, 0u) << d.name;
        EXPECT_GT(report.rankSamples, 0u) << d.name;
        EXPECT_LE(report.maxRankError,
                  double(d.design->rankBoundSteps) * double(kWideStep))
            << d.name << " seed " << seed
            << ": rank error " << report.maxRankError << " ("
            << report.maxRankError / double(kWideStep)
            << " ranks) exceeds the backend's documented bound";
    }
}

TEST_P(ConformanceMatrix, TeardownWithArmedFaultsAndQueuedTasks)
{
    // Destruction while fault sites are hot and tasks are still queued
    // across every internal tier (local heaps, sRQs, spill paths, bag
    // maps, staging rings). The assertion that matters most runs after
    // main(): the asan stage's LeakSanitizer flags anything a design
    // dropped on the floor instead of freeing.
    const DesignCase d = design();
    for (uint64_t seed : {3ull, 11ull}) {
        ScopedFaultInjection faults(seed);
        std::string error;
        ASSERT_TRUE(faults->parseSpec(
                        "srq.push.full:prob:0.3,"
                        "srq.pop.fail:prob:0.1,"
                        "hdcps.overflow.spill:prob:0.3",
                        &error))
            << error;

        auto sched = d.make(2, seed);
        Rng rng(seed);
        for (uint32_t i = 0; i < 2000; ++i) {
            sched->push(i % 2,
                        Task{rng.below(64) * kWideStep + i, i, 0});
        }
        Task t;
        unsigned popped = 0;
        for (int i = 0; i < 100; ++i) {
            if (sched->tryPop(0, t))
                ++popped;
        }
        EXPECT_GT(popped, 0u) << d.name;
        // Destructor runs with ~1900 tasks still queued.
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, ConformanceMatrix,
    testing::Range<size_t>(0, conformanceDesigns().size()),
    [](const testing::TestParamInfo<size_t> &info) {
        std::string name = conformanceDesigns()[info.param].name;
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

} // namespace
} // namespace hdcps
