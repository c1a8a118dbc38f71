/**
 * @file
 * Correctness tests for the sequential references and the task-parallel
 * workloads, including the full workload x scheduler integration matrix
 * run through the threaded executor.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "algos/color.h"
#include "algos/mst.h"
#include "algos/pagerank.h"
#include "algos/relaxation.h"
#include "algos/sequential.h"
#include "algos/workload.h"
#include "core/designs.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace hdcps {
namespace {

Graph
smallWeighted()
{
    //      0 --2--> 1 --2--> 3
    //       \--5------------/^
    //        \--1--> 2 --1--/
    GraphBuilder b(4);
    b.addEdge(0, 1, 2);
    b.addEdge(1, 3, 2);
    b.addEdge(0, 3, 5);
    b.addEdge(0, 2, 1);
    b.addEdge(2, 3, 1);
    return b.build();
}

// ----------------------------------------------------- sequential refs

TEST(Sequential, DijkstraOnHandGraph)
{
    SeqPathResult r = dijkstra(smallWeighted(), 0);
    EXPECT_EQ(r.dist[0], 0u);
    EXPECT_EQ(r.dist[1], 2u);
    EXPECT_EQ(r.dist[2], 1u);
    EXPECT_EQ(r.dist[3], 2u); // via node 2
}

TEST(Sequential, DijkstraUnreachable)
{
    GraphBuilder b(3);
    b.addEdge(0, 1, 1);
    SeqPathResult r = dijkstra(b.build(), 0);
    EXPECT_EQ(r.dist[2], unreachableDist);
}

TEST(Sequential, BfsMatchesDijkstraOnUnitWeights)
{
    GraphBuilder b(50, true);
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        b.addEdge(NodeId(rng.below(50)), NodeId(rng.below(50)), 1);
    }
    Graph g = b.build();
    SeqPathResult bfs = bfsLevels(g, 0);
    SeqPathResult dj = dijkstra(g, 0);
    EXPECT_EQ(bfs.dist, dj.dist);
}

TEST(Sequential, DialMatchesDijkstraOnRandomGraphs)
{
    // Dial's algorithm over the BucketQueue is the cross-check oracle
    // for the bucketed PQ: distances must be bit-identical to the
    // heap-based reference on arbitrary inputs.
    for (uint64_t seed : {5u, 19u, 77u}) {
        Graph g = makeRoadGrid(16, 16, {.seed = seed});
        SeqPathResult dial = dijkstraDial(g, 0);
        SeqPathResult dj = dijkstra(g, 0);
        EXPECT_EQ(dial.dist, dj.dist) << "seed " << seed;
    }
    Graph rmat = makeRmat(9, 6u << 9, 0.57, 0.19, 0.19, {.seed = 11});
    EXPECT_EQ(dijkstraDial(rmat, 0).dist, dijkstra(rmat, 0).dist);
}

// Regression: BucketQueue used to materialize a dense bucket for every
// priority up to the largest pushed, so any distance above its span
// (let alone 2^32) either exhausted memory or silently truncated. A
// chain of near-2^32 weights drives the accumulated 64-bit distances
// well past 2^32 and through the queue's overflow tier; the oracle
// must still agree with the heap-based Dijkstra exactly.
TEST(Sequential, DialHandles64BitDistances)
{
    constexpr Weight big = ~Weight(0) - 3; // 2^32 - 4 per hop
    constexpr NodeId chainLen = 6;
    GraphBuilder b(chainLen + 2);
    for (NodeId i = 0; i < chainLen; ++i)
        b.addEdge(i, i + 1, big);
    // A decoy detour with small weights that rejoins the chain: keeps
    // both queue tiers active in the same run.
    b.addEdge(0, chainLen + 1, 7);
    b.addEdge(chainLen + 1, 1, 5);
    Graph g = b.build();

    SeqPathResult dial = dijkstraDial(g, 0);
    SeqPathResult dj = dijkstra(g, 0);
    ASSERT_EQ(dial.dist, dj.dist);
    // The far end of the chain is genuinely beyond 32 bits: the decoy
    // shortcut (12) plus chainLen-1 big hops.
    uint64_t expectedEnd = 12 + uint64_t(chainLen - 1) * big;
    EXPECT_EQ(dial.dist[chainLen], expectedEnd);
    EXPECT_GT(dial.dist[chainLen], uint64_t(1) << 33);
}

TEST(Sequential, AstarMatchesDijkstraAtTarget)
{
    Graph g = makeRoadGrid(16, 16, {.seed = 5});
    NodeId target = g.numNodes() - 1;
    SeqPathResult a = astar(g, 0, target);
    SeqPathResult dj = dijkstra(g, 0);
    EXPECT_EQ(a.dist[target], dj.dist[target]);
    // The heuristic must prune work relative to plain Dijkstra.
    EXPECT_LE(a.tasksProcessed, dj.tasksProcessed);
}

TEST(Sequential, AstarHeuristicAdmissibleOnRoadGrid)
{
    Graph g = makeRoadGrid(12, 12, {.seed = 7});
    SeqPathResult dj = dijkstra(g, 0);
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        if (dj.dist[n] == unreachableDist)
            continue;
        // h(0 -> n) must never exceed the true distance.
        EXPECT_LE(astarHeuristic(g, 0, n), dj.dist[n]) << "node " << n;
    }
}

TEST(Sequential, KruskalOnHandGraph)
{
    // Undirected view of smallWeighted: MST edges 0-2(1), 2-3(1),
    // 0-1(2) => weight 4, 3 edges.
    SeqMstResult r = kruskal(smallWeighted());
    EXPECT_EQ(r.totalWeight, 4u);
    EXPECT_EQ(r.edgesInForest, 3u);
}

TEST(Sequential, KruskalForestOnDisconnected)
{
    GraphBuilder b(4);
    b.addEdge(0, 1, 3);
    b.addEdge(2, 3, 4);
    SeqMstResult r = kruskal(b.build());
    EXPECT_EQ(r.totalWeight, 7u);
    EXPECT_EQ(r.edgesInForest, 2u);
}

TEST(Sequential, GreedyColoringIsProper)
{
    Graph g = makeUniformRandom(200, 1500, {.seed = 9});
    SeqColorResult r = greedyColor(g);
    EXPECT_TRUE(isProperColoring(g, r.colors));
    EXPECT_GT(r.numColors, 0);
}

TEST(Sequential, ColoringValidatorCatchesViolations)
{
    Graph g = smallWeighted();
    std::vector<int32_t> bad(4, 0); // everything color 0
    EXPECT_FALSE(isProperColoring(g, bad));
    std::vector<int32_t> uncolored = {0, 1, 2, -1};
    EXPECT_FALSE(isProperColoring(g, uncolored));
}

TEST(Sequential, PagerankMassConserved)
{
    Graph g = makeRmat(9, 6u << 9, 0.57, 0.19, 0.19, {.seed = 11});
    SeqPagerankResult r = pagerankSeq(g, 0.85, 1e-5);
    double sum = std::accumulate(r.rank.begin(), r.rank.end(), 0.0);
    // Total rank mass converges to n (dangling nodes keep their share
    // here because the push formulation never leaks mass).
    EXPECT_NEAR(sum, double(g.numNodes()), double(g.numNodes()) * 0.05);
}

// --------------------------------------------------- workload factory

TEST(WorkloadFactory, KnowsAllKernels)
{
    Graph g = makeRoadGrid(8, 8, {.seed = 2});
    size_t count = 0;
    const char *const *names = workloadNames(count);
    EXPECT_EQ(count, 6u);
    for (size_t i = 0; i < count; ++i) {
        auto w = makeWorkload(names[i], g, 0);
        EXPECT_STREQ(w->name(), names[i]);
        EXPECT_FALSE(w->initialTasks().empty());
    }
}

TEST(WorkloadFactory, RejectsUnknownKernel)
{
    Graph g = smallWeighted();
    EXPECT_EXIT(makeWorkload("nope", g, 0), testing::ExitedWithCode(1),
                "unknown kernel");
}

// A workload driven sequentially by hand must verify, and again after
// a reset.
class WorkloadSequentialDrive : public testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadSequentialDrive, VerifiesAndResets)
{
    Graph g = makeRoadGrid(10, 10, {.seed = 13});
    auto w = makeWorkload(GetParam(), g, 0);
    for (int round = 0; round < 2; ++round) {
        w->reset();
        std::vector<Task> stack = w->initialTasks();
        std::vector<Task> children;
        uint64_t processed = 0;
        while (!stack.empty()) {
            Task t = stack.back();
            stack.pop_back();
            children.clear();
            w->process(t, children);
            ++processed;
            stack.insert(stack.end(), children.begin(), children.end());
            ASSERT_LT(processed, 10'000'000u) << "runaway workload";
        }
        std::string why;
        EXPECT_TRUE(w->verify(&why)) << "round " << round << ": " << why;
        EXPECT_GT(w->sequentialTasks(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, WorkloadSequentialDrive,
                         testing::Values("sssp", "bfs", "astar", "mst",
                                         "color", "pagerank"));

// --------------------------------------- executor integration matrix

struct MatrixParam
{
    const char *kernel;
    const char *scheduler;
    const char *input;
};

class KernelSchedulerMatrix : public testing::TestWithParam<MatrixParam>
{
};

TEST_P(KernelSchedulerMatrix, ParallelResultMatchesReference)
{
    const MatrixParam &param = GetParam();
    Graph g = std::string(param.input) == "road"
                  ? makeRoadGrid(14, 14, {.seed = 23})
                  : makeRmat(9, 5u << 9, 0.5, 0.22, 0.22, {.seed = 23});
    auto workload = makeWorkload(param.kernel, g, 0);
    constexpr unsigned threads = 4;
    auto sched =
        findThreadedDesign(param.scheduler)->make(threads, DesignParams{});
    RunOptions options;
    options.numThreads = threads;
    RunResult result = run(*sched, workload->initialTasks(),
                           workloadProcessFn(*workload), options);
    std::string why;
    EXPECT_TRUE(workload->verify(&why))
        << param.kernel << "/" << param.scheduler << ": " << why;
    EXPECT_GT(result.total.tasksProcessed, 0u);
}

std::vector<MatrixParam>
matrixParams()
{
    std::vector<MatrixParam> params;
    for (const char *kernel :
         {"sssp", "bfs", "astar", "mst", "color", "pagerank"}) {
        for (const DesignEntry &design : threadedDesigns()) {
            for (const char *input : {"road", "rmat"})
                params.push_back({kernel, design.name, input});
        }
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    Full, KernelSchedulerMatrix, testing::ValuesIn(matrixParams()),
    [](const testing::TestParamInfo<MatrixParam> &info) {
        std::string name = std::string(info.param.kernel) + "_" +
                           info.param.scheduler + "_" + info.param.input;
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

// -------------------------------------------------- workload specifics

TEST(Workloads, SsspWorkEfficiencyReported)
{
    Graph g = makeRoadGrid(12, 12, {.seed = 31});
    SsspWorkload w(g, 0);
    EXPECT_EQ(w.sequentialTasks(), dijkstra(g, 0).tasksProcessed);
}

TEST(Workloads, SsspStaleTaskIsEmpty)
{
    Graph g = smallWeighted();
    SsspWorkload w(g, 0);
    std::vector<Task> children;
    w.process(Task{0, 0, 0}, children); // settles neighbours
    children.clear();
    // A worse (stale) task for node 1 must do nothing.
    uint32_t edges = w.process(Task{100, 1, 0}, children);
    EXPECT_EQ(edges, 0u);
    EXPECT_TRUE(children.empty());
}

TEST(Workloads, AstarPicksFarTarget)
{
    Graph g = makeRoadGrid(12, 12, {.seed = 37});
    AstarWorkload w(g, 0);
    EXPECT_NE(w.target(), 0u);
    SeqPathResult levels = bfsLevels(g, 0);
    EXPECT_NE(levels.dist[w.target()], unreachableDist);
}

TEST(Workloads, MstMatchesKruskalAfterSequentialDrive)
{
    Graph g = makeUniformRandom(120, 700, {.seed = 41});
    MstWorkload w(g);
    std::vector<Task> stack = w.initialTasks();
    std::vector<Task> children;
    while (!stack.empty()) {
        Task t = stack.back();
        stack.pop_back();
        children.clear();
        w.process(t, children);
        stack.insert(stack.end(), children.begin(), children.end());
    }
    SeqMstResult ref = kruskal(g);
    EXPECT_EQ(w.forestWeight(), ref.totalWeight);
    EXPECT_EQ(w.forestEdges(), ref.edgesInForest);
}

TEST(Workloads, ColorUsesReasonableColorCount)
{
    Graph g = makeBanded(400, 6, 15, {.seed = 43});
    ColorWorkload w(g);
    std::vector<Task> stack = w.initialTasks();
    std::vector<Task> children;
    while (!stack.empty()) {
        Task t = stack.back();
        stack.pop_back();
        children.clear();
        w.process(t, children);
        stack.insert(stack.end(), children.begin(), children.end());
    }
    ASSERT_TRUE(w.verify(nullptr));
    // Degree+1 bound on greedy coloring.
    GraphStats stats = computeStats(symmetrize(g));
    EXPECT_LE(w.numColorsUsed(), int32_t(stats.maxDegree + 1));
}

TEST(Workloads, PagerankPriorityMonotone)
{
    // Larger residual must map to a smaller (sooner) priority value.
    EXPECT_LT(PagerankWorkload::priorityFor(0.5),
              PagerankWorkload::priorityFor(0.01));
    EXPECT_LT(PagerankWorkload::priorityFor(0.01),
              PagerankWorkload::priorityFor(0.0001));
}

} // namespace
} // namespace hdcps
