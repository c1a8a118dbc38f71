/**
 * @file
 * Unit-level tests for the simulator scheduler designs that the
 * end-to-end matrix exercises only as black boxes: OBIM/PMOD delta
 * adaptation on the simulated machine, Software-Minnow staging
 * semantics, Swarm trace construction and abort accounting, the
 * MultiQueue design, and the HD-CPS flow-control/TDF plumbing.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algos/workload.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "simsched/runner.h"
#include "simsched/sim_hdcps.h"
#include "simsched/sim_multiqueue.h"
#include "simsched/sim_obim.h"
#include "simsched/sim_swarm.h"

namespace hdcps {
namespace {

SimConfig
cores8()
{
    SimConfig config;
    config.numCores = 8;
    config.meshWidth = 4;
    return config;
}

TEST(SimObimUnit, FixedDeltaNeverChanges)
{
    Graph g = makePaperInput("usa", 1, 3);
    auto w = makeWorkload("sssp", g, 0);
    SimObim design(SimObim::obimConfig(3), "obim");
    simulate(design, *w, cores8(), 1);
    EXPECT_EQ(design.currentDelta(), 3u);
}

TEST(SimObimUnit, PmodDeltaStaysInBounds)
{
    Graph g = makePaperInput("usa", 1, 3);
    auto w = makeWorkload("sssp", g, 0);
    SimObim::Config config = SimObim::pmodConfig(3);
    SimObim design(config, "pmod");
    SimResult r = simulate(design, *w, cores8(), 1);
    EXPECT_TRUE(r.verified);
    EXPECT_GE(design.currentDelta(), config.minDelta);
    EXPECT_LE(design.currentDelta(), config.maxDelta);
}

TEST(SimObimUnit, PmodMergesWhenBagsStarve)
{
    // A workload whose priorities are all distinct (chain of unique
    // distances) keeps delta-3 bags nearly empty; PMOD must react by
    // growing delta above its start.
    GraphBuilder b(4096);
    for (NodeId i = 0; i + 1 < 4096; ++i)
        b.addEdge(i, i + 1, 97); // long unique-priority chain
    Graph g = b.build();
    auto w = makeWorkload("sssp", g, 0);
    SimObim design(SimObim::pmodConfig(0), "pmod");
    SimResult r = simulate(design, *w, cores8(), 1);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(design.currentDelta(), 0u);
}

TEST(SimObimUnit, SwMinnowWorkersNeverTouchTheMapDirectly)
{
    // With zero minnows the config is invalid only implicitly; with
    // minnows, workers starved of staging must still finish because
    // helpers feed them (termination is the assertion here).
    Graph g = makeRoadGrid(10, 10, {.seed = 4});
    auto w = makeWorkload("bfs", g, 0);
    SimObim design(SimObim::swMinnowConfig(2), "swminnow");
    SimResult r = simulate(design, *w, cores8(), 1);
    EXPECT_TRUE(r.verified) << r.verifyError;
}

TEST(SimMultiQueueUnit, VerifiesAndBalances)
{
    Graph g = makePaperInput("usa", 1, 3);
    auto w = makeWorkload("sssp", g, 0);
    SimMultiQueue design(2);
    SimResult r = simulate(design, *w, cores8(), 1);
    EXPECT_TRUE(r.verified) << r.verifyError;
    // Power-of-two-choices keeps relaxed order decent: redundant work
    // should stay within a small factor of the sequential task count.
    EXPECT_LT(r.total.tasksProcessed, w->sequentialTasks() * 4);
}

TEST(SimSwarmUnit, TraceMatchesSequentialWork)
{
    Graph g = makeRoadGrid(10, 10, {.seed = 4});
    auto w = makeWorkload("sssp", g, 0);
    SimSwarm design;
    SimResult r = simulate(design, *w, cores8(), 1);
    EXPECT_TRUE(r.verified);
    // Executions = trace size + re-executions from aborts, exactly.
    EXPECT_EQ(r.total.tasksProcessed,
              design.traceSize() + design.totalAborts());
}

TEST(SimSwarmUnit, SingleCoreHasNoAborts)
{
    // With one core there is no speculation overlap, hence no abort.
    Graph g = makeRoadGrid(10, 10, {.seed = 4});
    auto w = makeWorkload("sssp", g, 0);
    SimSwarm design;
    SimConfig one;
    one.numCores = 1;
    one.meshWidth = 1;
    SimResult r = simulate(design, *w, one, 1);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(design.totalAborts(), 0u);
    EXPECT_EQ(r.total.tasksProcessed, design.traceSize());
}

TEST(SimSwarmUnit, WiderWindowNeverLosesTasks)
{
    Graph g = makePaperInput("cage", 1, 3);
    auto w = makeWorkload("bfs", g, 0);
    for (unsigned window : {1u, 4u, 32u}) {
        SimSwarm::Config config;
        config.dispatchWindow = window;
        SimSwarm design(config);
        SimResult r = simulate(design, *w, cores8(), 1);
        ASSERT_TRUE(r.verified) << "window " << window;
        ASSERT_EQ(r.total.tasksProcessed,
                  design.traceSize() + design.totalAborts());
    }
}

TEST(SimHdCpsUnit, FlowControlLimitsInFlightPerPair)
{
    // hRQ of 1 with 100% distribution: the capacity counters and the
    // spill path absorb the pressure; spills prove the flag got hit.
    Graph g = makePaperInput("cage", 1, 3);
    auto w = makeWorkload("sssp", g, 0);
    SimHdCpsConfig config = SimHdCps::configHw();
    config.hrqEntries = 1;
    config.tdfMode = SimHdCpsConfig::TdfMode::Fixed;
    config.tdfPct = 100;
    SimHdCps design(config, "flow");
    SimResult r = simulate(design, *w, cores8(), 1);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(design.hrqSpills(), 0u);
}

TEST(SimHdCpsUnit, AdaptiveTdfMovesFromInitial)
{
    Graph g = makePaperInput("usa", 1, 3);
    auto w = makeWorkload("sssp", g, 0);
    SimHdCpsConfig config = SimHdCps::configSw();
    config.sampleInterval = 50; // plenty of decisions on a small run
    SimHdCps design(config, "adaptive");
    SimResult r = simulate(design, *w, cores8(), 1);
    EXPECT_TRUE(r.verified);
    EXPECT_NE(design.currentTdf(), config.tdf.initial);
}

TEST(SimHdCpsUnit, BagCountersConsistent)
{
    Graph g = makePaperInput("cage", 1, 3);
    auto w = makeWorkload("sssp", g, 0);
    SimHdCps design(SimHdCps::configSw(), "bags");
    SimResult r = simulate(design, *w, cores8(), 1);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(design.bagsCreated(), r.total.bagsCreated);
    EXPECT_GE(r.total.tasksInBags, 2 * r.total.bagsCreated);
}

TEST(SimHdCpsUnit, HighWaterWithinCapacity)
{
    Graph g = makePaperInput("cage", 1, 3);
    auto w = makeWorkload("sssp", g, 0);
    SimHdCpsConfig config = SimHdCps::configHw();
    SimHdCps design(config, "hw");
    simulate(design, *w, cores8(), 1);
    EXPECT_LE(design.hrqHighWater(), config.hrqEntries);
    EXPECT_LE(design.hpqHighWater(), config.hpqEntries);
}

TEST(SimHdCpsUnit, HpqOnlyConfigVerifies)
{
    // The fourth point of the 2x2 hardware matrix: hPQ without hRQ.
    Graph g = makeRoadGrid(10, 10, {.seed = 6});
    auto w = makeWorkload("sssp", g, 0);
    SimResult r = simulate("hdcps-hpq", *w, cores8(), 1);
    EXPECT_TRUE(r.verified) << r.verifyError;
    // No hRQ => no hardware task messages on the mesh from this design
    // (coherence traffic is charged inside the cache model instead).
    SimResult hw = simulate("hdcps-hw", *w, cores8(), 1);
    EXPECT_GT(hw.noc.messages, r.noc.messages);
}

TEST(SimDesignsUnit, MultiqueueListedAndConstructible)
{
    bool found = false;
    for (const SimDesignEntry &design : simDesigns())
        found |= std::string(design.name) == "multiqueue";
    EXPECT_TRUE(found);
    EXPECT_STREQ(makeDesign("multiqueue")->name(), "multiqueue");
}

TEST(SimDesignsUnit, NamesAreUniqueAndBuildThemselves)
{
    std::set<std::string> names;
    for (const SimDesignEntry &design : simDesigns()) {
        EXPECT_TRUE(names.insert(design.name).second)
            << "duplicate design name " << design.name;
        EXPECT_STREQ(makeDesign(design.name)->name(), design.name);
    }
}

TEST(SimDesignsUnit, UnknownDesignIsFatal)
{
    EXPECT_EXIT(makeDesign("bogus"), testing::ExitedWithCode(1),
                "unknown design");
}

} // namespace
} // namespace hdcps
