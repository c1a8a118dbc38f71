/**
 * @file
 * Integration tests for every scheduler design on the simulated
 * machine: the full design x kernel matrix must verify against the
 * sequential references, runs must be deterministic for a seed, and
 * the headline shape relations of the paper (HW beats SW, HD-CPS beats
 * RELD, Swarm's work efficiency) must hold on the generated inputs.
 */

#include <gtest/gtest.h>

#include "algos/workload.h"
#include "graph/generators.h"
#include "sim/machine.h"
#include "simsched/runner.h"
#include "simsched/sim_hdcps.h"
#include "simsched/sim_swarm.h"
#include "support/fault.h"

namespace hdcps {
namespace {

SimConfig
cores16()
{
    SimConfig config;
    config.numCores = 16;
    config.meshWidth = 4;
    return config;
}

struct DesignKernel
{
    const char *design;
    const char *kernel;
};

class DesignMatrix : public testing::TestWithParam<DesignKernel>
{
};

TEST_P(DesignMatrix, VerifiesOnRoadInput)
{
    const DesignKernel &param = GetParam();
    Graph g = makeRoadGrid(12, 12, {.seed = 51});
    auto w = makeWorkload(param.kernel, g, 0);
    SimResult r = simulate(param.design, *w, cores16(), 1);
    EXPECT_TRUE(r.verified)
        << param.design << "/" << param.kernel << ": " << r.verifyError;
    EXPECT_GT(r.completionCycles, 0u);
    EXPECT_GT(r.total.tasksProcessed, 0u);
}

std::vector<DesignKernel>
designMatrix()
{
    std::vector<DesignKernel> params;
    for (const SimDesignEntry &design : simDesigns()) {
        for (const char *kernel :
             {"sssp", "bfs", "astar", "mst", "color", "pagerank"}) {
            params.push_back({design.name, kernel});
        }
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    Full, DesignMatrix, testing::ValuesIn(designMatrix()),
    [](const testing::TestParamInfo<DesignKernel> &info) {
        std::string name = std::string(info.param.design) + "_" +
                           info.param.kernel;
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

TEST(SimDesigns, DeterministicForSeed)
{
    Graph g = makePaperInput("usa", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    SimResult a = simulate("hdcps-hw", *w, cores16(), 9);
    SimResult b = simulate("hdcps-hw", *w, cores16(), 9);
    EXPECT_EQ(a.completionCycles, b.completionCycles);
    EXPECT_EQ(a.total.tasksProcessed, b.total.tasksProcessed);
}

TEST(SimDesigns, DifferentSeedsStillVerify)
{
    Graph g = makeRoadGrid(10, 10, {.seed = 3});
    auto w = makeWorkload("sssp", g, 0);
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        SimResult r = simulate("hdcps-sw", *w, cores16(), seed);
        EXPECT_TRUE(r.verified) << "seed " << seed;
    }
}

TEST(SimDesigns, ParallelBeatsSequentialOnAllDesigns)
{
    Graph g = makePaperInput("usa", 1, 7);
    auto w = makeWorkload("bfs", g, 0);
    SimConfig config = cores16();
    Cycle seq = simulateSequentialCycles(*w, config, 1);
    for (const char *design : {"pmod", "hdcps-sw", "hdcps-hw", "swarm"}) {
        SimResult r = simulate(design, *w, config, 1);
        EXPECT_LT(r.completionCycles, seq)
            << design << " failed to beat sequential";
    }
}

TEST(SimDesigns, HardwareAssistBeatsSoftware)
{
    // The paper's headline HW result: hRQ+hPQ ~20% over HD-CPS:SW.
    Graph g = makePaperInput("usa", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    SimConfig config = cores16();
    Cycle sw = simulate("hdcps-sw", *w, config, 1).completionCycles;
    Cycle hw = simulate("hdcps-hw", *w, config, 1).completionCycles;
    EXPECT_LT(hw, sw);
}

TEST(SimDesigns, HdCpsBeatsReld)
{
    // Figure 5: the HD-CPS software stack improves on RELD.
    Graph g = makePaperInput("usa", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    SimConfig config = cores16();
    Cycle reld = simulate("reld", *w, config, 1).completionCycles;
    Cycle hdcps = simulate("hdcps-sw", *w, config, 1).completionCycles;
    EXPECT_LT(hdcps, reld);
}

TEST(SimDesigns, SwarmHasBestWorkEfficiency)
{
    // Swarm executes (nearly) only the ordered-execution tasks; the
    // relaxed designs do redundant work.
    Graph g = makePaperInput("usa", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    SimConfig config = cores16();
    SimResult swarm = simulate("swarm", *w, config, 1);
    SimResult reld = simulate("reld", *w, config, 1);
    EXPECT_LE(swarm.total.tasksProcessed - swarm.total.aborts,
              reld.total.tasksProcessed);
}

TEST(SimDesigns, SwarmCountsAborts)
{
    Graph g = makePaperInput("cage", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    SimSwarm design;
    SimResult r = simulate(design, *w, cores16(), 1);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(design.totalAborts(), r.total.aborts);
    EXPECT_GT(design.traceSize(), 0u);
}

TEST(SimDesigns, BreakdownComponentsSumToWork)
{
    Graph g = makeRoadGrid(12, 12, {.seed = 61});
    auto w = makeWorkload("sssp", g, 0);
    SimResult r = simulate("hdcps-sw", *w, cores16(), 1);
    EXPECT_GT(r.total[Component::Compute], 0u);
    EXPECT_GT(r.total[Component::Enqueue], 0u);
    EXPECT_GT(r.total[Component::Dequeue], 0u);
    // Every core's clock is bounded by completion plus one idle poll
    // at the maximum backoff (the run loop doubles the poll quantum up
    // to 2^7x while a core keeps coming up empty).
    Cycle slack = Cycle(cores16().idlePollCycles) << 8;
    for (const Breakdown &b : r.perCore)
        EXPECT_LE(b.total(), r.completionCycles + slack);
}

TEST(SimDesigns, HdCpsHwUsesMessages)
{
    Graph g = makeRoadGrid(12, 12, {.seed = 71});
    auto w = makeWorkload("bfs", g, 0);
    SimResult hw = simulate("hdcps-hw", *w, cores16(), 1);
    EXPECT_GT(hw.noc.messages, 0u);
    SimResult sw = simulate("hdcps-sw", *w, cores16(), 1);
    // Software mode sends no explicit task messages; its NoC traffic is
    // all coherence (charged through the cache model).
    EXPECT_GT(hw.noc.messages, sw.noc.messages);
}

TEST(SimDesigns, QueueSizeZeroDegeneratesToSoftware)
{
    // Paper: "If the size of both these queues is set to zero, then
    // the system becomes a software-only solution."
    Graph g = makeRoadGrid(10, 10, {.seed = 73});
    auto w = makeWorkload("sssp", g, 0);
    SimHdCpsConfig config = SimHdCps::configHw();
    config.hrqEntries = 0;
    config.hpqEntries = 0;
    auto design = makeHdCpsDesign(config, "hw-zero");
    SimResult r = simulate(*design, *w, cores16(), 1);
    EXPECT_TRUE(r.verified) << r.verifyError;
}

TEST(SimDesigns, HrqSpillsWhenTiny)
{
    Graph g = makePaperInput("cage", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    SimHdCpsConfig config = SimHdCps::configHw();
    config.hrqEntries = 1;
    SimHdCps design(config, "hw-tiny");
    SimResult r = simulate(design, *w, cores16(), 1);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(design.hrqSpills(), 0u);
}

TEST(SimDesigns, FaultForcedHrqSpillStillVerifies)
{
    // sim.hrq.full pretends the hRQ is full on a fraction of arrivals,
    // driving the spill-to-software path at the default (generous)
    // capacity — tasks detour but must all arrive exactly once, which
    // verify() checks against the sequential reference.
    Graph g = makePaperInput("cage", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    ScopedFaultInjection faults(13);
    faults->arm(faultsite::SimHrqFull, FaultMode::Probability, 0.5);
    SimHdCps design(SimHdCps::configHw(), "hw-faulty-hrq");
    SimResult r = simulate(design, *w, cores16(), 1);
    EXPECT_TRUE(r.verified) << r.verifyError;
    EXPECT_GT(design.hrqSpills(), 0u);
    EXPECT_GT(faults->fireCount(faultsite::SimHrqFull), 0u);
}

TEST(SimDesigns, FaultForcedHpqEvictStillVerifies)
{
    // sim.hpq.evict forces the evict-to-software path long before the
    // hPQ actually fills; the software PQ absorbs the evictions and
    // the run must still be exactly-once correct.
    Graph g = makePaperInput("cage", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    ScopedFaultInjection faults(17);
    faults->arm(faultsite::SimHpqEvict, FaultMode::EveryNth, 2);
    SimHdCps design(SimHdCps::configHw(), "hw-faulty-hpq");
    SimResult r = simulate(design, *w, cores16(), 1);
    EXPECT_TRUE(r.verified) << r.verifyError;
    EXPECT_GT(design.hpqEvictions(), 0u);
}

TEST(SimDesigns, FaultInjectedNocDelayOnlySlowsTheRun)
{
    // A degraded NoC (extra cycles per transfer) changes timing, never
    // correctness — and must strictly increase completion time on a
    // communication-heavy run.
    Graph g = makeRoadGrid(12, 12, {.seed = 51});
    auto w = makeWorkload("sssp", g, 0);
    Cycle healthy = simulate("hdcps-hw", *w, cores16(), 1)
                        .completionCycles;
    ScopedFaultInjection faults;
    faults->arm(faultsite::SimNocDelay, FaultMode::Delay, 200);
    SimResult r = simulate("hdcps-hw", *w, cores16(), 1);
    EXPECT_TRUE(r.verified) << r.verifyError;
    EXPECT_GT(r.completionCycles, healthy);
}

TEST(SimDesigns, FixedTdfSweepAllVerify)
{
    Graph g = makeRoadGrid(10, 10, {.seed = 79});
    auto w = makeWorkload("sssp", g, 0);
    for (unsigned tdf : {10u, 50u, 100u}) {
        SimHdCpsConfig config = SimHdCps::configSw();
        config.tdfMode = SimHdCpsConfig::TdfMode::Fixed;
        config.fixedTdf = tdf;
        auto design = makeHdCpsDesign(config, "fixed-tdf");
        SimResult r = simulate(*design, *w, cores16(), 1);
        EXPECT_TRUE(r.verified) << "tdf " << tdf;
    }
}

TEST(SimDesigns, BagTransportBothModesVerify)
{
    Graph g = makePaperInput("cage", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    for (BagTransport transport :
         {BagTransport::Pull, BagTransport::Push}) {
        SimHdCpsConfig config = SimHdCps::configHw();
        config.bags.transport = transport;
        SimHdCps design(config, "transport");
        SimResult r = simulate(design, *w, cores16(), 1);
        EXPECT_TRUE(r.verified);
        EXPECT_GT(design.bagsCreated(), 0u);
    }
}

TEST(SimDesigns, DriftReportedForAllDesigns)
{
    Graph g = makePaperInput("usa", 1, 7);
    auto w = makeWorkload("sssp", g, 0);
    // Small interval so even short runs produce samples.
    SimResult r = simulate("reld", *w, cores16(), 1, 200);
    EXPECT_GT(r.avgDrift, 0.0);
    EXPECT_GE(r.maxDrift, r.avgDrift);
}

TEST(SimDesigns, SixtyFourCoreTableIMachineWorks)
{
    Graph g = makeRoadGrid(12, 12, {.seed = 83});
    auto w = makeWorkload("bfs", g, 0);
    SimConfig config; // default = Table I, 64 cores
    SimResult r = simulate("hdcps-hw", *w, config, 1);
    EXPECT_TRUE(r.verified);
}

} // namespace
} // namespace hdcps
