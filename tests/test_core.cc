/**
 * @file
 * Unit tests for the paper's core mechanisms: the TDF controller
 * (Algorithm 2), the drift tracker (Equation 1 / Algorithm 3), the
 * selective bagging policy (Algorithm 1), and the HD-CPS:SW scheduler's
 * own invariants.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/bag_policy.h"
#include "core/bag_pool.h"
#include "core/designs.h"
#include "core/drift.h"
#include "core/hdcps.h"
#include "core/recv_queue.h"
#include "core/tdf.h"
#include "obs/metrics.h"
#include "support/fault.h"
#include "support/rng.h"
#include "support/topology.h"

namespace hdcps {
namespace {

// ----------------------------------------------------------------- TDF

TdfController::Config
tdfConfig(unsigned initial = 50, unsigned step = 10)
{
    TdfController::Config config;
    config.initial = initial;
    config.step = step;
    return config;
}

TEST(Tdf, StartsAtInitial)
{
    TdfController tdf(tdfConfig(70));
    EXPECT_EQ(tdf.current(), 70u);
}

TEST(Tdf, FirstIntervalMakesNoChange)
{
    TdfController tdf(tdfConfig());
    EXPECT_EQ(tdf.update(5.0), 50u); // records baseline only
}

TEST(Tdf, ImprovementContinuesLastDirection)
{
    // Drift improving: keep moving the same way (the controller
    // starts with "increase" as its notional last move).
    TdfController tdf(tdfConfig());
    tdf.update(10.0);
    EXPECT_EQ(tdf.update(5.0), 60u);
    EXPECT_TRUE(tdf.lastWasIncrease());
    EXPECT_EQ(tdf.update(3.0), 70u); // still improving: keep going up
}

TEST(Tdf, WorseAfterIncreaseDecreases)
{
    // Algorithm 2 line 5-7: communication increase didn't help.
    TdfController tdf(tdfConfig());
    tdf.update(10.0);
    tdf.update(5.0);                  // improved -> increase (60)
    EXPECT_EQ(tdf.update(12.0), 50u); // worsened after increase -> down
    EXPECT_FALSE(tdf.lastWasIncrease());
}

TEST(Tdf, WorseAfterDecreaseIncreases)
{
    // Algorithm 2 line 8-10: backing off starved the task flow.
    TdfController tdf(tdfConfig());
    tdf.update(10.0);
    tdf.update(5.0);  // improved -> increase (60)
    tdf.update(12.0); // worse -> decrease (50)
    EXPECT_EQ(tdf.update(14.0), 60u); // worse after decrease -> up
    EXPECT_TRUE(tdf.lastWasIncrease());
}

TEST(Tdf, ClampsAtBounds)
{
    TdfController::Config config = tdfConfig(80, 10);
    config.minTdf = 10;
    config.maxTdf = 100;
    TdfController tdf(config);
    tdf.update(10.0);
    // Repeated improvement walks up to the ceiling and stays there.
    for (double d = 9.0; d > 0.5; d -= 1.0)
        tdf.update(d);
    EXPECT_EQ(tdf.current(), 100u);
}

TEST(Tdf, StepSizeRespected)
{
    TdfController tdf(tdfConfig(50, 30));
    tdf.update(10.0);
    EXPECT_EQ(tdf.update(5.0), 80u);
}

TEST(Tdf, DecisionsCounted)
{
    TdfController tdf(tdfConfig());
    tdf.update(1.0);
    tdf.update(2.0);
    tdf.update(3.0);
    EXPECT_EQ(tdf.decisions(), 2u); // first interval is baseline-only
}

TEST(Tdf, ResetRestoresState)
{
    TdfController tdf(tdfConfig());
    tdf.update(1.0);
    tdf.update(0.5);
    tdf.reset(tdfConfig(80));
    EXPECT_EQ(tdf.current(), 80u);
    EXPECT_EQ(tdf.decisions(), 0u);
}

// --------------------------------------------------------------- drift

TEST(Drift, Equation1AgainstHandComputation)
{
    DriftTracker drift(4);
    drift.publish(0, 10);
    drift.publish(1, 14);
    drift.publish(2, 22);
    drift.publish(3, 10);
    // P0 = 10; |10-10| + |14-10| + |22-10| + |10-10| = 16; / 4 = 4.
    EXPECT_DOUBLE_EQ(drift.computeDrift(), 4.0);
}

TEST(Drift, IgnoresUnpublishedCores)
{
    DriftTracker drift(4);
    drift.publish(0, 100);
    EXPECT_DOUBLE_EQ(drift.computeDrift(), 0.0); // < 2 cores published
    drift.publish(2, 110);
    EXPECT_DOUBLE_EQ(drift.computeDrift(), 5.0); // (0 + 10) / 2
}

TEST(Drift, ZeroWhenAllEqual)
{
    DriftTracker drift(3);
    for (unsigned c = 0; c < 3; ++c)
        drift.publish(c, 42);
    EXPECT_DOUBLE_EQ(drift.computeDrift(), 0.0);
}

TEST(Drift, LatestPublishWins)
{
    DriftTracker drift(2);
    drift.publish(0, 10);
    drift.publish(1, 10);
    drift.publish(1, 30);
    EXPECT_DOUBLE_EQ(drift.computeDrift(), 10.0);
    EXPECT_EQ(drift.published(1), 30u);
}

TEST(Drift, SeriesAveragesAndMax)
{
    DriftSeries series;
    series.record(2.0);
    series.record(4.0);
    series.record(6.0);
    EXPECT_DOUBLE_EQ(series.average(), 4.0);
    EXPECT_DOUBLE_EQ(series.maxSample(), 6.0);
    EXPECT_EQ(series.samples(), 3u);
}

TEST(Drift, ResetClearsMailboxes)
{
    DriftTracker drift(2);
    drift.publish(0, 5);
    drift.reset(3);
    EXPECT_EQ(drift.numCores(), 3u);
    EXPECT_EQ(drift.published(0), DriftTracker::unpublished);
}

// ----------------------------------------------------------------- bags

std::vector<Task>
tasksWithPriorities(const std::vector<Priority> &priorities)
{
    std::vector<Task> tasks;
    for (size_t i = 0; i < priorities.size(); ++i)
        tasks.push_back(Task{priorities[i], uint32_t(i), 0});
    return tasks;
}

TEST(BagPolicy, NoneModePassesThrough)
{
    BagPolicy policy;
    policy.mode = BagMode::None;
    BagPlan plan = policy.plan(tasksWithPriorities({1, 1, 1, 1, 1}));
    EXPECT_TRUE(plan.bags.empty());
    EXPECT_EQ(plan.singles.size(), 5u);
}

TEST(BagPolicy, SelectiveBagsInsideWindow)
{
    BagPolicy policy; // min 3, max 10
    BagPlan plan = policy.plan(tasksWithPriorities({7, 7, 7, 9}));
    ASSERT_EQ(plan.bags.size(), 1u);
    EXPECT_EQ(plan.bags[0].priority, 7u);
    EXPECT_EQ(plan.bags[0].tasks.size(), 3u);
    EXPECT_EQ(plan.singles.size(), 1u); // the lone 9
}

TEST(BagPolicy, SelectiveRejectsBelowMin)
{
    BagPolicy policy;
    BagPlan plan = policy.plan(tasksWithPriorities({5, 5}));
    EXPECT_TRUE(plan.bags.empty());
    EXPECT_EQ(plan.singles.size(), 2u);
}

TEST(BagPolicy, SelectiveRejectsAtOrAboveMax)
{
    BagPolicy policy; // window [3, 10)
    std::vector<Priority> priorities(10, 4);
    BagPlan plan = policy.plan(tasksWithPriorities(priorities));
    EXPECT_TRUE(plan.bags.empty());
    EXPECT_EQ(plan.singles.size(), 10u);
}

TEST(BagPolicy, AlwaysModeBagsPairs)
{
    BagPolicy policy;
    policy.mode = BagMode::Always;
    BagPlan plan = policy.plan(tasksWithPriorities({3, 3}));
    ASSERT_EQ(plan.bags.size(), 1u);
    EXPECT_EQ(plan.bags[0].tasks.size(), 2u);
}

TEST(BagPolicy, AlwaysModeSplitsOversizedGroups)
{
    BagPolicy policy;
    policy.mode = BagMode::Always;
    std::vector<Priority> priorities(25, 6);
    BagPlan plan = policy.plan(tasksWithPriorities(priorities));
    size_t inBags = 0;
    for (const Bag &bag : plan.bags) {
        EXPECT_LT(bag.tasks.size(), policy.maxBagSize);
        EXPECT_GE(bag.tasks.size(), 2u);
        inBags += bag.tasks.size();
    }
    EXPECT_EQ(inBags + plan.singles.size(), 25u);
}

TEST(BagPolicy, MixedPrioritiesGroupedExactly)
{
    BagPolicy policy;
    BagPlan plan =
        policy.plan(tasksWithPriorities({1, 2, 2, 2, 3, 3, 4, 4, 4, 4}));
    // Group sizes: 1 (single), 3 (bag), 2 (singles), 4 (bag).
    ASSERT_EQ(plan.bags.size(), 2u);
    EXPECT_EQ(plan.singles.size(), 3u);
}

class BagConservation : public testing::TestWithParam<unsigned>
{
};

TEST_P(BagConservation, EveryChildEndsUpSomewhere)
{
    BagPolicy policy;
    policy.mode = GetParam() == 0 ? BagMode::Selective : BagMode::Always;
    Rng rng(GetParam() + 99);
    for (int round = 0; round < 200; ++round) {
        size_t n = 1 + rng.below(40);
        std::multiset<Priority> input;
        std::vector<Task> tasks;
        for (size_t i = 0; i < n; ++i) {
            Priority p = rng.below(8);
            input.insert(p);
            tasks.push_back(Task{p, uint32_t(i), 0});
        }
        BagPlan plan = policy.plan(std::move(tasks));
        std::multiset<Priority> output;
        for (const Task &t : plan.singles)
            output.insert(t.priority);
        for (const Bag &bag : plan.bags) {
            EXPECT_GE(bag.tasks.size(), 2u);
            EXPECT_LT(bag.tasks.size(), policy.maxBagSize);
            for (const Task &t : bag.tasks) {
                EXPECT_EQ(t.priority, bag.priority);
                output.insert(t.priority);
            }
        }
        ASSERT_EQ(input, output);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, BagConservation, testing::Values(0, 1));

// -------------------------------------------------- HD-CPS:SW scheduler

TEST(HdCpsScheduler, NamesFollowConfiguration)
{
    EXPECT_STREQ(HdCpsScheduler(2, HdCpsScheduler::configSrq()).name(),
                 "hdcps-srq");
    EXPECT_STREQ(HdCpsScheduler(2, HdCpsScheduler::configSrqTdf()).name(),
                 "hdcps-srq-tdf");
    EXPECT_STREQ(
        HdCpsScheduler(2, HdCpsScheduler::configSrqTdfAc()).name(),
        "hdcps-srq-tdf-ac");
    EXPECT_STREQ(HdCpsScheduler(2, HdCpsScheduler::configSw()).name(),
                 "hdcps-srq-tdf-sc");
}

TEST(HdCpsScheduler, SingleThreadPushPop)
{
    HdCpsScheduler sched(1, HdCpsScheduler::configSrq());
    sched.push(0, Task{30, 3, 0});
    sched.push(0, Task{10, 1, 0});
    sched.push(0, Task{20, 2, 0});
    Task t;
    ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_EQ(t.priority, 10u);
    ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_EQ(t.priority, 20u);
    ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_FALSE(sched.tryPop(0, t));
}

TEST(HdCpsScheduler, OrdersPrioritiesThatDifferOnlyAbove32Bits)
{
    // Regression: the packed heap key must keep the full 64-bit
    // priority (SSSP/A* tentative distances exceed 32 bits on
    // large-weight graphs). A 64-bit (priority << 32) | node pack
    // truncated to the low 32 bits, so 2^32 packed to key 0 and popped
    // ahead of priority 1.
    HdCpsScheduler sched(1, HdCpsScheduler::configSrq());
    const uint64_t big = uint64_t(1) << 32;
    sched.push(0, Task{big, 9, 0});
    sched.push(0, Task{big, 4, 0}); // node tie-break above bit 31 too
    sched.push(0, Task{1, 2, 0});
    sched.push(0, Task{big + 1, 3, 0});
    sched.push(0, Task{uint64_t(3) << 32, 5, 0});
    Task t;
    ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_EQ(t.priority, 1u);
    ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_EQ(t.priority, big);
    EXPECT_EQ(t.node, 4u);
    ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_EQ(t.priority, big);
    EXPECT_EQ(t.node, 9u);
    ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_EQ(t.priority, big + 1);
    ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_EQ(t.priority, uint64_t(3) << 32);
    EXPECT_FALSE(sched.tryPop(0, t));
}

TEST(HdCpsScheduler, BatchWithBagsConservesTasks)
{
    HdCpsConfig config = HdCpsScheduler::configSw();
    config.seed = 5;
    HdCpsScheduler sched(1, config);
    std::vector<Task> children;
    for (int i = 0; i < 5; ++i)
        children.push_back(Task{7, uint32_t(i), 0}); // bagged (5 in [3,10))
    children.push_back(Task{9, 99, 0});
    sched.pushBatch(0, children.data(), children.size());
    EXPECT_EQ(sched.bagsCreated(), 1u);
    EXPECT_EQ(sched.tasksInBags(), 5u);
    int popped = 0;
    Task t;
    while (sched.tryPop(0, t))
        ++popped;
    EXPECT_EQ(popped, 6);
}

/** Push a batch of `count` equal-priority children on one worker and
 *  pop everything back; returns the number of tasks popped. */
int
pushEqualBatchAndDrain(HdCpsScheduler &sched, int count)
{
    std::vector<Task> children;
    for (int i = 0; i < count; ++i)
        children.push_back(Task{7, uint32_t(i), 0});
    sched.pushBatch(0, children.data(), children.size());
    int popped = 0;
    Task t;
    while (sched.tryPop(0, t))
        ++popped;
    return popped;
}

TEST(HdCpsScheduler, BatchBelowSmallestBagIsNotPlanned)
{
    // Selective mode bags groups of >= minBagSize (3): a 2-child batch
    // goes out as singles without being planned.
    HdCpsScheduler selective(1, HdCpsScheduler::configSw());
    EXPECT_EQ(pushEqualBatchAndDrain(selective, 2), 2);
    EXPECT_EQ(selective.bagsCreated(), 0u);
    EXPECT_EQ(selective.tasksInBags(), 0u);

    // Always mode bags any group of >= 2, so the same batch still
    // forms one bag.
    HdCpsScheduler always(1, HdCpsScheduler::configSrqTdfAc());
    EXPECT_EQ(pushEqualBatchAndDrain(always, 2), 2);
    EXPECT_EQ(always.bagsCreated(), 1u);
    EXPECT_EQ(always.tasksInBags(), 2u);

    // A lone child is a single in every mode.
    HdCpsScheduler lone(1, HdCpsScheduler::configSrqTdfAc());
    EXPECT_EQ(pushEqualBatchAndDrain(lone, 1), 1);
    EXPECT_EQ(lone.bagsCreated(), 0u);
}

TEST(HdCpsScheduler, OverflowPathStillDelivers)
{
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.rqCapacity = 2; // force overflow quickly
    config.tdf = 100; // all remote
    config.seed = 11;
    HdCpsScheduler sched(2, config);
    for (int i = 0; i < 100; ++i)
        sched.push(0, Task{uint64_t(i), uint32_t(i), 0});
    EXPECT_GT(sched.overflowPushes(), 0u);
    int total = 0;
    Task t;
    while (sched.tryPop(1, t))
        ++total;
    while (sched.tryPop(0, t))
        ++total;
    EXPECT_EQ(total, 100);
}

TEST(HdCpsScheduler, FixedTdfControlsDistribution)
{
    HdCpsConfig local = HdCpsScheduler::configSrq();
    local.tdf = 0; // keep everything local
    HdCpsScheduler sched(4, local);
    for (int i = 0; i < 50; ++i)
        sched.push(2, Task{uint64_t(i), 0, 0});
    EXPECT_EQ(sched.remoteEnqueues(), 0u);
    EXPECT_EQ(sched.localEnqueues(), 50u);
    Task t;
    int popped = 0;
    while (sched.tryPop(2, t))
        ++popped;
    EXPECT_EQ(popped, 50);
}

TEST(HdCpsScheduler, CurrentTdfIsTheFixedTdf)
{
    // With TDF on the threaded design routes at kHdCpsTdf; with it off,
    // at the configured tdf.
    HdCpsScheduler sw(2, HdCpsScheduler::configSw());
    EXPECT_EQ(sw.currentTdf(), kHdCpsTdf);
    HdCpsConfig off = HdCpsScheduler::configSrq();
    off.tdf = 37;
    HdCpsScheduler srq(2, off);
    EXPECT_EQ(srq.currentTdf(), 37u);
}

TEST(HdCpsScheduler, WorkerZeroClosesDriftSamples)
{
    // Every worker reports its latest priority at its own sample
    // boundary; only worker 0's boundary closes a drift sample, so the
    // drift series has exactly one writer.
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 0; // each worker pops what it pushed
    config.sampleInterval = 1;
    HdCpsScheduler sched(2, config);
    MetricsRegistry metrics(2);
    sched.attachMetrics(&metrics);
    for (uint32_t i = 0; i < 5; ++i) {
        sched.push(0, Task{i, i, 0});
        sched.push(1, Task{100 + i, 100 + i, 0});
    }
    auto driftSamples = [&metrics] {
        for (const auto &series : metrics.snapshot().series) {
            if (series.name == "tdf_drift")
                return series.totalRecorded;
        }
        return uint64_t(0);
    };
    Task t;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(sched.tryPop(1, t));
    EXPECT_EQ(driftSamples(), 0u) << "worker 1 only reports";
    EXPECT_EQ(sched.averageDrift(), 0.0);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(sched.tryPop(0, t));
    EXPECT_EQ(driftSamples(), 5u);
    // Worker 1's last report (104) sits far behind worker 0's.
    EXPECT_GT(sched.averageDrift(), 0.0);
}

// ------------------------------------------------ design registry

TEST(DesignRegistry, NamesAreUnique)
{
    std::set<std::string> names;
    for (const DesignEntry &design : threadedDesigns()) {
        EXPECT_TRUE(names.insert(design.name).second) << design.name;
        EXPECT_EQ(findThreadedDesign(design.name), &design);
    }
    EXPECT_EQ(findThreadedDesign("bogus"), nullptr);
}

TEST(DesignRegistry, SeedReachesHdCpsSw)
{
    // Worker 0 pushes a fixed sequence into a 4-worker hdcps-sw. Where
    // each task lands is drawn from the per-worker RNG streams the seed
    // defines, so the per-worker pop counts must follow the seed.
    auto popCounts = [](uint64_t seed) {
        auto sched =
            findThreadedDesign("hdcps-sw")->make(4, {.seed = seed});
        for (uint32_t i = 0; i < 400; ++i)
            sched->push(0, Task{uint64_t(i), i, 0});
        std::vector<unsigned> counts(4, 0);
        Task t;
        for (unsigned w = 0; w < 4; ++w) {
            while (sched->tryPop(w, t))
                ++counts[w];
        }
        return counts;
    };
    EXPECT_EQ(popCounts(5), popCounts(5));
    EXPECT_NE(popCounts(5), popCounts(6));
}

// -------------------------------------- drift concurrency regression

/**
 * Regression for the computeDrift() double-load bug: the old code
 * scanned the mailboxes once for the best priority and then re-loaded
 * them for the sum; a core publishing a new minimum between the two
 * passes made the unsigned `p - best` wrap to ~2^64. With every
 * publish confined to [lo, hi], Eq. 1 can never exceed (hi - lo), so
 * any larger result is the wraparound.
 */
TEST(DriftConcurrency, ResultStaysWithinPublishedSpan)
{
    constexpr unsigned cores = 8;
    constexpr Priority lo = 1000;
    constexpr Priority hi = 2000;
    DriftTracker tracker(cores);
    for (unsigned c = 0; c < cores; ++c)
        tracker.publish(c, lo + c);

    std::atomic<bool> stop{false};
    std::vector<std::thread> publishers;
    constexpr unsigned numPublishers = 4;
    for (unsigned p = 0; p < numPublishers; ++p) {
        publishers.emplace_back([&tracker, &stop, p] {
            Rng rng(0xd1f7 + p);
            while (!stop.load(std::memory_order_relaxed)) {
                unsigned core =
                    p * (cores / numPublishers) +
                    static_cast<unsigned>(
                        rng.below(cores / numPublishers));
                tracker.publish(core,
                                lo + Priority(rng.below(hi - lo + 1)));
            }
        });
    }

    // Time-bound rather than iteration-bound: the race needs the
    // reducer to lose the CPU mid-reduction to a publisher, so the
    // loop must span many OS timeslices even on a single-core host.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    double bad = -1.0;
    while (std::chrono::steady_clock::now() < deadline) {
        double drift = tracker.computeDrift();
        if (drift < 0.0 || drift > double(hi - lo)) {
            bad = drift;
            break;
        }
    }
    stop.store(true);
    for (auto &t : publishers)
        t.join();
    EXPECT_EQ(bad, -1.0)
        << "wrapped subtraction leaked into Eq. 1: drift = " << bad;
}

TEST(DriftConcurrency, ManyCoreReductionCrossesChunkBoundary)
{
    // More cores than computeDrift's stack chunk (64), with the global
    // minimum in the *last* chunk so the cross-chunk fixup path (best
    // drops after earlier chunks were summed) is exercised.
    constexpr unsigned cores = 150;
    DriftTracker tracker(cores);
    for (unsigned c = 0; c + 1 < cores; ++c)
        tracker.publish(c, 1000 + c);
    tracker.publish(cores - 1, 0);

    double expected = 0.0;
    for (unsigned c = 0; c + 1 < cores; ++c)
        expected += double(1000 + c);
    expected /= double(cores);
    EXPECT_DOUBLE_EQ(tracker.computeDrift(), expected);
}

// ------------------------------------- sRQ occupancy from any thread

TEST(ReceiveQueueSize, ExactWhenQuiescent)
{
    ReceiveQueue<int> queue(8);
    EXPECT_EQ(queue.sizeApprox(), 0u);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(queue.tryPush(i));
    EXPECT_EQ(queue.sizeApprox(), 5u);
    int v;
    EXPECT_TRUE(queue.tryPop(v));
    EXPECT_EQ(queue.sizeApprox(), 4u);
}

TEST(ReceiveQueueSize, ReadableFromNonOwnerThread)
{
    // The observability layer samples sizeApprox() from monitoring
    // contexts; pre-fix the plain readPtr_ read was a data race (UB
    // under TSan). Now it must be readable concurrently with the
    // owner's pops and always land in [0, capacity].
    ReceiveQueue<int> queue(16);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> popped{0};

    std::thread owner([&] { // consumer: owns tryPop
        int v;
        while (!stop.load(std::memory_order_relaxed)) {
            if (queue.tryPop(v))
                popped.fetch_add(1, std::memory_order_relaxed);
        }
    });
    std::thread producer([&] {
        int i = 0;
        while (!stop.load(std::memory_order_relaxed))
            queue.tryPush(i++);
    });

    for (int iter = 0; iter < 20000; ++iter) {
        size_t n = queue.sizeApprox();
        ASSERT_LE(n, queue.capacity());
    }
    stop.store(true);
    owner.join();
    producer.join();
    EXPECT_LE(queue.sizeApprox(), queue.capacity());
}

// ------------------------------------------- fault-injection drills

TEST(FaultDrill, SrqForcedFullReportsFalseWithoutConsumingSlots)
{
    ReceiveQueue<int> queue(8);
    ScopedFaultInjection faults;
    faults->arm(faultsite::SrqPushFull, FaultMode::EveryNth, 1);
    EXPECT_FALSE(queue.tryPush(1));
    EXPECT_FALSE(queue.tryPush(2));
    EXPECT_EQ(queue.sizeApprox(), 0u); // the ring was never touched
    faults->arm(faultsite::SrqPushFull, FaultMode::EveryNth, 2);
    EXPECT_TRUE(queue.tryPush(3)); // 1st of nth:2 passes
    EXPECT_FALSE(queue.tryPush(4));
    EXPECT_EQ(queue.sizeApprox(), 1u);
}

TEST(FaultDrill, SrqSpuriousPopFailureLosesNothing)
{
    ReceiveQueue<int> queue(8);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(queue.tryPush(i));
    ScopedFaultInjection faults;
    faults->arm(faultsite::SrqPopFail, FaultMode::EveryNth, 2);
    int got = 0;
    int v;
    for (int attempt = 0; attempt < 16 && got < 4; ++attempt) {
        if (queue.tryPop(v)) {
            EXPECT_EQ(v, got); // FIFO order survives the misfires
            ++got;
        }
    }
    EXPECT_EQ(got, 4);
    EXPECT_GT(faults->fireCount(faultsite::SrqPopFail), 0u);
}

TEST(FaultDrill, DrainPopBypassesThePopFailDrill)
{
    ReceiveQueue<int> queue(8);
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(queue.tryPush(i));
    ScopedFaultInjection faults;
    faults->arm(faultsite::SrqPopFail, FaultMode::EveryNth, 1);
    int v;
    EXPECT_FALSE(queue.tryPop(v)); // the drill starves tryPop forever
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(queue.drainPop(v)); // teardown path sees the truth
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(queue.drainPop(v)); // genuinely empty now
}

TEST(FaultDrill, TeardownReleasesInFlightBagsDespitePopFaults)
{
    // Regression: the destructor drain must not trust tryPop while the
    // srq.pop.fail drill is armed — it used to stop on the injected
    // "empty" and strand the pooled bag parked in worker 1's sRQ,
    // leaking its node past ~BagPool (caught by the asan preset).
    ScopedFaultInjection faults;
    {
        HdCpsConfig config = HdCpsScheduler::configSrq();
        config.bags.mode = BagMode::Always;
        config.tdf = 100; // ship everything to worker 1's sRQ
        config.seed = 13;
        HdCpsScheduler sched(2, config);
        std::vector<Task> children;
        for (uint32_t i = 0; i < 4; ++i)
            children.push_back(Task{5, i, 0});
        sched.pushBatch(0, children.data(), children.size());
        ASSERT_EQ(sched.bagsCreated(), 1u);
        ASSERT_EQ(sched.remoteEnqueues(), 1u);
        faults->arm(faultsite::SrqPopFail, FaultMode::EveryNth, 1);
    } // ~HdCpsScheduler drains the sRQ and releases the bag
}

TEST(FaultDrill, HdCpsExactlyOnceWhenEveryRemotePushSpills)
{
    // Acceptance drill: with the sRQ reporting full on *every* remote
    // push, all transfer detours through the locked overflow queue —
    // and still every task arrives exactly once.
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.rqCapacity = 256; // plenty of room — the fault starves it
    config.tdf = 100;        // all pushes remote
    config.seed = 11;
    HdCpsScheduler sched(2, config);
    ScopedFaultInjection faults;
    faults->arm(faultsite::SrqPushFull, FaultMode::EveryNth, 1);
    constexpr int tasks = 200;
    for (int i = 0; i < tasks; ++i)
        sched.push(0, Task{uint64_t(i), uint32_t(i), 0});
    EXPECT_EQ(sched.overflowPushes(), uint64_t(tasks));
    std::set<uint32_t> seen;
    Task t;
    while (sched.tryPop(1, t))
        EXPECT_TRUE(seen.insert(t.node).second) << "duplicate task";
    while (sched.tryPop(0, t))
        EXPECT_TRUE(seen.insert(t.node).second) << "duplicate task";
    EXPECT_EQ(seen.size(), size_t(tasks));
}

TEST(FaultDrill, HdCpsOverflowSiteForcesSpillPastTheSrq)
{
    // push() and pushBatch() send every remote child through the same
    // one-slot sRQ claim, so the one-shot spill takes exactly one
    // envelope on either path.
    for (bool batched : {false, true}) {
        SCOPED_TRACE(batched ? "pushBatch" : "push");
        HdCpsConfig config = HdCpsScheduler::configSrq();
        config.tdf = 100;
        config.seed = 3;
        HdCpsScheduler sched(2, config);
        ScopedFaultInjection faults;
        faults->arm(faultsite::HdcpsOverflowSpill, FaultMode::OneShot, 1);
        std::vector<Task> tasks;
        for (uint32_t i = 0; i < 8; ++i)
            tasks.push_back(Task{i, i, 0});
        if (batched) {
            sched.pushBatch(0, tasks.data(), tasks.size());
        } else {
            for (const Task &task : tasks)
                sched.push(0, task);
        }
        EXPECT_EQ(sched.overflowPushes(), 1u); // only the one-shot spilled
        std::set<uint32_t> seen;
        Task t;
        while (sched.tryPop(1, t))
            EXPECT_TRUE(seen.insert(t.node).second) << "duplicate task";
        EXPECT_EQ(seen.size(), tasks.size());
    }
}

TEST(HdCpsScheduler, SizeApproxCountsTransferBuffers)
{
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100;
    config.seed = 7;
    HdCpsScheduler sched(2, config);
    EXPECT_EQ(sched.sizeApprox(), 0u);
    for (int i = 0; i < 10; ++i)
        sched.push(0, Task{uint64_t(i), uint32_t(i), 0});
    // All ten sit in worker 1's sRQ (or overflow) until it pops.
    EXPECT_EQ(sched.sizeApprox(), 10u);
    Task t;
    ASSERT_TRUE(sched.tryPop(1, t));
    // The drain moved the rest into the private PQ, which the owner
    // advertises through its published localBuffered estimate.
    EXPECT_EQ(sched.sizeApprox(), 9u);
}

// --------------------------------------------------- sRQ reclamation

TEST(Reclaim, OffByDefaultStrandsAStragglersTasks)
{
    // The control case: without the knob, tasks parked at a worker
    // that never pops are unreachable from its peers.
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100; // every push goes to the other worker
    HdCpsScheduler sched(2, config);
    for (uint32_t i = 0; i < 10; ++i)
        sched.push(0, Task{i, i, 0});
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    Task t;
    EXPECT_FALSE(sched.tryPop(0, t));
    EXPECT_EQ(sched.reclaimedTasks(), 0u);
    EXPECT_EQ(sched.sizeApprox(), 10u); // stranded in worker 1's sRQ
}

TEST(Reclaim, IdleWorkerDrainsAStaleStragglersSrq)
{
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100;
    HdCpsScheduler sched(2, config);
    sched.setReclaimAfterMs(20);
    for (uint32_t i = 0; i < 10; ++i)
        sched.push(0, Task{i, i, 0});

    // Worker 1's heartbeat is still fresh (setReclaimAfterMs refreshed
    // it): reclamation must not fire early.
    Task t;
    EXPECT_FALSE(sched.tryPop(0, t));
    EXPECT_EQ(sched.reclaimedTasks(), 0u);

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    unsigned popped = 0;
    Priority last = 0;
    while (sched.tryPop(0, t)) {
        EXPECT_GE(t.priority, last); // reclaimed work keeps PQ order
        last = t.priority;
        ++popped;
    }
    EXPECT_EQ(popped, 10u); // every stranded task, exactly once
    EXPECT_EQ(sched.reclaimedTasks(), 10u);
    EXPECT_EQ(sched.heartbeatPops(0), 10u);
    EXPECT_EQ(sched.sizeApprox(), 0u);
}

TEST(Reclaim, DrainsOverflowAndPrivatePqToo)
{
    // A straggler's buffered work can sit in three more places than
    // the sRQ: the locked overflow spill, its active bag, and its
    // private PQ (filled by its own earlier drains). Reclamation must
    // take all of them, or a paused worker's locally-buffered children
    // stay stranded.
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100;
    config.rqCapacity = 2; // force the overflow path
    HdCpsScheduler sched(2, config);
    sched.setReclaimAfterMs(20);
    for (uint32_t i = 0; i < 10; ++i)
        sched.push(0, Task{i, i, 0});

    // Worker 1 pops once: the drain moves everything into its private
    // PQ, then it "stalls" with 9 tasks buffered locally.
    Task t;
    ASSERT_TRUE(sched.tryPop(1, t));
    EXPECT_EQ(sched.sizeApprox(), 9u);

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    unsigned popped = 0;
    while (sched.tryPop(0, t))
        ++popped;
    EXPECT_EQ(popped, 9u);
    EXPECT_EQ(sched.reclaimedTasks(), 9u);
}

TEST(Reclaim, DrainsAStragglersActiveBag)
{
    HdCpsConfig config = HdCpsScheduler::configSrqTdfAc();
    config.tdf = 100;
    HdCpsScheduler sched(2, config);
    sched.setReclaimAfterMs(20);
    // Four equal-priority children form one bag shipped to worker 1.
    std::vector<Task> batch;
    for (uint32_t i = 0; i < 4; ++i)
        batch.push_back(Task{7, i, 0});
    sched.pushBatch(0, batch.data(), batch.size());
    ASSERT_EQ(sched.bagsCreated(), 1u);

    // Worker 1 starts the bag (binding it to the core) then stalls.
    Task t;
    ASSERT_TRUE(sched.tryPop(1, t));

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    unsigned popped = 0;
    while (sched.tryPop(0, t))
        ++popped;
    EXPECT_EQ(popped, 3u); // the bag's unserved remainder
    EXPECT_EQ(sched.reclaimedTasks(), 3u);
}

TEST(Reclaim, PrefersSameNodeVictimsOnHierarchicalTopologies)
{
    // Two stale stragglers, one per node of a synthetic 2x2 box:
    // worker 0 (node 0, same node as the reclaimer) and worker 2
    // (node 1). Reclaimed tasks land in the reclaimer's private PQ, so
    // the scan must drain the same-node straggler and stop there — the
    // old flat modular scan from tid 1 visited worker 2 first and
    // pulled node 1's stranded work across the socket while node 0's
    // sat one hop away.
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100;        // every push leaves the pusher...
    config.crossNodePct = 0; // ...toward its only same-node peer
    config.topology = Topology::synthetic(2, 2);
    config.seed = 43;
    HdCpsScheduler sched(4, config);
    sched.setReclaimAfterMs(20);
    for (uint32_t i = 0; i < 5; ++i)
        sched.push(1, Task{uint64_t(i), i, 0}); // lands at worker 0
    for (uint32_t i = 0; i < 5; ++i)
        sched.push(3, Task{uint64_t(100 + i), 100 + i, 0}); // worker 2
    ASSERT_EQ(sched.sizeApprox(), 10u);

    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    // Exactly five pops: the first triggers one reclaim pass (which
    // must take worker 0's five tasks and leave worker 2 alone), the
    // rest drain the reclaimer's PQ without a further pass.
    Task t;
    for (unsigned i = 0; i < 5; ++i) {
        ASSERT_TRUE(sched.tryPop(1, t)) << i;
        EXPECT_LT(t.priority, 100u)
            << "drained a cross-node victim while a same-node "
               "straggler still had work";
    }
    EXPECT_EQ(sched.reclaimedTasks(), 5u);
    EXPECT_EQ(sched.sizeApprox(), 5u); // node 1's work left in place
}

TEST(HdCpsScheduler, PushBatchTasksAreVisibleOnReturn)
{
    // Scheduler contract: once pushBatch returns, every task sits in a
    // queue that sizeApprox sees, and any worker can pop the full batch
    // (here via reclamation, since worker 1 owns all the transferred
    // work).
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100;
    config.seed = 21;
    HdCpsScheduler sched(2, config);
    sched.setReclaimAfterMs(20);
    std::vector<Task> batch;
    for (uint32_t i = 0; i < 40; ++i)
        batch.push_back(Task{uint64_t(i % 3), i, 0});
    sched.pushBatch(0, batch.data(), batch.size());
    EXPECT_EQ(sched.sizeApprox(), 40u);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    Task t;
    unsigned popped = 0;
    while (sched.tryPop(0, t))
        ++popped;
    EXPECT_EQ(popped, 40u) << "reclaim must find every transferred task";
}

// ------------------------------------------- batched transfer + pool

TEST(BagPool, PlaceSlotPrewarmsFreeListWithoutCountingAllocations)
{
    BagPool pool(2);
    pool.placeSlot(0, 1);
    EXPECT_EQ(pool.prewarmed(), 1u);
    EXPECT_EQ(pool.allocations(), 0u); // placement != demand miss
    bool recycled = false;
    Bag *bag = pool.acquire(0, &recycled);
    EXPECT_TRUE(recycled) << "acquire must serve the placed envelope";
    EXPECT_EQ(pool.allocations(), 0u);
    // The cross-thread Treiber return path covers placed nodes too:
    // return from worker 1's context, reacquire at the home slot.
    pool.release(1, bag);
    Bag *again = pool.acquire(0, &recycled);
    EXPECT_TRUE(recycled);
    EXPECT_EQ(again, bag);
    pool.release(0, again);
}

TEST(BagPool, RecyclesAndKeepsCapacitySingleThread)
{
    BagPool pool(1);
    bool recycled = true;
    Bag *bag = pool.acquire(0, &recycled);
    EXPECT_FALSE(recycled);
    bag->tasks.assign(50, Task{1, 2, 0});
    pool.release(0, bag);
    Bag *again = pool.acquire(0, &recycled);
    EXPECT_TRUE(recycled);
    EXPECT_EQ(again, bag) << "free list should hand back the same node";
    EXPECT_TRUE(again->tasks.empty());
    EXPECT_GE(again->tasks.capacity(), 50u) << "capacity must survive";
    pool.release(0, again);
    EXPECT_EQ(pool.allocations(), 1u);
    EXPECT_EQ(pool.recycled(), 1u);
}

TEST(BagPool, RecycleUnderContention)
{
    // All threads concurrently CAS-return home-0 bags onto one return
    // stack while every worker churns acquire/release on its own free
    // list. Steady-state churn must be allocation-free.
    constexpr unsigned kThreads = 4;
    constexpr int kIters = 20000;
    BagPool pool(kThreads);
    std::vector<std::vector<Bag *>> handoff(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        for (int i = 0; i < 8; ++i)
            handoff[t].push_back(pool.acquire(0));
    }
    const uint64_t preAllocs = pool.allocations();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&pool, &handoff, t] {
            for (Bag *bag : handoff[t])
                pool.release(t, bag); // cross-thread return path
            for (int i = 0; i < kIters; ++i) {
                Bag *bag = pool.acquire(t);
                bag->priority = t;
                bag->tasks.push_back(Task{t, uint32_t(i), 0});
                pool.release(t, bag);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_LE(pool.allocations(), preAllocs + kThreads)
        << "steady-state churn must not hit the allocator";
    EXPECT_GE(pool.recycled(), uint64_t(kThreads) * (kIters - 1));
}

TEST(HdCpsScheduler, BatchedTransferConserves)
{
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100; // every task crosses to a remote sRQ
    config.bags.mode = BagMode::Selective;
    config.seed = 13;
    HdCpsScheduler sched(4, config);
    std::vector<Task> batch;
    for (uint32_t i = 0; i < 64; ++i)
        batch.push_back(Task{uint64_t(i % 5), i, 0});
    sched.pushBatch(0, batch.data(), batch.size());
    // Every task is poppable once pushBatch returns, exactly once.
    std::set<uint32_t> seen;
    Task t;
    for (unsigned tid = 0; tid < 4; ++tid) {
        while (sched.tryPop(tid, t))
            EXPECT_TRUE(seen.insert(t.node).second) << "duplicate task";
    }
    EXPECT_EQ(seen.size(), 64u);
}

TEST(HdCpsScheduler, BatchedTransferSpillsWhenDestinationIsFull)
{
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.rqCapacity = 8; // the ring fills, then sends spill
    config.tdf = 100;
    config.seed = 17;
    HdCpsScheduler sched(2, config);
    std::vector<Task> batch;
    for (uint32_t i = 0; i < 100; ++i)
        batch.push_back(Task{uint64_t(i), i, 0});
    sched.pushBatch(0, batch.data(), batch.size());
    EXPECT_GT(sched.overflowPushes(), 0u);
    std::set<uint32_t> seen;
    Task t;
    while (sched.tryPop(1, t))
        EXPECT_TRUE(seen.insert(t.node).second) << "duplicate task";
    while (sched.tryPop(0, t))
        EXPECT_TRUE(seen.insert(t.node).second) << "duplicate task";
    EXPECT_EQ(seen.size(), 100u);
}

TEST(HdCpsScheduler, BagPoolRecyclesEnvelopesAcrossRounds)
{
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 0; // local: the same worker pushes and pops
    config.bags.mode = BagMode::Selective;
    HdCpsScheduler sched(1, config);
    std::vector<Task> batch;
    for (uint32_t i = 0; i < 5; ++i)
        batch.push_back(Task{3, i, 0}); // one bag per round (5 in [3,10))
    Task t;
    for (int round = 0; round < 10; ++round) {
        sched.pushBatch(0, batch.data(), batch.size());
        int popped = 0;
        while (sched.tryPop(0, t))
            ++popped;
        ASSERT_EQ(popped, 5);
    }
    EXPECT_EQ(sched.bagsCreated(), 10u);
    EXPECT_LE(sched.poolAllocations(), 1u)
        << "after warmup every bag envelope must come from the pool";
    EXPECT_GE(sched.poolRecycled(), 9u);
}

// ------------------------------------------- hierarchical routing

TEST(HierarchicalRouting, NodeAssignmentMatchesTopologyBlocks)
{
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.topology = Topology::synthetic(2, 4);
    HdCpsScheduler sched(8, config);
    for (unsigned tid = 0; tid < 8; ++tid) {
        EXPECT_EQ(sched.nodeOfWorker(tid),
                  config.topology.nodeOfWorker(tid, 8));
        EXPECT_EQ(sched.nodeOfWorker(tid), tid < 4 ? 0u : 1u);
    }
}

TEST(HierarchicalRouting, FlatTopologyNeverCountsNodeTraffic)
{
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100; // every push is remote
    config.seed = 31;
    HdCpsScheduler sched(8, config); // default topology: flat
    for (uint32_t i = 0; i < 2000; ++i)
        sched.push(0, Task{uint64_t(i), i, 0});
    EXPECT_EQ(sched.crossNodeEnqueues() + sched.sameNodeEnqueues(), 0u)
        << "node-locality counters are a hierarchical-mode concept";
    for (unsigned tid = 0; tid < 8; ++tid)
        EXPECT_EQ(sched.nodeOfWorker(tid), 0u);
}

TEST(HierarchicalRouting, ChooseDestLocalityTracksCrossNodePct)
{
    // With tdf = 100 every push leaves the pusher, so the
    // same/cross-node counters record exactly one pick per push and
    // their split must track the configured crossNodePct: 0 and 100
    // are exact (the cross-node roll is a strict comparison), 25 is
    // statistical (20000 draws, so +-0.02 is ~6 standard deviations).
    const struct {
        unsigned crossPct;
        double lo, hi;
    } kCases[] = {{0, 0.0, 0.0}, {25, 0.23, 0.27}, {100, 1.0, 1.0}};
    for (const auto &c : kCases) {
        HdCpsConfig config = HdCpsScheduler::configSrq();
        config.tdf = 100;
        config.topology = Topology::synthetic(2, 4);
        config.crossNodePct = c.crossPct;
        config.seed = 37;
        HdCpsScheduler sched(8, config);
        constexpr uint32_t kPushes = 20000;
        for (uint32_t i = 0; i < kPushes; ++i)
            sched.push(0, Task{uint64_t(i), i, 0});
        const uint64_t cross = sched.crossNodeEnqueues();
        const uint64_t same = sched.sameNodeEnqueues();
        ASSERT_EQ(cross + same, uint64_t(kPushes))
            << "crossNodePct=" << c.crossPct;
        const double frac = double(cross) / double(kPushes);
        EXPECT_GE(frac, c.lo) << "crossNodePct=" << c.crossPct;
        EXPECT_LE(frac, c.hi) << "crossNodePct=" << c.crossPct;
    }
}

TEST(HierarchicalRouting, FollowTdfSentinelTiesCrossTrafficToDrift)
{
    // Default crossNodePct (kCrossNodeFollowTdf) reuses the live TDF
    // as the cross-node percentage: at a pinned TDF of 60, 60% of the
    // 20000 pushes go remote and 60% of those cross nodes.
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 60;
    config.topology = Topology::synthetic(2, 4);
    config.seed = 41;
    ASSERT_EQ(config.crossNodePct, kCrossNodeFollowTdf);
    HdCpsScheduler sched(8, config);
    constexpr uint32_t kPushes = 20000;
    for (uint32_t i = 0; i < kPushes; ++i)
        sched.push(0, Task{uint64_t(i), i, 0});
    const uint64_t cross = sched.crossNodeEnqueues();
    const uint64_t same = sched.sameNodeEnqueues();
    const double remoteFrac = double(cross + same) / double(kPushes);
    EXPECT_NEAR(remoteFrac, 0.60, 0.02);
    const double crossFrac = double(cross) / double(cross + same);
    EXPECT_NEAR(crossFrac, 0.60, 0.02);
}

// -------------------------------------------- metrics attribution

const MetricsSnapshot::Counter *
counterByName(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &c : snap.counters) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

TEST(MetricsAttribution, OverflowSpillCountsOnActingWorker)
{
    // The overflow spill happens on the *sender's* thread; the
    // registry's per-worker numbers must say "who spilled", not "who
    // was spilled onto" (and single-writer state must stay with the
    // acting thread).
    MetricsRegistry metrics(2);
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100;
    config.seed = 11;
    HdCpsScheduler sched(2, config);
    sched.attachMetrics(&metrics);
    ScopedFaultInjection faults;
    faults->arm(faultsite::SrqPushFull, FaultMode::EveryNth, 1);
    for (uint32_t i = 0; i < 50; ++i)
        sched.push(1, Task{uint64_t(i), i, 0}); // worker 1 is acting
    MetricsSnapshot snap = metrics.snapshot();
    const auto *overflow = counterByName(snap, "overflow_pushes");
    ASSERT_NE(overflow, nullptr);
    EXPECT_EQ(overflow->perWorker[1], 50u);
    EXPECT_EQ(overflow->perWorker[0], 0u)
        << "spills must not be attributed to the destination";
    const auto *remote = counterByName(snap, "remote_enqueues");
    ASSERT_NE(remote, nullptr);
    EXPECT_EQ(remote->perWorker[1], 50u);
}

TEST(MetricsAttribution, CrossThreadTrafficKeepsRegistryRaceFree)
{
    // TSan regression guard: one thread drives worker 0 (pushing
    // remote-only traffic that frequently spills) while another drives
    // worker 1 (popping, which samples the per-worker series). Every
    // scheduler metrics call must act on the calling worker's slot —
    // any call-site that touches another worker's single-writer state
    // (time series, tick pacer) from this cross-traffic is a data race
    // the sanitizer build reports.
    MetricsRegistry::Config mconfig;
    mconfig.seriesCapacity = 64;
    mconfig.sampleInterval = 4;
    MetricsRegistry metrics(2, mconfig);
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100;
    config.rqCapacity = 16; // frequent spills under load
    config.sampleInterval = 8;
    config.seed = 19;
    HdCpsScheduler sched(2, config);
    sched.attachMetrics(&metrics);
    constexpr uint32_t kTasks = 20000;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> popped{0};
    std::thread popper([&] {
        Task t;
        while (!stop.load(std::memory_order_relaxed)) {
            if (sched.tryPop(1, t))
                popped.fetch_add(1, std::memory_order_relaxed);
        }
        while (sched.tryPop(1, t))
            popped.fetch_add(1, std::memory_order_relaxed);
    });
    for (uint32_t i = 0; i < kTasks; ++i)
        sched.push(0, Task{uint64_t(i % 7), i, 0});
    stop.store(true, std::memory_order_relaxed);
    popper.join();
    EXPECT_EQ(popped.load(), kTasks);
    MetricsSnapshot snap = metrics.snapshot();
    const auto *overflow = counterByName(snap, "overflow_pushes");
    ASSERT_NE(overflow, nullptr);
    EXPECT_EQ(overflow->perWorker[1], 0u)
        << "only worker 0 pushed, so only worker 0 may spill";
}

} // namespace
} // namespace hdcps
