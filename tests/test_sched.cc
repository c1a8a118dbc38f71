/**
 * @file
 * Concurrency tests for every threaded CPS design plus the executor.
 *
 * The load-bearing invariant for a scheduler is *no task loss and no
 * duplication*: every pushed task comes back from tryPop exactly once,
 * under concurrent pushers and poppers. The executor tests check
 * termination detection and the breakdown/drift bookkeeping on
 * synthetic task trees with known sizes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/designs.h"
#include "core/hdcps.h"
#include "cps/multiqueue.h"
#include "cps/obim.h"
#include "cps/pmod.h"
#include "cps/reld.h"
#include "cps/swminnow.h"
#include "cps/verifying_scheduler.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "support/rng.h"
#include "support/timer.h"

namespace hdcps {
namespace {

/** Every registered design, plus multiqueue-s1: stickiness 1 with
 *  single-op buffers, the classic fully-random MultiQueue degenerate
 *  configuration (this matrix checks no rank bound). */
std::vector<DesignEntry>
allSchedulers()
{
    std::vector<DesignEntry> cases(threadedDesigns().begin(),
                                   threadedDesigns().end());
    cases.push_back({"multiqueue-s1", 0,
                     [](unsigned n, const DesignParams &)
                         -> std::unique_ptr<Scheduler> {
                         MultiQueueConfig config;
                         config.stickiness = 1;
                         config.insertionBufferCap = 1;
                         config.deletionBufferCap = 1;
                         config.seed = 5;
                         return std::make_unique<MultiQueueScheduler>(
                             n, config);
                     }});
    return cases;
}

class SchedulerMatrix : public testing::TestWithParam<size_t>
{
  protected:
    DesignEntry scase() const { return allSchedulers()[GetParam()]; }
};

TEST_P(SchedulerMatrix, SingleThreadConservation)
{
    auto sched = scase().make(1, {});
    Rng rng(4);
    constexpr int count = 2000;
    long long pushedSum = 0;
    for (int i = 0; i < count; ++i) {
        uint64_t pri = rng.below(100);
        pushedSum += static_cast<long long>(pri);
        sched->push(0, Task{pri, uint32_t(i), 0});
    }
    long long poppedSum = 0;
    int popped = 0;
    Task t;
    while (sched->tryPop(0, t)) {
        poppedSum += static_cast<long long>(t.priority);
        ++popped;
    }
    EXPECT_EQ(popped, count) << scase().name;
    EXPECT_EQ(poppedSum, pushedSum) << scase().name;
}

TEST_P(SchedulerMatrix, ConcurrentExactlyOnce)
{
    constexpr unsigned workers = 4;
    constexpr uint32_t perWorker = 4000;
    auto sched = scase().make(workers, {});

    std::vector<std::atomic<uint32_t>> seen(workers * perWorker);
    for (auto &s : seen)
        s.store(0);
    std::atomic<uint64_t> totalPopped{0};
    std::atomic<bool> stopPopping{false};

    auto body = [&](unsigned tid) {
        // Each worker pushes its share, then keeps popping.
        for (uint32_t i = 0; i < perWorker; ++i) {
            uint32_t id = tid * perWorker + i;
            sched->push(tid, Task{uint64_t(id % 97), id, 0});
        }
        Task t;
        while (!stopPopping.load(std::memory_order_acquire)) {
            if (sched->tryPop(tid, t)) {
                ASSERT_LT(t.node, seen.size());
                uint32_t prev = seen[t.node].fetch_add(1);
                ASSERT_EQ(prev, 0u)
                    << scase().name << ": duplicate pop of " << t.node;
                totalPopped.fetch_add(1);
            } else if (totalPopped.load() >= workers * perWorker) {
                break;
            }
        }
    };

    std::vector<std::thread> threads;
    for (unsigned tid = 0; tid < workers; ++tid)
        threads.emplace_back(body, tid);
    for (auto &t : threads)
        t.join();
    stopPopping.store(true);

    EXPECT_EQ(totalPopped.load(), uint64_t(workers) * perWorker)
        << scase().name;
    for (size_t i = 0; i < seen.size(); ++i)
        ASSERT_EQ(seen[i].load(), 1u) << scase().name << " task " << i;
}

TEST_P(SchedulerMatrix, RoughPriorityOrderWhenQuiescent)
{
    // Relaxed schedulers make no strict promise, but a fully quiescent
    // single worker must still see a strong bias toward high-priority
    // (low-value) tasks soon after pushing everything. "Soon" rather
    // than "first": swminnow's helper thread stages up to a ring's
    // worth of tasks *while* the pushes are still arriving, so its
    // first pops can predate the best pushes (timing-dependent — the
    // sanitizer builds shift it). The best priority seen in the first
    // 100 pops must still come from the best bucket region.
    auto sched = scase().make(1, {});
    for (uint32_t i = 0; i < 1000; ++i)
        sched->push(0, Task{uint64_t(1000 - i), i, 0});
    Priority bestSeen = ~Priority(0);
    Task t;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(sched->tryPop(0, t)) << scase().name;
        if (t.priority < bestSeen)
            bestSeen = t.priority;
    }
    EXPECT_LT(bestSeen, 200u) << scase().name;
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, SchedulerMatrix,
                         testing::Range<size_t>(0, allSchedulers().size()),
                         [](const testing::TestParamInfo<size_t> &info) {
                             std::string name =
                                 allSchedulers()[info.param].name;
                             for (char &ch : name) {
                                 if (ch == '-')
                                     ch = '_';
                             }
                             return name;
                         });

// -------------------------------- swminnow helper-thread attribution

const MetricsSnapshot::Counter *
schedCounterByName(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &c : snap.counters) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

TEST(SwMinnow, SpillsDoNotDoubleCountEnqueues)
{
    // Regression: the minnow helper used to return ring-overflow tasks
    // to the bag map via push(w, ...), which re-counted each spilled
    // task as a fresh RemoteEnqueue (and possibly a fresh BagsCreated)
    // on the serviced worker's slot. After pushing exactly N tasks, the
    // enqueue counter must read exactly N no matter how many times the
    // helper claimed and spilled them.
    SwMinnowScheduler::MinnowConfig config;
    config.numMinnows = 1;
    config.bufferCapacity = 2; // force spills: chunk >> ring
    config.prefetchChunk = 16;
    SwMinnowScheduler sched(1, config);
    MetricsRegistry metrics(1);
    sched.attachMetrics(&metrics);

    constexpr uint32_t kTasks = 64;
    for (uint32_t i = 0; i < kTasks; ++i)
        sched.push(0, Task{uint64_t(i % 8), i, 0});

    // The helper needs one claim/spill cycle: a 16-task chunk against a
    // 2-slot ring spills at least 14 tasks. But a helper that raced the
    // push phase may have staged the first tasks one at a time and
    // parked on its full ring, and a descheduled one may miss a short
    // backlog entirely. So hold a backlog in the map and keep freeing a
    // ring slot until a claim spills. Every push is counted; pops count
    // no enqueues.
    constexpr uint32_t kBacklog = 1024;
    uint32_t pushed = kTasks;
    uint32_t popped = 0;
    Task t;
    const uint64_t deadline = nowNs() + uint64_t(10e9);
    while (sched.spilledTasks() == 0 && nowNs() < deadline) {
        for (; pushed - popped < kBacklog; ++pushed)
            sched.push(0, Task{uint64_t(pushed % 8), pushed, 0});
        popped += sched.tryPop(0, t) ? 1 : 0;
        std::this_thread::yield();
    }
    ASSERT_GT(sched.spilledTasks(), 0u)
        << "helper never spilled; spill path not exercised";

    MetricsSnapshot snap = metrics.snapshot();
    const auto *remote = schedCounterByName(snap, "remote_enqueues");
    ASSERT_NE(remote, nullptr);
    EXPECT_EQ(remote->total, pushed)
        << "spill re-pushes must not be counted as new enqueues";
}

TEST(SwMinnow, HelperSpillRespectsSingleWriterContract)
{
    // Regression: push(w, ...) from the helper also *wrote worker w's
    // registry slot from the minnow thread*, racing the worker's own
    // series/tick writes. With the single-writer checker armed and both
    // workers busy popping while the helper spills against tiny rings,
    // a cross-thread write shows up as a violation.
    // The overlap the checker hunts is a timing window: a worker
    // preempted mid-write while the helper spill-bursts into its slot.
    // A sustained backlog keeps the helper claiming/spilling for the
    // whole drain, which makes the buggy interleaving near-certain per
    // round even on a single hardware thread.
    for (int round = 0; round < 2; ++round) {
        SwMinnowScheduler::MinnowConfig config;
        config.numMinnows = 1;
        config.bufferCapacity = 2;
        config.prefetchChunk = 32;
        SwMinnowScheduler sched(2, config);
        MetricsRegistry::Config mconfig;
        mconfig.checkSingleWriter = true;
        mconfig.sampleInterval = 1; // slot-write on every pop
        MetricsRegistry metrics(2, mconfig);
        sched.attachMetrics(&metrics);

        constexpr uint64_t kTasks = 300000;
        std::atomic<uint64_t> popped{0};
        auto body = [&](unsigned tid) {
            if (tid == 0) {
                for (uint32_t i = 0; i < kTasks; ++i)
                    sched.push(0, Task{uint64_t(i % 64), i, 0});
            }
            Task t;
            const uint64_t deadline = nowNs() + uint64_t(20e9);
            while (popped.load(std::memory_order_acquire) < kTasks &&
                   nowNs() < deadline) {
                if (sched.tryPop(tid, t))
                    popped.fetch_add(1, std::memory_order_acq_rel);
            }
        };
        std::thread w0(body, 0);
        std::thread w1(body, 1);
        w0.join();
        w1.join();

        EXPECT_EQ(popped.load(), kTasks)
            << "task loss or stranded staging";
        ASSERT_EQ(metrics.writerViolations(), 0u)
            << "round " << round << ": "
            << (metrics.writerViolationSamples().empty()
                    ? std::string()
                    : metrics.writerViolationSamples()[0]);
    }
}

// ------------------------------------------- multiqueue regressions

TEST(MultiQueue, WorkerRngStreamsAreIndependent)
{
    // Regression: worker RNGs were seeded mix64(seed + c) + i, handing
    // adjacent workers xoshiro states that differ by 1 in one word —
    // correlated queue choices defeat the power-of-two-choices load
    // balance. The fix mixes the worker index into the seed word, so
    // every stream must be disjoint from every other from the start.
    constexpr unsigned kWorkers = 16;
    constexpr unsigned kDraws = 64;
    std::set<uint64_t> outputs;
    for (unsigned w = 0; w < kWorkers; ++w) {
        uint64_t streamSeed = MultiQueueScheduler::workerStreamSeed(1, w);
        Rng rng(streamSeed);
        for (unsigned d = 0; d < kDraws; ++d)
            outputs.insert(rng.next());
    }
    // Any overlap between two 64-draw prefixes of 64-bit streams is a
    // correlation signature, not a coincidence.
    EXPECT_EQ(outputs.size(), size_t(kWorkers) * kDraws);

    // The seed words themselves must also be pairwise distinct.
    std::set<uint64_t> seeds;
    for (unsigned w = 0; w < kWorkers; ++w)
        seeds.insert(MultiQueueScheduler::workerStreamSeed(7, w));
    EXPECT_EQ(seeds.size(), size_t(kWorkers));
}

TEST(MultiQueue, ExternalTidPushesAndPopsAreBoundChecked)
{
    // Regression: push() indexed workers_[tid] unchecked, so a seeding
    // or driver thread using tid >= numWorkers read out of bounds. Such
    // pushes now take the external path; the tasks must still be
    // conserved and poppable by real workers (and by external tids).
    MultiQueueScheduler sched(2, MultiQueueConfig{.seed = 9});
    constexpr uint32_t kTasks = 500;
    for (uint32_t i = 0; i < kTasks; ++i)
        sched.push(/*tid=*/7, Task{uint64_t(i % 31), i, 0});
    EXPECT_EQ(sched.sizeApprox(), size_t(kTasks));

    Task t;
    uint32_t popped = 0;
    ASSERT_TRUE(sched.tryPop(/*tid=*/9, t)); // external pop path
    ++popped;
    while (sched.tryPop(0, t) || sched.tryPop(1, t))
        ++popped;
    EXPECT_EQ(popped, kTasks);
    EXPECT_EQ(sched.sizeApprox(), 0u);
}

TEST(MultiQueue, AttributionMatchesQueueOwnership)
{
    // Regression: local/remote attribution assumed a worker-blocked
    // queue layout the constructor never established. Now the layout is
    // explicit (queue q belongs to worker q / c), so: every push is
    // counted exactly once, a single-worker scheduler owns all queues
    // (all enqueues local), and with several workers a worker's sticky
    // draws must hit both own and foreign queues.
    {
        MultiQueueScheduler sched(1, MultiQueueConfig{.seed = 3});
        MetricsRegistry metrics(1);
        sched.attachMetrics(&metrics);
        constexpr uint32_t kTasks = 200;
        for (uint32_t i = 0; i < kTasks; ++i)
            sched.push(0, Task{uint64_t(i), i, 0});
        MetricsSnapshot snap = metrics.snapshot();
        const auto *local = schedCounterByName(snap, "local_enqueues");
        const auto *remote = schedCounterByName(snap, "remote_enqueues");
        ASSERT_NE(local, nullptr);
        EXPECT_EQ(local->total, kTasks)
            << "sole worker owns every queue; nothing can be remote";
        EXPECT_EQ(remote == nullptr ? 0 : remote->total, 0u);
    }
    {
        constexpr unsigned kWorkers = 4;
        MultiQueueScheduler sched(kWorkers, MultiQueueConfig{.seed = 3});
        MetricsRegistry metrics(kWorkers);
        sched.attachMetrics(&metrics);
        constexpr uint32_t kTasks = 2000;
        for (uint32_t i = 0; i < kTasks; ++i)
            sched.push(i % kWorkers, Task{uint64_t(i), i, 0});
        MetricsSnapshot snap = metrics.snapshot();
        const auto *local = schedCounterByName(snap, "local_enqueues");
        const auto *remote = schedCounterByName(snap, "remote_enqueues");
        ASSERT_NE(local, nullptr);
        ASSERT_NE(remote, nullptr);
        EXPECT_EQ(local->total + remote->total, kTasks)
            << "every push attributed exactly once";
        // 2000 sticky draws over 1/4 own vs 3/4 foreign queues: both
        // sides must be populated for the split to mean anything.
        EXPECT_GT(local->total, 0u);
        EXPECT_GT(remote->total, 0u);
    }
}

TEST(MultiQueue, QuiescentDrainServesBufferedTasks)
{
    // Worker-private insertion/deletion buffers must never strand
    // tasks: after any push sequence, the pushing worker can always
    // drain everything it staged, including the tail that never
    // reached a shared queue.
    MultiQueueConfig config;
    config.stickiness = 8;
    config.insertionBufferCap = 16;
    config.seed = 11;
    MultiQueueScheduler sched(1, config);
    // 21 pushes: the last 5 stay staged in the insertion buffer.
    for (uint32_t i = 0; i < 21; ++i)
        sched.push(0, Task{uint64_t(100 - i), i, 0});
    Task t;
    uint32_t popped = 0;
    while (sched.tryPop(0, t))
        ++popped;
    EXPECT_EQ(popped, 21u);
}

// ------------------------------------------------------------- executor

/** Synthetic workload: a complete task tree of known size. */
ProcessFn
treeWorkload(unsigned fanout, unsigned depth)
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

uint64_t
treeSize(unsigned fanout, unsigned depth)
{
    uint64_t total = 0;
    uint64_t level = 1;
    for (unsigned d = 0; d <= depth; ++d) {
        total += level;
        level *= fanout;
    }
    return total;
}

TEST(Executor, ProcessesWholeTreeSingleThread)
{
    ReldScheduler sched(1, 1);
    RunOptions options;
    options.numThreads = 1;
    RunResult result = run(sched, {Task{0, 0, 0}}, treeWorkload(3, 6),
                           options);
    EXPECT_EQ(result.total.tasksProcessed, treeSize(3, 6));
    EXPECT_GT(result.wallNs, 0u);
}

TEST(Executor, ProcessesWholeTreeMultiThread)
{
    constexpr unsigned threads = 4;
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    RunOptions options;
    options.numThreads = threads;
    RunResult result = run(sched, {Task{0, 0, 0}}, treeWorkload(3, 7),
                           options);
    EXPECT_EQ(result.total.tasksProcessed, treeSize(3, 7));
    EXPECT_EQ(result.perWorker.size(), threads);
}

/**
 * One FIFO per worker: a task goes to worker `node % n`'s FIFO, and
 * only that worker pops it. pushBatch sleeps 50 ms between tasks, so
 * its owner can pop and complete a batch's first task before the rest
 * arrive.
 */
class SlowBatchScheduler : public Scheduler
{
  public:
    explicit SlowBatchScheduler(unsigned numWorkers)
        : Scheduler(numWorkers), queues_(numWorkers)
    {}

    void
    push(unsigned, const Task &task) override
    {
        Queue &q = queues_[task.node % numWorkers()];
        std::lock_guard<std::mutex> lock(q.mutex);
        q.tasks.push_back(task);
    }

    void
    pushBatch(unsigned tid, const Task *tasks, size_t count) override
    {
        for (size_t i = 0; i < count; ++i) {
            if (i > 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            push(tid, tasks[i]);
        }
    }

    bool
    tryPop(unsigned tid, Task &out) override
    {
        Queue &q = queues_[tid];
        std::lock_guard<std::mutex> lock(q.mutex);
        if (q.tasks.empty())
            return false;
        out = q.tasks.front();
        q.tasks.pop_front();
        return true;
    }

    const char *name() const override { return "slow-batch"; }

  private:
    struct Queue
    {
        std::mutex mutex;
        std::deque<Task> tasks;
    };
    std::vector<Queue> queues_;
};

TEST(Executor, ChildrenCountCreatedBeforeTheyArePoppable)
{
    // Worker 0 pops the seed, whose two children go to worker 1; the
    // second arrives 50 ms after the first. Worker 1 completes the
    // first child meanwhile, and its quiescence scan must still count
    // the second: run() counts a task's children created before the
    // push that makes them poppable. Counted after it, the scan would
    // balance, worker 1 would leave, and the second child would strand
    // in its queue until the watchdog failed the run.
    SlowBatchScheduler sched(2);
    std::atomic<uint64_t> processed{0};
    ProcessFn process = [&processed](unsigned, const Task &task,
                                     std::vector<Task> &children) {
        processed.fetch_add(1, std::memory_order_relaxed);
        if (task.data > 0) {
            children.push_back(Task{1, 1, 0});
            children.push_back(Task{1, 3, 0});
        }
    };
    RunOptions options;
    options.numThreads = 2;
    options.watchdogMs = 1000;
    RunResult r = run(sched, {Task{0, 0, 1}}, process, options);
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(processed.load(), 3u);
}

TEST(Executor, MultipleInitialTasks)
{
    ObimScheduler sched(2);
    RunOptions options;
    options.numThreads = 2;
    std::vector<Task> initial;
    for (uint32_t i = 0; i < 64; ++i)
        initial.push_back(Task{i, i, 0});
    RunResult result = run(sched, initial, treeWorkload(2, 3), options);
    EXPECT_EQ(result.total.tasksProcessed, 64 * treeSize(2, 3));
}

TEST(Executor, EmptyInitialTerminatesImmediately)
{
    ReldScheduler sched(2, 1);
    RunOptions options;
    options.numThreads = 2;
    RunResult result = run(sched, {}, treeWorkload(2, 2), options);
    EXPECT_EQ(result.total.tasksProcessed, 0u);
}

TEST(Executor, BreakdownComponentsPopulated)
{
    PmodScheduler sched(2);
    RunOptions options;
    options.numThreads = 2;
    options.recordBreakdown = true;
    RunResult result = run(sched, {Task{0, 0, 0}}, treeWorkload(4, 6),
                           options);
    EXPECT_GT(result.total[Component::Dequeue], 0u);
    EXPECT_GT(result.total[Component::Compute], 0u);
    EXPECT_GT(result.total[Component::Enqueue], 0u);
}

TEST(Executor, BreakdownOffByDefault)
{
    ReldScheduler sched(1, 1);
    RunOptions options;
    options.numThreads = 1;
    RunResult result = run(sched, {Task{0, 0, 0}}, treeWorkload(2, 4),
                           options);
    EXPECT_EQ(result.total.total(), 0u);
    EXPECT_EQ(result.total.tasksProcessed, treeSize(2, 4));
}

TEST(Executor, DriftSamplesCollectedOnLongRuns)
{
    ReldScheduler sched(2, 1);
    RunOptions options;
    options.numThreads = 2;
    options.driftSampleInterval = 50;
    RunResult result = run(sched, {Task{0, 0, 0}}, treeWorkload(3, 8),
                           options);
    EXPECT_GT(result.driftSamples, 0u);
    EXPECT_GE(result.maxDrift, result.avgDrift);
}

TEST(Executor, EmptyTasksCounted)
{
    ReldScheduler sched(1, 1);
    RunOptions options;
    options.numThreads = 1;
    // Leaves produce no children, so the leaf count must show up.
    RunResult result = run(sched, {Task{0, 0, 0}}, treeWorkload(2, 3),
                           options);
    EXPECT_EQ(result.total.emptyTasks, 8u); // 2^3 leaves
}

TEST(Executor, HdCpsTdfEngagesOnLargeRuns)
{
    constexpr unsigned threads = 3;
    HdCpsConfig config = HdCpsScheduler::configSw();
    config.sampleInterval = 100; // sample often enough for the test
    HdCpsScheduler sched(threads, config);
    RunOptions options;
    options.numThreads = threads;
    RunResult result = run(sched, {Task{0, 0, 0}}, treeWorkload(3, 9),
                           options);
    EXPECT_EQ(result.total.tasksProcessed, treeSize(3, 9));
    // Every routing decision rolls against kHdCpsTdf: over the run's
    // ~10k decisions (one per 3-child bag) the remote share sits within
    // a few points of it (Algorithm 2 would start it at 50%).
    EXPECT_EQ(sched.currentTdf(), kHdCpsTdf);
    const double remote = double(sched.remoteEnqueues());
    const double share = remote / (remote + double(sched.localEnqueues()));
    EXPECT_GT(share, 0.5 * kHdCpsTdf / 100.0);
    EXPECT_LT(share, 2.0 * kHdCpsTdf / 100.0);
}

// ------------------------------------------- the verifying wrapper

TEST(VerifyingWrapper, CleanConcurrentRunPassesAllChecks)
{
    constexpr unsigned threads = 4;
    HdCpsScheduler inner(threads, HdCpsScheduler::configSw());
    VerifyingScheduler sched(inner);
    EXPECT_STREQ(sched.name(), "verifying(hdcps-srq-tdf-sc)");

    RunOptions options;
    options.numThreads = threads;
    RunResult result = run(sched, {Task{0, 0, 0}}, treeWorkload(3, 7),
                           options);
    ASSERT_TRUE(result.ok()) << result.error;

    VerifyingScheduler::Report report = sched.report();
    EXPECT_EQ(report.pushes, treeSize(3, 7));
    EXPECT_EQ(report.pops, report.pushes);
    EXPECT_EQ(report.violations, 0u);
    EXPECT_EQ(report.outstanding, 0u);
    std::string why;
    EXPECT_TRUE(sched.checkComplete(false, &why)) << why;
}

TEST(VerifyingWrapper, FlagsLossOnSuccessfulRunsOnly)
{
    // Pop fewer tasks than were pushed: loss on a "successful" run,
    // tolerated drain-out residue on a failed one.
    ReldScheduler inner(1, 1);
    VerifyingScheduler sched(inner);
    for (uint32_t i = 0; i < 5; ++i)
        sched.push(0, Task{i, i, 0});
    Task out;
    ASSERT_TRUE(sched.tryPop(0, out));
    ASSERT_TRUE(sched.tryPop(0, out));

    std::string why;
    EXPECT_FALSE(sched.checkComplete(false, &why));
    EXPECT_NE(why.find("never popped"), std::string::npos) << why;
    EXPECT_EQ(sched.report().outstanding, 3u);
    EXPECT_TRUE(sched.checkComplete(true)); // failed runs may strand
}

/** Returns every buffered task twice — the duplication bug on demand. */
class DuplicatingScheduler : public Scheduler
{
  public:
    explicit DuplicatingScheduler(unsigned n) : Scheduler(n) {}

    void push(unsigned, const Task &task) override
    {
        tasks_.push_back(task);
    }

    bool
    tryPop(unsigned, Task &out) override
    {
        if (next_ >= tasks_.size())
            return false;
        out = tasks_[next_];
        if (servedOnce_)
            ++next_;
        servedOnce_ = !servedOnce_;
        return true;
    }

    const char *name() const override { return "duplicating"; }

  private:
    std::vector<Task> tasks_;
    size_t next_ = 0;
    bool servedOnce_ = false;
};

TEST(VerifyingWrapper, FlagsDuplicatedPops)
{
    DuplicatingScheduler inner(1);
    VerifyingScheduler sched(inner);
    for (uint32_t i = 0; i < 3; ++i)
        sched.push(0, Task{i, i, 0});
    Task out;
    while (sched.tryPop(0, out)) {
    }
    VerifyingScheduler::Report report = sched.report();
    EXPECT_EQ(report.violations, 3u); // each task served twice
    EXPECT_FALSE(report.violationSamples.empty());
    std::string why;
    EXPECT_FALSE(sched.checkComplete(false, &why));
    EXPECT_NE(why.find("conservation violation"), std::string::npos)
        << why;
    // Duplication is a violation even on failed runs.
    EXPECT_FALSE(sched.checkComplete(true));
}

/** LIFO scheduler: pops the *newest* task — maximal priority inversion
 *  when pushes arrive best-first. */
class StackScheduler : public Scheduler
{
  public:
    explicit StackScheduler(unsigned n) : Scheduler(n) {}

    void push(unsigned, const Task &task) override
    {
        tasks_.push_back(task);
    }

    bool
    tryPop(unsigned, Task &out) override
    {
        if (tasks_.empty())
            return false;
        out = tasks_.back();
        tasks_.pop_back();
        return true;
    }

    const char *name() const override { return "stack"; }

  private:
    std::vector<Task> tasks_;
};

TEST(VerifyingWrapper, SamplesRankErrorOnInvertedOrder)
{
    StackScheduler inner(1);
    VerifyingScheduler::Config config;
    config.sampleInterval = 1; // sample every pop
    VerifyingScheduler sched(inner, config);
    for (uint32_t i = 0; i < 50; ++i)
        sched.push(0, Task{i, i, 0});
    Task out;
    ASSERT_TRUE(sched.tryPop(0, out));
    EXPECT_EQ(out.priority, 49u); // LIFO pops the worst task first

    VerifyingScheduler::Report report = sched.report();
    EXPECT_GE(report.rankSamples, 1u);
    // Priority 49 popped while 0 was pending: the gap must register.
    EXPECT_DOUBLE_EQ(report.maxRankError, 49.0);
    // Inversions are allowed by the contract — not violations.
    EXPECT_EQ(report.violations, 0u);
}

TEST(VerifyingWrapper, ForwardsReclaimKnobToInner)
{
    // The wrapper must pass the guard knob and the supervision hooks
    // through, or chaos runs would silently test the wrong
    // configuration.
    constexpr unsigned threads = 2;
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100; // all pushes go remote
    HdCpsScheduler inner(threads, config);
    VerifyingScheduler sched(inner);
    sched.setReclaimAfterMs(25);
    EXPECT_TRUE(inner.reclaimGuarded());
    // Worker 0 pushes remotely toward worker 1, which never pops; a
    // monitor quarantines worker 1 and reclaims through the wrapper.
    for (uint32_t i = 0; i < 10; ++i)
        sched.push(0, Task{i, i, 0});
    sched.quarantine(1);
    EXPECT_TRUE(inner.isQuarantined(1));
    EXPECT_EQ(sched.reclaimWorker(0, 1), 10u);
    sched.reinstate(1);
    EXPECT_FALSE(inner.isQuarantined(1));
    Task out;
    unsigned popped = 0;
    while (sched.tryPop(0, out))
        ++popped;
    EXPECT_EQ(popped, 10u);
    EXPECT_EQ(inner.reclaimedTasks(), 10u);
    EXPECT_TRUE(sched.checkComplete(false));
    sched.setReclaimAfterMs(0);
    EXPECT_FALSE(inner.reclaimGuarded());
}

} // namespace
} // namespace hdcps
