/**
 * @file
 * Stress and failure-injection tests: oversubscribed executors,
 * adversarial scheduler churn, tiny queue capacities, randomized task
 * trees, run()'s resident helper threads (reuse, concurrent and nested
 * runs, pinning, fork, late hand-off), and property checks on the
 * simulator's bounded-queueing models. These guard the invariants the
 * calibrated benchmarks rely on under conditions the happy-path tests
 * never reach.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "algos/workload.h"
#include "core/hdcps.h"
#include "cps/pmod.h"
#include "cps/reld.h"
#include "cps/verifying_scheduler.h"
#include "graph/generators.h"
#include "runtime/executor.h"
#include "sim/noc.h"
#include "simsched/common.h"
#include "simsched/runner.h"
#include "support/fault.h"
#include "support/rng.h"
#include "support/straggler.h"
#include "support/timer.h"

namespace hdcps {
namespace {

// ------------------------------------------------- threaded stress

/** Random task tree: every task spawns 0-4 children up to a budget. */
ProcessFn
randomTree(std::atomic<int64_t> &budget)
{
    return [&budget](unsigned tid, const Task &task,
                     std::vector<Task> &children) {
        Rng rng(task.node * 2654435761u + task.priority + tid);
        unsigned fanout = static_cast<unsigned>(rng.below(5));
        for (unsigned i = 0; i < fanout; ++i) {
            if (budget.fetch_sub(1, std::memory_order_relaxed) <= 0)
                return;
            children.push_back(Task{task.priority + rng.below(3),
                                    static_cast<uint32_t>(rng.next()),
                                    0});
        }
    };
}

TEST(Stress, OversubscribedExecutorTerminates)
{
    // 8 threads on however few host cores exist: forces heavy
    // preemption inside scheduler critical sections.
    constexpr unsigned threads = 8;
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    std::atomic<int64_t> budget{20000};
    RunOptions options;
    options.numThreads = threads;
    RunResult result =
        run(sched, {Task{0, 1, 0}}, randomTree(budget), options);
    EXPECT_GE(result.total.tasksProcessed, 1u);
    EXPECT_LE(result.total.tasksProcessed, 20002u);
}

TEST(Stress, TinyReceiveQueueForcesOverflowYetConserves)
{
    HdCpsConfig config = HdCpsScheduler::configSw();
    config.rqCapacity = 2;
    config.sampleInterval = 7;
    constexpr unsigned threads = 4;
    HdCpsScheduler sched(threads, config);
    std::atomic<int64_t> budget{30000};
    RunOptions options;
    options.numThreads = threads;
    RunResult result =
        run(sched, {Task{0, 1, 0}}, randomTree(budget), options);
    EXPECT_GT(result.total.tasksProcessed, 0u);
    // The overflow path must have been exercised by capacity 2.
    EXPECT_GT(sched.overflowPushes(), 0u);
}

TEST(Stress, ManySmallRunsReuseScheduler)
{
    // Scheduler-per-run construction/teardown under thread churn.
    for (int round = 0; round < 20; ++round) {
        PmodScheduler sched(3);
        std::atomic<int64_t> budget{500};
        RunOptions options;
        options.numThreads = 3;
        RunResult result = run(sched, {Task{0, uint32_t(round), 0}},
                               randomTree(budget), options);
        ASSERT_GE(result.total.tasksProcessed, 1u);
    }
}

TEST(Stress, WorkloadRunsTwiceAfterReset)
{
    Graph g = makeRoadGrid(12, 12, {.seed = 5});
    auto workload = makeWorkload("sssp", g, 0);
    for (int round = 0; round < 2; ++round) {
        workload->reset();
        ReldScheduler sched(2, uint64_t(round) + 1);
        RunOptions options;
        options.numThreads = 2;
        run(sched, workload->initialTasks(),
            workloadProcessFn(*workload), options);
        std::string why;
        ASSERT_TRUE(workload->verify(&why)) << why;
    }
}

TEST(Stress, MstHeavyContention)
{
    // Dense graph + many threads: exercises the merge retry and
    // global-mutex escalation paths.
    Graph g = makeUniformRandom(300, 4000, {.seed = 11});
    auto workload = makeWorkload("mst", g, 0);
    constexpr unsigned threads = 6;
    HdCpsScheduler sched(threads, HdCpsScheduler::configSrq());
    RunOptions options;
    options.numThreads = threads;
    run(sched, workload->initialTasks(), workloadProcessFn(*workload),
        options);
    std::string why;
    ASSERT_TRUE(workload->verify(&why)) << why;
}

// ----------------------------------------------- simulator properties

TEST(SimProperties, NocContentionIsBounded)
{
    SimConfig config;
    config.numCores = 16;
    config.meshWidth = 4;
    NocMesh noc(config);
    // Hammer one link from far-future and past callers alternately;
    // the wait each caller experiences must respect the cap.
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        Cycle depart = rng.below(1000000);
        Cycle arrival = noc.transfer(0, 1, 64 * 16, depart);
        Cycle pure = noc.uncontendedLatency(0, 1, 64 * 16);
        ASSERT_LE(arrival, depart + pure + NocMesh::maxLinkQueue);
        ASSERT_GE(arrival, depart + pure);
    }
}

TEST(SimProperties, SerialResourceWaitIsBounded)
{
    SerialResource r;
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        Cycle earliest = rng.below(1000000);
        Cycle cost = 1 + rng.below(100);
        Cycle done = r.acquire(earliest, cost);
        ASSERT_GE(done, earliest + cost);
        ASSERT_LE(done, earliest + SerialResource::maxWait + cost);
    }
}

class SeedSweep : public testing::TestWithParam<uint64_t>
{
};

TEST_P(SeedSweep, AllDesignsVerifyAcrossSeeds)
{
    SimConfig config;
    config.numCores = 8;
    config.meshWidth = 4;
    Graph g = makeRoadGrid(10, 10, {.seed = GetParam()});
    auto workload = makeWorkload("sssp", g, 0);
    for (const char *design :
         {"reld", "pmod", "hdcps-sw", "hdcps-hw", "swarm"}) {
        SimResult r = simulate(design, *workload, config, GetParam());
        ASSERT_TRUE(r.verified)
            << design << " seed " << GetParam() << ": "
            << r.verifyError;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         testing::Values(2, 3, 5, 8, 13, 21, 34));

class CoreCountSweep : public testing::TestWithParam<unsigned>
{
};

TEST_P(CoreCountSweep, HdCpsHwVerifiesAtAnyCoreCount)
{
    unsigned cores = GetParam();
    SimConfig config;
    config.numCores = cores;
    config.meshWidth = 1;
    for (unsigned w = 1; w <= cores; ++w) {
        if (cores % w == 0 && w * w <= cores)
            config.meshWidth = cores / w;
    }
    Graph g = makeRoadGrid(10, 10, {.seed = 2});
    auto workload = makeWorkload("bfs", g, 0);
    SimResult r = simulate("hdcps-hw", *workload, config, 1);
    ASSERT_TRUE(r.verified) << cores << " cores: " << r.verifyError;
    EXPECT_GT(r.completionCycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Cores, CoreCountSweep,
                         testing::Values(1, 2, 4, 8, 16, 32, 64));

TEST(SimProperties, MoreCoresNeverCatastrophicallyWorse)
{
    // Weak scaling sanity: 16 cores must beat 1 core by a real margin
    // on a parallel-friendly input.
    Graph g = makePaperInput("cage", 1, 3);
    auto workload = makeWorkload("bfs", g, 0);
    SimConfig one;
    one.numCores = 1;
    one.meshWidth = 1;
    SimConfig sixteen;
    sixteen.numCores = 16;
    sixteen.meshWidth = 4;
    Cycle c1 = simulate("hdcps-hw", *workload, one, 1).completionCycles;
    Cycle c16 =
        simulate("hdcps-hw", *workload, sixteen, 1).completionCycles;
    EXPECT_LT(c16 * 2, c1); // at least 2x from 16 cores
}

// ------------------------------- failure semantics and the watchdog

/** Steady binary tree: every task spawns two children until the
 *  budget runs out, so the frontier cannot die off randomly. */
ProcessFn
steadyTree(std::atomic<int64_t> &budget)
{
    return [&budget](unsigned, const Task &task,
                     std::vector<Task> &children) {
        for (uint32_t i = 0; i < 2; ++i) {
            if (budget.fetch_sub(1, std::memory_order_relaxed) <= 0)
                return;
            children.push_back(
                Task{task.priority + 1,
                     static_cast<uint32_t>(mix64(task.node + i + 1)), 0});
        }
    };
}

TEST(FailureSemantics, ThrowingProcessFnFailsTheRunGracefully)
{
    // The PR's acceptance drill: a ProcessFn that throws mid-run must
    // yield a failed RunResult — no std::terminate, no hang, every
    // thread joined (implied by run() returning at all).
    constexpr unsigned threads = 4;
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    std::atomic<int64_t> budget{1000000};
    std::atomic<uint64_t> processed{0};
    ProcessFn tree = steadyTree(budget);
    ProcessFn throwing = [&](unsigned tid, const Task &task,
                             std::vector<Task> &children) {
        if (processed.fetch_add(1, std::memory_order_relaxed) == 100)
            throw std::runtime_error("injected failure at task 100");
        tree(tid, task, children);
    };
    RunOptions options;
    options.numThreads = threads;
    RunResult result = run(sched, {Task{0, 1, 0}}, throwing, options);
    EXPECT_TRUE(result.failed);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("injected failure at task 100"),
              std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("ProcessFn threw"), std::string::npos)
        << result.error;
}

TEST(FailureSemantics, ProcessThrowFaultSiteFailsTheRun)
{
    // Same contract, driven through the fault site instead of a custom
    // ProcessFn — the path the CLI's --fault-spec exercises.
    ScopedFaultInjection faults;
    faults->arm(faultsite::ExecProcessThrow, FaultMode::OneShot, 50);
    constexpr unsigned threads = 4;
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    std::atomic<int64_t> budget{1000000};
    RunOptions options;
    options.numThreads = threads;
    RunResult result =
        run(sched, {Task{0, 1, 0}}, steadyTree(budget), options);
    EXPECT_TRUE(result.failed);
    EXPECT_NE(result.error.find("exec.process.throw"), std::string::npos)
        << result.error;
    EXPECT_EQ(faults->fireCount(faultsite::ExecProcessThrow), 1u);
}

TEST(FailureSemantics, SpuriousPopFailuresOnlySlowTheRun)
{
    // exec.pop.fail misfires leave the task queued; the run must still
    // complete and process the whole budget.
    ScopedFaultInjection faults(5);
    faults->arm(faultsite::ExecPopFail, FaultMode::Probability, 0.3);
    constexpr unsigned threads = 4;
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    std::atomic<int64_t> budget{5000};
    RunOptions options;
    options.numThreads = threads;
    RunResult result =
        run(sched, {Task{0, 1, 0}}, steadyTree(budget), options);
    EXPECT_TRUE(result.ok()) << result.error;
    EXPECT_GT(faults->fireCount(faultsite::ExecPopFail), 0u);
    EXPECT_LE(budget.load(), 0);
}

TEST(FailureSemantics, SsspCorrectUnderForcedSrqFull)
{
    // The PR's second acceptance drill: with *every* remote push
    // reporting sRQ-full (all transfer through the locked overflow
    // queue), SSSP must still process each task exactly once and land
    // on the same answer as the fault-free run — both are checked
    // against the same sequential reference by verify().
    Graph g = makeRoadGrid(12, 12, {.seed = 51});
    auto workload = makeWorkload("sssp", g, 0);
    constexpr unsigned threads = 4;

    workload->reset();
    {
        HdCpsConfig config = HdCpsScheduler::configSrq();
        config.tdf = 100;
        HdCpsScheduler sched(threads, config);
        RunOptions options;
        options.numThreads = threads;
        RunResult r = run(sched, workload->initialTasks(),
                          workloadProcessFn(*workload), options);
        ASSERT_TRUE(r.ok()) << r.error;
        std::string why;
        ASSERT_TRUE(workload->verify(&why)) << "fault-free: " << why;
        EXPECT_EQ(sched.overflowPushes(), 0u);
    }

    workload->reset();
    {
        ScopedFaultInjection faults;
        faults->arm(faultsite::SrqPushFull, FaultMode::EveryNth, 1);
        HdCpsConfig config = HdCpsScheduler::configSrq();
        config.tdf = 100;
        HdCpsScheduler sched(threads, config);
        RunOptions options;
        options.numThreads = threads;
        options.watchdogMs = 10000; // the spill path must not stall
        RunResult r = run(sched, workload->initialTasks(),
                          workloadProcessFn(*workload), options);
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_GT(sched.overflowPushes(), 0u);
        std::string why;
        ASSERT_TRUE(workload->verify(&why)) << "forced spill: " << why;
    }
}

/** Swallows every push and never returns work: the canonical stall. */
class BlackholeScheduler : public Scheduler
{
  public:
    explicit BlackholeScheduler(unsigned n) : Scheduler(n) {}

    void
    push(unsigned, const Task &) override
    {
        swallowed_.fetch_add(1, std::memory_order_relaxed);
    }

    bool tryPop(unsigned, Task &) override { return false; }
    const char *name() const override { return "blackhole"; }

    size_t
    sizeApprox() const override
    {
        return swallowed_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> swallowed_{0};
};

TEST(Watchdog, FiresOnStalledRunWithDiagnostic)
{
    constexpr unsigned threads = 3;
    BlackholeScheduler sched(threads);
    RunOptions options;
    options.numThreads = threads;
    options.watchdogMs = 50;
    std::atomic<int64_t> budget{100};
    RunResult result =
        run(sched, {Task{0, 1, 0}}, steadyTree(budget), options);
    EXPECT_TRUE(result.failed);
    EXPECT_NE(result.error.find("watchdog"), std::string::npos)
        << result.error;
    // The diagnostic names the scheduler, its buffered-task estimate,
    // and the per-worker pop counts.
    EXPECT_NE(result.error.find("blackhole"), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("pops per worker"), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("w0=0"), std::string::npos)
        << result.error;
    // Workers that never popped report their age since run start, so a
    // straggler is identifiable from the dump alone.
    EXPECT_NE(result.error.find("no pops"), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("ms since start"), std::string::npos)
        << result.error;
}

TEST(Watchdog, QuietOnHealthyRun)
{
    constexpr unsigned threads = 4;
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    std::atomic<int64_t> budget{20000};
    RunOptions options;
    options.numThreads = threads;
    options.watchdogMs = 2000;
    RunResult result =
        run(sched, {Task{0, 1, 0}}, steadyTree(budget), options);
    EXPECT_TRUE(result.ok()) << result.error;
    EXPECT_LE(budget.load(), 0);
}

// ----------------------------------- straggler resilience (tentpole)

/**
 * The PR's acceptance pair: the same SSSP run with one worker paused
 * far longer than the progress windows. Without reclamation the tasks
 * parked in the straggler's sRQ strand the run — the watchdog is the
 * only thing standing between that and an infinite hang. With
 * reclamation armed, idle peers drain the straggler's queues and the
 * run completes correctly.
 */
TEST(StragglerResilience, PausedWorkerStallsRunWithoutReclamation)
{
    Graph g = makeRoadGrid(20, 20, {.seed = 23});
    auto workload = makeWorkload("sssp", g, 0);
    constexpr unsigned threads = 4;

    // Worker 1 pauses at its 30th loop iteration for 900 ms: longer
    // than several watchdog windows, so the stall is unambiguous.
    ScopedStragglerInjection stragglers(threads, 1);
    stragglers->add(StragglerInjector::PauseEvent{1, 30, 900});

    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100; // every push crosses workers via the sRQs
    HdCpsScheduler sched(threads, config);
    RunOptions options;
    options.numThreads = threads;
    options.watchdogMs = 150;
    RunResult r = run(sched, workload->initialTasks(),
                      workloadProcessFn(*workload), options);
    ASSERT_TRUE(r.failed)
        << "expected the stranded-sRQ stall to trip the watchdog";
    EXPECT_NE(r.error.find("watchdog"), std::string::npos) << r.error;
    EXPECT_GE(stragglers->pausesInjected(), 1u);
    EXPECT_EQ(sched.reclaimedTasks(), 0u);
}

TEST(StragglerResilience, ReclamationRidesOutThePausedWorker)
{
    Graph g = makeRoadGrid(20, 20, {.seed = 23});
    auto workload = makeWorkload("sssp", g, 0);
    constexpr unsigned threads = 4;

    ScopedStragglerInjection stragglers(threads, 1);
    stragglers->add(StragglerInjector::PauseEvent{1, 30, 900});

    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 100;
    HdCpsScheduler sched(threads, config);
    VerifyingScheduler verified(sched);
    RunOptions options;
    options.numThreads = threads;
    options.watchdogMs = 2000; // only a genuine hang may trip it now
    options.reclaimAfterMs = 25;
    RunResult r = run(verified, workload->initialTasks(),
                      workloadProcessFn(*workload), options);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GE(stragglers->pausesInjected(), 1u);
    EXPECT_GT(sched.reclaimedTasks(), 0u)
        << "peers should have drained the paused worker's queues";

    std::string why;
    EXPECT_TRUE(verified.checkComplete(false, &why)) << why;
    ASSERT_TRUE(workload->verify(&why)) << why;
}

// ------------------------------ distributed termination (chaos soak)

/**
 * The executor's two-pass distributed quiescence check replaces the
 * old global pending counter, so the property worth soaking is the one
 * a broken check would violate: under spurious pop failures plus a
 * paused worker (reclamation armed), every run must (a) terminate at
 * all, (b) terminate only after every created task was processed
 * exactly once, and (c) never double-count a task when the frontier
 * drains and refills around the idle checks.
 */
TEST(DistributedTermination, ChaosSoakNeverHangsOrTerminatesEarly)
{
    constexpr unsigned threads = 4;
    for (uint64_t seed : {uint64_t(3), uint64_t(11), uint64_t(29)}) {
        ScopedFaultInjection faults(seed);
        faults->arm(faultsite::ExecPopFail, FaultMode::Probability, 0.2);
        faults->arm(faultsite::SrqPopFail, FaultMode::Probability, 0.1);
        ScopedStragglerInjection stragglers(threads, seed);
        stragglers->add(StragglerInjector::PauseEvent{2, 20, 120});

        HdCpsConfig config = HdCpsScheduler::configSrq();
        config.tdf = 100; // quiescence must see in-flight transfers
        config.seed = seed;
        HdCpsScheduler sched(threads, config);
        VerifyingScheduler verified(sched);
        std::atomic<int64_t> budget{30000};
        std::atomic<uint64_t> processed{0};
        ProcessFn tree = steadyTree(budget);
        ProcessFn counted = [&](unsigned tid, const Task &task,
                                std::vector<Task> &children) {
            processed.fetch_add(1, std::memory_order_relaxed);
            tree(tid, task, children);
        };
        RunOptions options;
        options.numThreads = threads;
        options.watchdogMs = 60000; // (a): a hang fails loudly, not
                                    // by timing out the whole suite
        options.reclaimAfterMs = 20;
        RunResult r = run(verified, {Task{0, 1, 0}}, counted, options);
        ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.error;
        EXPECT_LE(budget.load(), 0) << "seed " << seed;
        // (b) + (c): the executor's own processed total, the ProcessFn
        // call count, and the scheduler-level push/pop ledger must all
        // agree — early termination loses tasks, double termination
        // (two workers both concluding "quiescent" while work remains)
        // double-processes them.
        EXPECT_EQ(processed.load(), r.total.tasksProcessed)
            << "seed " << seed;
        std::string why;
        EXPECT_TRUE(verified.checkComplete(false, &why))
            << "seed " << seed << ": " << why;
    }
}

TEST(DistributedTermination, EmptyInitialRunTerminatesImmediately)
{
    // Zero created, zero completed: the very first quiescence check
    // must pass on every worker without anyone processing anything.
    constexpr unsigned threads = 4;
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    ProcessFn noop = [](unsigned, const Task &, std::vector<Task> &) {};
    RunOptions options;
    options.numThreads = threads;
    options.watchdogMs = 10000;
    RunResult r = run(sched, {}, noop, options);
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.total.tasksProcessed, 0u);
}

TEST(SimProperties, DrainAlwaysCompletes)
{
    // Pathological config: 1-entry queues, 100% distribution, tiny
    // sample interval — termination and verification must still hold.
    Graph g = makeRoadGrid(8, 8, {.seed = 9});
    auto workload = makeWorkload("sssp", g, 0);
    SimHdCpsConfig config = SimHdCps::configHw();
    config.hrqEntries = 1;
    config.hpqEntries = 1;
    config.tdfMode = SimHdCpsConfig::TdfMode::Fixed;
    config.tdfPct = 100;
    config.sampleInterval = 1;
    SimConfig machine;
    machine.numCores = 16;
    machine.meshWidth = 4;
    auto design = makeHdCpsDesign(config, "pathological");
    SimResult r = simulate(*design, *workload, machine, 1);
    ASSERT_TRUE(r.verified) << r.verifyError;
}

// ------------------------------------------- resident run() helpers

/** Runs `body` on its own thread; false when it did not finish within
 *  `limit`. A hung body is left running (its thread detached), so a
 *  deadlock fails the test instead of hanging the suite — `body` must
 *  therefore own what it uses. */
bool
finishesWithin(std::chrono::seconds limit, std::function<void()> body)
{
    std::packaged_task<void()> task(std::move(body));
    std::future<void> done = task.get_future();
    std::thread thread(std::move(task));
    if (done.wait_for(limit) != std::future_status::ready) {
        thread.detach();
        return false;
    }
    thread.join();
    done.get();
    return true;
}

/** Threads in this process right now, or 0 where that is unknown. */
unsigned
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(std::stoul(line.substr(8)));
    }
    return 0;
}

/** One verified SSSP solve through run(): exact ledger, correct
 *  distances, and every worker bound once. Returns the thread that ran
 *  each worker id; `peakThreads`, when set, is raised to the most
 *  threads the process had while a worker started its first task. */
std::vector<std::thread::id>
verifiedSolve(unsigned threads, uint64_t seed,
              unsigned *peakThreads = nullptr)
{
    Graph g = makeRoadGrid(40, 40, {.seed = seed});
    auto workload = makeWorkload("sssp", g, 0);
    workload->reset();
    HdCpsConfig config = HdCpsScheduler::configSw();
    config.seed = seed;
    HdCpsScheduler sched(threads, config);
    VerifyingScheduler verified(sched);
    ProcessFn inner = workloadProcessFn(*workload);
    std::vector<std::thread::id> ran(threads);
    std::mutex ranMutex;
    ProcessFn process = [&](unsigned tid, const Task &task,
                            std::vector<Task> &children) {
        {
            std::lock_guard<std::mutex> lock(ranMutex);
            if (peakThreads && ran[tid] == std::thread::id())
                *peakThreads = std::max(*peakThreads, processThreads());
            ran[tid] = std::this_thread::get_id();
        }
        inner(tid, task, children);
    };
    RunOptions options;
    options.numThreads = threads;
    RunResult r = run(verified, workload->initialTasks(), process, options);
    EXPECT_TRUE(r.ok()) << threads << " threads: " << r.error;
    std::string why;
    EXPECT_TRUE(verified.checkComplete(false, &why))
        << threads << " threads: " << why;
    EXPECT_TRUE(workload->verify(&why)) << threads << " threads: " << why;
    for (unsigned tid = 0; tid < threads; ++tid) {
        EXPECT_EQ(sched.workerBinds(tid), 1u)
            << threads << " threads, worker " << tid;
    }
    return ran;
}

TEST(ResidentHelpers, BackToBackRunsShareHelpers)
{
    // Warm the pool to three helpers; after that no run of up to four
    // workers may add a thread, and the caller always runs worker 0.
    verifiedSolve(4, 60);
    const unsigned before = processThreads();
    unsigned peak = 0;
    for (unsigned threads : {3u, 1u, 4u, 2u}) {
        std::vector<std::thread::id> ran =
            verifiedSolve(threads, 60 + threads, &peak);
        if (ran[0] != std::thread::id()) {
            EXPECT_EQ(ran[0], std::this_thread::get_id())
                << threads << " threads";
        }
    }
    if (before != 0) {
        EXPECT_EQ(peak, before);
    }
}

TEST(ResidentHelpers, ConcurrentRunsEachGetTheirOwnHelpers)
{
    EXPECT_TRUE(finishesWithin(std::chrono::seconds(60), [] {
        std::atomic<unsigned> arrived{0};
        std::vector<std::thread> clients;
        for (uint64_t seed : {71u, 72u}) {
            clients.emplace_back([seed, &arrived] {
                arrived.fetch_add(1);
                while (arrived.load() < 2)
                    std::this_thread::yield();
                verifiedSolve(3, seed);
            });
        }
        for (std::thread &client : clients)
            client.join();
    })) << "two concurrent 3-worker runs did not finish";
}

TEST(ResidentHelpers, NestedRunInsideProcessFnFinishes)
{
    // A ProcessFn that itself calls run() must get fresh helpers, not
    // wait on a lock its own run holds.
    auto innerOk = std::make_shared<std::atomic<unsigned>>(0);
    auto outerOk = std::make_shared<std::atomic<bool>>(false);
    EXPECT_TRUE(finishesWithin(std::chrono::seconds(60), [innerOk,
                                                          outerOk] {
        HdCpsScheduler outer(2, HdCpsScheduler::configSw());
        ProcessFn nesting = [innerOk](unsigned, const Task &task,
                                      std::vector<Task> &) {
            HdCpsScheduler inner(2, HdCpsScheduler::configSw());
            VerifyingScheduler verified(inner);
            std::atomic<int64_t> budget{200 + int64_t(task.node)};
            RunOptions options;
            options.numThreads = 2;
            RunResult r = run(verified, {Task{0, task.node, 0}},
                              steadyTree(budget), options);
            if (r.ok() && verified.checkComplete(false))
                innerOk->fetch_add(1);
        };
        RunOptions options;
        options.numThreads = 2;
        RunResult r = run(outer, {Task{0, 1, 0}, Task{0, 2, 0}}, nesting,
                          options);
        outerOk->store(r.ok());
    })) << "the outer run deadlocked on its nested run()";
    EXPECT_TRUE(outerOk->load());
    EXPECT_EQ(innerOk->load(), 2u);
}

TEST(ResidentHelpers, HealthyRunAfterFailedRunOnSameHelpers)
{
    constexpr unsigned threads = 3;
    {
        ScopedFaultInjection faults;
        faults->arm(faultsite::ExecProcessThrow, FaultMode::OneShot, 50);
        HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
        std::atomic<int64_t> budget{1000000};
        RunOptions options;
        options.numThreads = threads;
        RunResult failed =
            run(sched, {Task{0, 1, 0}}, steadyTree(budget), options);
        ASSERT_TRUE(failed.failed);
    }
    EXPECT_TRUE(finishesWithin(std::chrono::seconds(60), [] {
        verifiedSolve(threads, 81);
    })) << "the run after a failed run did not finish";
}

#ifdef __linux__
cpu_set_t
currentMask()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask);
    return mask;
}

/** Pins each worker to one CPU in onWorkerStart, as a topology-aware
 *  design does. */
class PinningScheduler : public VerifyingScheduler
{
  public:
    PinningScheduler(Scheduler &inner, unsigned cpu)
        : VerifyingScheduler(inner), cpu_(cpu)
    {}

    void
    onWorkerStart(unsigned tid) override
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu_, &one);
        if (pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0)
            pinned.fetch_add(1);
        VerifyingScheduler::onWorkerStart(tid);
    }

    std::atomic<unsigned> pinned{0};

  private:
    unsigned cpu_;
};

/** Records whether each worker entered the run with `expected`. */
class MaskCheckingScheduler : public VerifyingScheduler
{
  public:
    MaskCheckingScheduler(Scheduler &inner, const cpu_set_t &expected)
        : VerifyingScheduler(inner), expected_(expected)
    {}

    void
    onWorkerStart(unsigned tid) override
    {
        cpu_set_t mask = currentMask();
        if (!CPU_EQUAL(&mask, &expected_))
            wrongMask.fetch_add(1);
        VerifyingScheduler::onWorkerStart(tid);
    }

    std::atomic<unsigned> wrongMask{0};

  private:
    cpu_set_t expected_;
};

TEST(ResidentHelpers, PinningDoesNotLeakIntoTheNextRun)
{
    const cpu_set_t original = currentMask();
    if (CPU_COUNT(&original) < 2)
        GTEST_SKIP() << "the process mask holds one CPU";
    unsigned cpu = 0;
    while (!CPU_ISSET(cpu, &original))
        ++cpu;
    constexpr unsigned threads = 3;
    {
        HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
        PinningScheduler pinning(sched, cpu);
        std::atomic<int64_t> budget{2000};
        RunOptions options;
        options.numThreads = threads;
        ASSERT_TRUE(
            run(pinning, {Task{0, 1, 0}}, steadyTree(budget), options)
                .ok());
        ASSERT_EQ(pinning.pinned.load(), threads)
            << "this host refuses to pin threads";
    }
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    MaskCheckingScheduler checking(sched, original);
    std::atomic<int64_t> budget{2000};
    RunOptions options;
    options.numThreads = threads;
    ASSERT_TRUE(
        run(checking, {Task{0, 1, 0}}, steadyTree(budget), options).ok());
    EXPECT_EQ(checking.wrongMask.load(), 0u)
        << "a worker of the next run entered it pinned";
    cpu_set_t after = currentMask();
    EXPECT_TRUE(CPU_EQUAL(&after, &original))
        << "the caller left run() pinned";
}
#endif

#ifdef __linux__
TEST(ResidentHelpers, ForkedChildStartsWithAnEmptyPool)
{
#ifdef __SANITIZE_THREAD__
    GTEST_SKIP() << "ThreadSanitizer does not start threads after a "
                    "multi-threaded fork";
#endif
    // The parent has idle helpers now; the child inherits the list but
    // not the threads, so its run() must spawn its own.
    verifiedSolve(3, 91);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        HdCpsScheduler sched(3, HdCpsScheduler::configSw());
        std::atomic<int64_t> budget{2000};
        RunOptions options;
        options.numThreads = 3;
        RunResult r =
            run(sched, {Task{0, 1, 0}}, steadyTree(budget), options);
        _exit(r.ok() ? 0 : 1);
    }
    int status = 0;
    pid_t done = 0;
    for (int round = 0; round < 600 && done == 0; ++round) {
        done = waitpid(child, &status, WNOHANG);
        if (done == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (done == 0) {
        kill(child, SIGKILL);
        waitpid(child, &status, 0);
        FAIL() << "the forked child's run() hung";
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "the forked child's run() failed";
}
#endif

/** Counts tryPop calls per worker id, failed ones included. */
class PopCountingScheduler : public VerifyingScheduler
{
  public:
    PopCountingScheduler(Scheduler &inner, unsigned threads)
        : VerifyingScheduler(inner), pops(threads)
    {}

    bool
    tryPop(unsigned tid, Task &out) override
    {
        pops[tid].value.fetch_add(1, std::memory_order_relaxed);
        return VerifyingScheduler::tryPop(tid, out);
    }

    std::vector<Padded<std::atomic<uint64_t>>> pops;
};

TEST(ResidentHelpers, LateHelpersFinishBeforeRunReturns)
{
    // Drill: every helper sleeps (exec.helper.delay) far longer than
    // the run's work takes worker 0 alone. run() must still wait for
    // each helper to enter and leave its worker body: a helper that
    // ran on after run() returned would use the caller's dead stack
    // frame, which the ASan preset reports.
    constexpr unsigned threads = 3;
    constexpr uint64_t delayNs = 100000000; // 100 ms
    ScopedFaultInjection faults;
    faults->arm(faultsite::ExecHelperDelay, FaultMode::Delay,
                double(delayNs));
    HdCpsScheduler sched(threads, HdCpsScheduler::configSw());
    PopCountingScheduler counting(sched, threads);
    // Fewer seeds than one 16-task seed chunk: all land on worker 0.
    std::vector<Task> seeds;
    for (uint32_t node = 1; node <= 8; ++node)
        seeds.push_back(Task{0, node, 0});
    ProcessFn noop = [](unsigned, const Task &, std::vector<Task> &) {};
    RunOptions options;
    options.numThreads = threads;
    const uint64_t startNs = nowNs();
    RunResult r = run(counting, seeds, noop, options);
    const uint64_t wallNs = nowNs() - startNs;
    for (unsigned tid = 0; tid < threads; ++tid) {
        EXPECT_GT(counting.pops[tid].value.load(), 0u)
            << "worker " << tid << " never popped before run() returned";
    }
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.total.tasksProcessed, seeds.size());
    EXPECT_EQ(faults->fireCount(faultsite::ExecHelperDelay), threads - 1);
    EXPECT_GE(wallNs, delayNs);
    std::string why;
    EXPECT_TRUE(counting.checkComplete(false, &why)) << why;
}

} // namespace
} // namespace hdcps
