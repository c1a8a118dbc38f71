/**
 * @file
 * ExecutorService tests: the long-lived multi-tenant worker pool's
 * admission backpressure, per-job failure isolation, cancellation,
 * deadlines, retry/backoff, and the chaos matrix the PR's acceptance
 * criteria name — several concurrent jobs under armed fault and
 * straggler drills, with per-job task conservation asserted through
 * the VerifyingScheduler's job-aware ledger.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "core/hdcps.h"
#include "cps/multiqueue.h"
#include "cps/verifying_scheduler.h"
#include "runtime/executor_service.h"
#include "support/fault.h"
#include "support/straggler.h"
#include "support/topology.h"

namespace hdcps {
namespace {

/** Tree job: every task with data > 0 spawns `fanout` children one
 *  level down; counts processed tasks into `processed`. Total tasks
 *  for depth d: (fanout^(d+1) - 1) / (fanout - 1). */
ProcessFn
treeJob(std::atomic<uint64_t> &processed, uint32_t fanout = 3)
{
    return [&processed, fanout](unsigned, const Task &task,
                                std::vector<Task> &children) {
        processed.fetch_add(1, std::memory_order_relaxed);
        if (task.data == 0)
            return;
        for (uint32_t i = 0; i < fanout; ++i) {
            children.push_back(Task{task.priority + 1,
                                    task.node * fanout + i + 1,
                                    task.data - 1});
        }
    };
}

uint64_t
treeSize(uint32_t depth, uint32_t fanout = 3)
{
    uint64_t total = 0, level = 1;
    for (uint32_t d = 0; d <= depth; ++d) {
        total += level;
        level *= fanout;
    }
    return total;
}

/** Self-replenishing job: every task spawns one child until `budget`
 *  is exhausted — long-lived on purpose (cancel/deadline targets). */
ProcessFn
replenishJob(std::atomic<int64_t> &budget,
             std::atomic<uint64_t> &processed, uint64_t sleepUs = 0)
{
    return [&budget, &processed, sleepUs](unsigned, const Task &task,
                                          std::vector<Task> &children) {
        processed.fetch_add(1, std::memory_order_relaxed);
        if (sleepUs > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(sleepUs));
        }
        if (budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
            children.push_back(
                Task{task.priority + 1, task.node + 1, task.data});
        }
    };
}

TEST(Service, SingleJobCompletes)
{
    MultiQueueScheduler sched(2);
    ServiceOptions options;
    options.numThreads = 2;
    ExecutorService svc(sched, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "tree";
    spec.process = treeJob(processed);
    spec.initial = {Task{0, 0, 4}};
    JobHandle job = svc.submit(std::move(spec));
    ASSERT_TRUE(job.valid());
    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), treeSize(4));
    EXPECT_EQ(job.tasksCompleted(), treeSize(4));
    EXPECT_TRUE(job.error().empty());
    EXPECT_GT(job.latencyMs(), 0.0);

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.admitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.jobsMeasured, 1u);
    EXPECT_GT(stats.jobLatencyP50Ms, 0.0);
}

TEST(Service, EmptyJobCompletesImmediately)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    ExecutorService svc(sched, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.process = treeJob(processed);
    // No initial tasks: admitted, adopted, immediately quiescent.
    JobHandle job = svc.submit(std::move(spec));
    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), 0u);
}

TEST(Service, AdmissionOverflowRejectsWithReason)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 1;
    ExecutorService svc(sched, options);

    // Job 1 occupies the only worker until released.
    std::atomic<bool> release{false};
    std::atomic<uint64_t> blockedRuns{0};
    JobSpec blocker;
    blocker.name = "blocker";
    blocker.process = [&release, &blockedRuns](unsigned, const Task &,
                                               std::vector<Task> &) {
        blockedRuns.fetch_add(1, std::memory_order_relaxed);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    };
    blocker.initial = {Task{0, 1, 0}};
    JobHandle job1 = svc.submit(std::move(blocker));

    // Wait until the worker is inside job 1 (adopted + popped), so
    // job 2 stays queued and fills the capacity-1 admission queue.
    while (blockedRuns.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();

    std::atomic<uint64_t> ignored{0};
    JobSpec queued;
    queued.name = "queued";
    queued.process = treeJob(ignored);
    queued.initial = {Task{0, 2, 0}};
    JobHandle job2 = svc.submit(std::move(queued));
    EXPECT_NE(job2.state(), JobState::Rejected);

    JobSpec overflow;
    overflow.name = "overflow";
    overflow.process = treeJob(ignored);
    overflow.initial = {Task{0, 3, 0}};
    JobHandle job3 = svc.submit(std::move(overflow));
    EXPECT_EQ(job3.state(), JobState::Rejected);
    EXPECT_TRUE(job3.done());
    EXPECT_NE(job3.error().find("admission queue full"),
              std::string::npos);

    release.store(true, std::memory_order_release);
    EXPECT_EQ(job1.wait(), JobState::Completed);
    EXPECT_EQ(job2.wait(), JobState::Completed);

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.admitted, 2u);
}

TEST(Service, AdmitFullFaultForcesRejection)
{
    MultiQueueScheduler sched(1);
    // Injection scopes install before the service spawns its workers
    // (the registry contract: arm while no worker is running).
    ScopedFaultInjection faults(7);
    faults->arm(faultsite::SvcAdmitFull, FaultMode::OneShot, 1.0);

    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 64; // plenty of space
    ExecutorService svc(sched, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.process = treeJob(processed);
    spec.initial = {Task{0, 1, 1}};
    JobHandle rejected = svc.submit(std::move(spec));
    EXPECT_EQ(rejected.state(), JobState::Rejected);
    EXPECT_EQ(faults->fireCount(faultsite::SvcAdmitFull), 1u);

    // The one-shot spent itself: the next submission is admitted.
    JobSpec retry;
    retry.process = treeJob(processed);
    retry.initial = {Task{0, 1, 1}};
    JobHandle ok = svc.submit(std::move(retry));
    EXPECT_EQ(ok.wait(), JobState::Completed);
}

TEST(Service, BlockWhenFullBlocksUntilSpace)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 1;
    options.blockWhenFull = true;
    ExecutorService svc(sched, options);

    std::atomic<bool> release{false};
    std::atomic<uint64_t> blockedRuns{0};
    JobSpec blocker;
    blocker.process = [&release, &blockedRuns](unsigned, const Task &,
                                               std::vector<Task> &) {
        blockedRuns.fetch_add(1, std::memory_order_relaxed);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    };
    blocker.initial = {Task{0, 1, 0}};
    JobHandle job1 = svc.submit(std::move(blocker));
    while (blockedRuns.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();

    std::atomic<uint64_t> processed{0};
    JobSpec filler;
    filler.process = treeJob(processed);
    filler.initial = {Task{0, 2, 0}};
    JobHandle job2 = svc.submit(std::move(filler));

    // Queue is full: this submit must block until job 2 is adopted.
    std::atomic<bool> submitted{false};
    JobHandle job3;
    std::thread submitter([&] {
        JobSpec late;
        late.process = treeJob(processed);
        late.initial = {Task{0, 3, 0}};
        job3 = svc.submit(std::move(late));
        submitted.store(true, std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(submitted.load(std::memory_order_acquire));

    release.store(true, std::memory_order_release);
    submitter.join();
    EXPECT_NE(job3.state(), JobState::Rejected);
    EXPECT_EQ(job1.wait(), JobState::Completed);
    EXPECT_EQ(job2.wait(), JobState::Completed);
    EXPECT_EQ(job3.wait(), JobState::Completed);
    EXPECT_EQ(svc.stats().rejected, 0u);
}

TEST(Service, CancelQueuedJobNeverRuns)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 4;
    ExecutorService svc(sched, options);

    std::atomic<bool> release{false};
    std::atomic<uint64_t> blockedRuns{0};
    JobSpec blocker;
    blocker.process = [&release, &blockedRuns](unsigned, const Task &,
                                               std::vector<Task> &) {
        blockedRuns.fetch_add(1, std::memory_order_relaxed);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    };
    blocker.initial = {Task{0, 1, 0}};
    JobHandle job1 = svc.submit(std::move(blocker));
    while (blockedRuns.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();

    std::atomic<uint64_t> processed{0};
    JobSpec queued;
    queued.process = treeJob(processed);
    queued.initial = {Task{0, 2, 3}};
    JobHandle job2 = svc.submit(std::move(queued));

    EXPECT_TRUE(job2.cancel());
    EXPECT_EQ(job2.state(), JobState::Cancelled);
    EXPECT_FALSE(job2.cancel()); // already terminal
    EXPECT_NE(job2.error().find("cancelled"), std::string::npos);

    release.store(true, std::memory_order_release);
    EXPECT_EQ(job1.wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), 0u); // never ran a single task
    EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(Service, CancelRunningJobDrainsWhileCoResidentCompletes)
{
    constexpr unsigned threads = 4;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);
    ServiceOptions options;
    options.numThreads = threads;
    ExecutorService svc(verify, options);

    // Victim: effectively unbounded self-replenishing chains.
    std::atomic<int64_t> victimBudget{1 << 28};
    std::atomic<uint64_t> victimProcessed{0};
    JobSpec victim;
    victim.name = "victim";
    victim.process = replenishJob(victimBudget, victimProcessed);
    for (uint32_t i = 0; i < 8; ++i)
        victim.initial.push_back(Task{i, i, 0});
    JobHandle victimJob = svc.submit(std::move(victim));

    // Co-resident: a finite tree that must finish exactly.
    std::atomic<uint64_t> neighborProcessed{0};
    JobSpec neighbor;
    neighbor.name = "neighbor";
    neighbor.process = treeJob(neighborProcessed);
    neighbor.initial = {Task{0, 0, 6}};
    JobHandle neighborJob = svc.submit(std::move(neighbor));

    // Let the victim make real progress before cancelling mid-flight.
    while (victimProcessed.load(std::memory_order_acquire) < 100)
        std::this_thread::yield();
    EXPECT_TRUE(victimJob.cancel());
    EXPECT_EQ(victimJob.wait(), JobState::Cancelled);
    EXPECT_NE(victimJob.error().find("cancelled"), std::string::npos);

    EXPECT_EQ(neighborJob.wait(), JobState::Completed);
    EXPECT_EQ(neighborProcessed.load(), treeSize(6));

    svc.shutdown();

    // Per-job conservation: the cancelled job drained to exactly zero
    // outstanding tasks; nothing global was lost or duplicated.
    std::string why;
    EXPECT_TRUE(verify.checkJobDrained(victimJob.id(), &why)) << why;
    EXPECT_TRUE(verify.checkJobDrained(neighborJob.id(), &why)) << why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_GT(stats.tasksDrained, 0u);
}

TEST(Service, DeadlineExpiresRunningJob)
{
    constexpr unsigned threads = 2;
    MultiQueueScheduler sched(threads);
    ServiceOptions options;
    options.numThreads = threads;
    ExecutorService svc(sched, options);

    // Slow replenisher that cannot finish inside the deadline.
    std::atomic<int64_t> budget{1 << 28};
    std::atomic<uint64_t> processed{0};
    JobSpec slow;
    slow.name = "sluggish";
    slow.process = replenishJob(budget, processed, /*sleepUs=*/500);
    slow.initial = {Task{0, 1, 0}, Task{0, 2, 0}};
    slow.deadlineMs = 40;
    JobHandle job = svc.submit(std::move(slow));

    EXPECT_EQ(job.wait(), JobState::Failed);
    EXPECT_NE(job.error().find("deadline"), std::string::npos);

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.deadlineExpired, 1u);
}

TEST(Service, DeadlineExpiresQueuedJob)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 4;
    ExecutorService svc(sched, options);

    std::atomic<bool> release{false};
    std::atomic<uint64_t> blockedRuns{0};
    JobSpec blocker;
    blocker.process = [&release, &blockedRuns](unsigned, const Task &,
                                               std::vector<Task> &) {
        blockedRuns.fetch_add(1, std::memory_order_relaxed);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    };
    blocker.initial = {Task{0, 1, 0}};
    JobHandle job1 = svc.submit(std::move(blocker));
    while (blockedRuns.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();

    std::atomic<uint64_t> processed{0};
    JobSpec starved;
    starved.process = treeJob(processed);
    starved.initial = {Task{0, 2, 2}};
    starved.deadlineMs = 20;
    JobHandle job2 = svc.submit(std::move(starved));

    // The queued job expires while the worker is still pinned.
    EXPECT_EQ(job2.wait(), JobState::Failed);
    EXPECT_NE(job2.error().find("deadline"), std::string::npos);
    EXPECT_EQ(processed.load(), 0u);

    release.store(true, std::memory_order_release);
    EXPECT_EQ(job1.wait(), JobState::Completed);
}

TEST(Service, TransientFailuresRetryThenSucceed)
{
    constexpr unsigned threads = 2;
    MultiQueueScheduler sched(threads);
    ServiceOptions options;
    options.numThreads = threads;
    ExecutorService svc(sched, options);

    // Every task fails its first attempt and succeeds on the retry.
    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "flaky";
    spec.process = [&processed](unsigned, const Task &task,
                                std::vector<Task> &children) {
        if (task.attempt == 0)
            throw FaultInjectedError("transient");
        processed.fetch_add(1, std::memory_order_relaxed);
        if (task.data > 0) {
            children.push_back(
                Task{task.priority + 1, task.node * 2, task.data - 1});
            children.push_back(Task{task.priority + 1,
                                    task.node * 2 + 1, task.data - 1});
        }
    };
    spec.initial = {Task{0, 1, 3}};
    spec.retry.maxAttempts = 3;
    spec.retry.backoffBaseUs = 10;
    spec.retry.backoffMaxUs = 100;
    JobHandle job = svc.submit(std::move(spec));

    EXPECT_EQ(job.wait(), JobState::Completed);
    uint64_t expected = treeSize(3, 2);
    EXPECT_EQ(processed.load(), expected);
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.taskRetries, expected); // one retry per task
    EXPECT_EQ(stats.completed, 1u);
}

/** A retry carries the next attempt: the failed incarnation and its
 *  retry are distinct conservation-ledger keys. */
TEST(Service, RetryCarriesTheNextAttempt)
{
    constexpr unsigned threads = 2;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);
    ServiceOptions options;
    options.numThreads = threads;
    ExecutorService svc(verify, options);

    // Each task fails its first run, whatever attempt it carries, and
    // records the attempt its second run sees.
    std::mutex mutex;
    std::set<uint32_t> failedOnce;
    std::vector<uint32_t> retried;
    JobSpec spec;
    spec.name = "fails-once";
    spec.process = [&](unsigned, const Task &task,
                       std::vector<Task> &children) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (failedOnce.insert(task.node).second)
                throw FaultInjectedError("transient");
            retried.push_back(retryAttemptOf(task.attempt));
        }
        if (task.data > 0) {
            children.push_back(
                Task{task.priority + 1, task.node * 2, task.data - 1});
            children.push_back(Task{task.priority + 1,
                                    task.node * 2 + 1, task.data - 1});
        }
    };
    spec.initial = {Task{0, 1, 3}};
    spec.retry.maxAttempts = 3;
    EXPECT_EQ(svc.submit(std::move(spec)).wait(), JobState::Completed);
    svc.shutdown();
    EXPECT_EQ(retried, std::vector<uint32_t>(treeSize(3, 2), 1u));
    std::string why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
}

TEST(Service, RetriesExhaustedFailTheJob)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    ExecutorService svc(sched, options);

    JobSpec spec;
    spec.name = "doomed";
    spec.process = [](unsigned, const Task &, std::vector<Task> &) {
        throw FaultInjectedError("permanent");
    };
    spec.initial = {Task{0, 1, 0}};
    spec.retry.maxAttempts = 2;
    spec.retry.backoffBaseUs = 10;
    spec.retry.backoffMaxUs = 50;
    JobHandle job = svc.submit(std::move(spec));

    EXPECT_EQ(job.wait(), JobState::Failed);
    EXPECT_NE(job.error().find("after 2 attempt"), std::string::npos);
    EXPECT_NE(job.error().find("permanent"), std::string::npos);
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.taskRetries, 1u); // first attempt was retried once
}

/**
 * FIFO scheduler (one mutex, one deque) whose push of a re-pushed
 * incarnation — attempt word != 0, i.e. a retry or a demote re-tag —
 * sleeps after enqueueing it. A peer worker can then pop and complete
 * that incarnation while the pushing worker is still inside push().
 * Pops return nothing while `open` is false.
 */
class SlowRepushScheduler : public Scheduler
{
  public:
    explicit SlowRepushScheduler(unsigned numWorkers)
        : Scheduler(numWorkers)
    {}

    void
    push(unsigned, const Task &task) override
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(task);
        }
        pushes.fetch_add(1, std::memory_order_acq_rel);
        if (task.attempt != 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    bool
    tryPop(unsigned, Task &out) override
    {
        if (!open.load(std::memory_order_acquire))
            return false;
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        out = queue_.front();
        queue_.pop_front();
        return true;
    }

    const char *name() const override { return "slow-repush"; }

    std::atomic<bool> open{true};
    std::atomic<uint64_t> pushes{0};

  private:
    std::mutex mutex_;
    std::deque<Task> queue_;
};

/**
 * Wait for `job` to finish. A job whose last completion was lost never
 * finishes, and shutting down its service would then block forever, so
 * on timeout the service and its scheduler are leaked: the test fails
 * instead of hanging the suite.
 */
template <typename Sched>
void
expectFinishesOrLeak(JobHandle &job, std::unique_ptr<Sched> &sched,
                     std::unique_ptr<ExecutorService> &svc)
{
    JobState state = JobState::Running;
    bool done = job.waitFor(2000, &state);
    EXPECT_TRUE(done) << "job stuck in state " << jobStateName(job.state())
                      << " with " << job.tasksCompleted()
                      << " tasks completed";
    if (!done) {
        (void)svc.release();
        (void)sched.release();
        return;
    }
    EXPECT_EQ(state, JobState::Completed);
    svc->shutdown();
}

TEST(Service, RetryCompletedByPeerStillFinishesJob)
{
    // Worker A's first attempt throws; A re-pushes the retry and stays
    // inside push() while worker B pops the retry, processes it, and
    // completes it. B's completion must see A's: A counts the failed
    // incarnation completed before it pushes the retry. Otherwise B's
    // quiescence scan finds the old incarnation open, A's later
    // completion never scans, and the job stays Running forever.
    auto sched = std::make_unique<SlowRepushScheduler>(2);
    ServiceOptions options;
    options.numThreads = 2;
    auto svc = std::make_unique<ExecutorService>(*sched, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "retried-by-peer";
    spec.process = [&processed](unsigned, const Task &task,
                                std::vector<Task> &) {
        if (retryAttemptOf(task.attempt) == 0)
            throw FaultInjectedError("transient");
        processed.fetch_add(1, std::memory_order_relaxed);
    };
    spec.initial = {Task{0, 1, 0}};
    spec.retry.maxAttempts = 2;
    spec.retry.backoffBaseUs = 0;
    JobHandle job = svc->submit(std::move(spec));

    expectFinishesOrLeak(job, sched, svc);
    EXPECT_EQ(processed.load(), 1u);
    EXPECT_EQ(job.tasksCompleted(), 2u);
}

TEST(Service, DemoteRetagCompletedByPeerStillFinishesJob)
{
    // The demote variant: the job is deprioritized after its seed is
    // queued, so the first pop re-tags and re-pushes the seed, and the
    // peer completes the re-tagged incarnation while the re-tagging
    // worker is still inside push().
    auto sched = std::make_unique<SlowRepushScheduler>(2);
    sched->open.store(false, std::memory_order_release);
    ServiceOptions options;
    options.numThreads = 2;
    auto svc = std::make_unique<ExecutorService>(*sched, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "retagged-by-peer";
    spec.process = [&processed](unsigned, const Task &,
                                std::vector<Task> &) {
        processed.fetch_add(1, std::memory_order_relaxed);
    };
    spec.initial = {Task{0, 1, 0}};
    JobHandle job = svc->submit(std::move(spec));
    while (sched->pushes.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
    EXPECT_TRUE(job.deprioritize());
    sched->open.store(true, std::memory_order_release);

    expectFinishesOrLeak(job, sched, svc);
    EXPECT_EQ(processed.load(), 1u);
    EXPECT_EQ(job.tasksCompleted(), 2u);
    EXPECT_EQ(svc == nullptr ? 0u : svc->stats().demotedTasks, 1u);
}

/*
 * The deferred quiescence scan (DESIGN.md §14.6). A worker whose task
 * completes childless owes its job a scan and pays it at the next pop
 * that leaves the job, or before it can block or exit. Each test fails
 * if one of those payment points is missing.
 */

TEST(Service, OwedScanPaidWhenNextPopIsAnotherJob)
{
    // One worker, so the order is fixed: A's only task completes while
    // B is queued, the worker adopts B and pops B's task, and that task
    // waits for A. A worker that scanned only when it went idle would
    // not finish A until B's task gave up.
    auto sched = std::make_unique<MultiQueueScheduler>(1);
    ServiceOptions options;
    options.numThreads = 1;
    auto svc = std::make_unique<ExecutorService>(*sched, options);

    std::atomic<bool> bQueued{false};
    JobSpec a;
    a.name = "a";
    a.process = [&bQueued](unsigned, const Task &, std::vector<Task> &) {
        while (!bQueued.load(std::memory_order_acquire))
            std::this_thread::yield();
    };
    a.initial = {Task{0, 1, 0}};
    JobHandle jobA = svc->submit(std::move(a));

    std::atomic<int> sawAFinished{-1};
    JobSpec b;
    b.name = "b";
    b.process = [&jobA, &sawAFinished](unsigned, const Task &,
                                       std::vector<Task> &) {
        sawAFinished.store(jobA.waitFor(500) ? 1 : 0,
                           std::memory_order_release);
    };
    b.initial = {Task{0, 2, 0}};
    JobHandle jobB = svc->submit(std::move(b));
    bQueued.store(true, std::memory_order_release);

    // Shuts the service down once A finishes, which waits for B too.
    expectFinishesOrLeak(jobA, sched, svc);
    if (svc != nullptr) {
        EXPECT_EQ(jobB.state(), JobState::Completed);
        EXPECT_EQ(sawAFinished.load(std::memory_order_acquire), 1)
            << "B's task timed out waiting for A";
    }
}

TEST(Service, StragglerPauseDoesNotHoldOwedScan)
{
    // The job's only task installs an injector that pauses the worker
    // at its very next pause point, right after the childless
    // completion. The job must finish well inside the pause.
    constexpr uint64_t pauseMs = 1500;
    StragglerInjector stragglers(1, 7);
    stragglers.add({/*worker=*/0, /*atCheck=*/1, pauseMs});
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    ExecutorService svc(sched, options);

    JobSpec spec;
    spec.name = "paused-after";
    spec.process = [&stragglers](unsigned, const Task &,
                                 std::vector<Task> &) {
        StragglerInjector::install(&stragglers);
    };
    spec.initial = {Task{0, 1, 0}};
    JobHandle job = svc.submit(std::move(spec));

    JobState state = JobState::Running;
    EXPECT_TRUE(job.waitFor(pauseMs / 2, &state))
        << "job still " << jobStateName(job.state())
        << " while its worker is paused";
    EXPECT_EQ(state, JobState::Completed);
    svc.shutdown(); // waits out the pause
    StragglerInjector::install(nullptr);
    EXPECT_EQ(stragglers.pausesInjected(), 1u);
}

TEST(Service, SupersededWorkerPaysOwedScan)
{
    // The job's only task outlives the wedge threshold, so the
    // supervisor supersedes its worker; the task then completes
    // childless and the worker leaves its loop at the next loop top.
    // With no restart budget its slot is retired, not re-armed, and
    // the escalation fails every job still live. A worker that left
    // without paying the owed scan would leave the job live for the
    // escalation to fail; paying first completes it.
    auto sched = std::make_unique<MultiQueueScheduler>(1);
    ServiceOptions options;
    options.numThreads = 1;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    options.supervisor.suspectAfterMs = 20;
    options.supervisor.wedgedAfterMs = 50;
    options.supervisor.maxRestarts = 0;
    auto svc = std::make_unique<ExecutorService>(*sched, options);

    ExecutorService *raw = svc.get();
    JobSpec spec;
    spec.name = "outlives-wedge";
    spec.process = [raw](unsigned, const Task &, std::vector<Task> &) {
        for (int i = 0; i < 5000 && raw->stats().wedgesDetected == 0; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    spec.initial = {Task{0, 1, 0}};
    JobHandle job = svc->submit(std::move(spec));

    expectFinishesOrLeak(job, sched, svc);
    if (svc != nullptr) {
        EXPECT_GE(svc->stats().wedgesDetected, 1u);
    }
}

TEST(Service, TenantCountersExactAtQuiescence)
{
    // Per-worker tenant counters are summed on read; once every job is
    // terminal the sums must be exact: nothing in flight, and one
    // processed task per ProcessFn call that returned normally.
    constexpr unsigned threads = 4;
    MultiQueueScheduler sched(threads);
    ServiceOptions options;
    options.numThreads = threads;
    options.admissionCapacity = 32;
    ExecutorService svc(sched, options);

    std::atomic<uint64_t> returned[3] = {};
    auto counted = [&returned](TenantId tenant, ProcessFn inner) {
        return [&returned, tenant, inner](unsigned tid, const Task &task,
                                          std::vector<Task> &children) {
            inner(tid, task, children);
            returned[tenant].fetch_add(1, std::memory_order_relaxed);
        };
    };

    std::atomic<uint64_t> treeTasks{0};
    std::vector<JobHandle> jobs;
    for (TenantId tenant : {1u, 2u}) {
        for (uint32_t i = 0; i < 3; ++i) {
            JobSpec spec;
            spec.tenant = tenant;
            spec.process = counted(tenant, treeJob(treeTasks));
            spec.initial = {Task{0, i, 4}};
            jobs.push_back(svc.submit(std::move(spec)));
        }
    }

    // Tenant 1: every third task fails its first attempt.
    JobSpec flaky;
    flaky.name = "flaky";
    flaky.tenant = 1;
    flaky.process = counted(
        1, [](unsigned, const Task &task, std::vector<Task> &children) {
            if (task.node % 3 == 0 && retryAttemptOf(task.attempt) == 0)
                throw FaultInjectedError("transient");
            if (task.data > 0) {
                for (uint32_t i = 0; i < 3; ++i) {
                    children.push_back(Task{task.priority + 1,
                                            task.node * 3 + i + 1,
                                            task.data - 1});
                }
            }
        });
    flaky.initial = {Task{0, 0, 4}};
    flaky.retry.maxAttempts = 3;
    flaky.retry.backoffBaseUs = 10;
    flaky.retry.backoffMaxUs = 50;
    JobHandle flakyJob = svc.submit(std::move(flaky));

    // Tenant 2: a long-lived job cancelled mid-run.
    std::atomic<int64_t> budget{1000000};
    std::atomic<uint64_t> longProcessed{0};
    JobSpec endless;
    endless.name = "endless";
    endless.tenant = 2;
    endless.process =
        counted(2, replenishJob(budget, longProcessed, /*sleepUs=*/50));
    endless.initial = {Task{0, 0, 0}, Task{0, 1000, 0},
                       Task{0, 2000, 0}};
    JobHandle endlessJob = svc.submit(std::move(endless));

    while (longProcessed.load(std::memory_order_acquire) < 50)
        std::this_thread::yield();
    EXPECT_TRUE(endlessJob.cancel());

    for (JobHandle &job : jobs)
        EXPECT_EQ(job.wait(), JobState::Completed) << job.name();
    EXPECT_EQ(flakyJob.wait(), JobState::Completed);
    EXPECT_EQ(endlessJob.wait(), JobState::Cancelled);
    EXPECT_GT(svc.stats().taskRetries, 0u);

    std::vector<TenantStats> tenants = svc.tenantStats();
    ASSERT_EQ(tenants.size(), 2u);
    for (const TenantStats &ts : tenants) {
        EXPECT_EQ(ts.inFlightTasks, 0u) << "tenant " << ts.tenant;
        EXPECT_EQ(ts.tasksProcessed, returned[ts.tenant].load())
            << "tenant " << ts.tenant;
    }
    EXPECT_EQ(returned[1].load(), 3 * treeSize(4) + treeSize(4));
}

TEST(Service, JobFailureIsolatesFromCoResidentJobs)
{
    constexpr unsigned threads = 4;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);
    ServiceOptions options;
    options.numThreads = threads;
    ExecutorService svc(verify, options);

    // The failing tenant: wide tree whose tasks all throw eventually.
    JobSpec bad;
    bad.name = "bad-tenant";
    bad.process = [](unsigned, const Task &task,
                     std::vector<Task> &children) {
        if (task.data > 0) {
            for (uint32_t i = 0; i < 4; ++i) {
                children.push_back(Task{task.priority + 1,
                                        task.node * 4 + i,
                                        task.data - 1});
            }
        }
        if (task.data <= 1)
            throw FaultInjectedError("tenant bug");
    };
    bad.initial = {Task{0, 1, 4}};
    JobHandle badJob = svc.submit(std::move(bad));

    std::vector<JobHandle> good;
    std::atomic<uint64_t> goodProcessed{0};
    for (int i = 0; i < 3; ++i) {
        JobSpec spec;
        spec.name = "good-" + std::to_string(i);
        spec.process = treeJob(goodProcessed);
        spec.initial = {Task{0, uint32_t(i), 5}};
        good.push_back(svc.submit(std::move(spec)));
    }

    EXPECT_EQ(badJob.wait(), JobState::Failed);
    EXPECT_NE(badJob.error().find("tenant bug"), std::string::npos);
    for (JobHandle &job : good)
        EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(goodProcessed.load(), 3 * treeSize(5));

    svc.shutdown();
    std::string why;
    EXPECT_TRUE(verify.checkJobDrained(badJob.id(), &why)) << why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
}

TEST(Service, JobPriorityOrdersAdmission)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 8;
    ExecutorService svc(sched, options);

    std::atomic<bool> release{false};
    std::atomic<uint64_t> blockedRuns{0};
    JobSpec blocker;
    blocker.process = [&release, &blockedRuns](unsigned, const Task &,
                                               std::vector<Task> &) {
        blockedRuns.fetch_add(1, std::memory_order_relaxed);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    };
    blocker.initial = {Task{0, 1, 0}};
    JobHandle job0 = svc.submit(std::move(blocker));
    while (blockedRuns.load(std::memory_order_acquire) == 0)
        std::this_thread::yield();

    // Queue three jobs: low urgency first, then high. Adoption order
    // must follow job priority, not submission order.
    std::vector<unsigned> order;
    std::mutex orderMutex;
    auto ordered = [&order, &orderMutex](unsigned label) {
        return [&order, &orderMutex, label](unsigned, const Task &,
                                            std::vector<Task> &) {
            std::lock_guard<std::mutex> lock(orderMutex);
            order.push_back(label);
        };
    };
    JobSpec low;
    low.process = ordered(3);
    low.priority = 30;
    low.initial = {Task{0, 2, 0}};
    JobSpec mid;
    mid.process = ordered(2);
    mid.priority = 20;
    mid.initial = {Task{0, 3, 0}};
    JobSpec high;
    high.process = ordered(1);
    high.priority = 10;
    high.initial = {Task{0, 4, 0}};
    JobHandle jobLow = svc.submit(std::move(low));
    JobHandle jobMid = svc.submit(std::move(mid));
    JobHandle jobHigh = svc.submit(std::move(high));

    release.store(true, std::memory_order_release);
    EXPECT_EQ(job0.wait(), JobState::Completed);
    EXPECT_EQ(jobLow.wait(), JobState::Completed);
    EXPECT_EQ(jobMid.wait(), JobState::Completed);
    EXPECT_EQ(jobHigh.wait(), JobState::Completed);

    // With one worker, adoption (and hence first processing) follows
    // the admission order: high (10), mid (20), low (30).
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1u);
    EXPECT_EQ(order[1], 2u);
    EXPECT_EQ(order[2], 3u);
}

TEST(Service, ShutdownRunsAdmittedJobsThenRejects)
{
    constexpr unsigned threads = 2;
    MultiQueueScheduler sched(threads);
    ServiceOptions options;
    options.numThreads = threads;
    options.admissionCapacity = 16;
    ExecutorService svc(sched, options);

    std::atomic<uint64_t> processed{0};
    std::vector<JobHandle> jobs;
    for (int i = 0; i < 8; ++i) {
        JobSpec spec;
        spec.process = treeJob(processed);
        spec.initial = {Task{0, uint32_t(i), 3}};
        jobs.push_back(svc.submit(std::move(spec)));
    }
    svc.shutdown();

    for (JobHandle &job : jobs)
        EXPECT_EQ(job.state(), JobState::Completed);
    EXPECT_EQ(processed.load(), 8 * treeSize(3));

    JobSpec late;
    late.process = treeJob(processed);
    late.initial = {Task{0, 99, 1}};
    JobHandle rejected = svc.submit(std::move(late));
    EXPECT_EQ(rejected.state(), JobState::Rejected);
    EXPECT_NE(rejected.error().find("shutting down"),
              std::string::npos);
}

/**
 * The acceptance-criteria chaos matrix: >= 4 concurrent jobs over a
 * VerifyingScheduler under armed fault and straggler drills —
 * cancelled and failing jobs drain with exact per-job conservation,
 * co-resident jobs complete correctly, admission overflow rejects new
 * jobs without losing accepted ones, and a deadline-expired job fails
 * with a deadline error.
 */
TEST(Service, ChaosMatrixFourJobsUnderFaultsAndStragglers)
{
    constexpr unsigned threads = 4;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);

    MetricsRegistry::Config metricsConfig;
    metricsConfig.checkSingleWriter = true;
    MetricsRegistry metrics(threads, metricsConfig);

    ScopedFaultInjection faults(42);
    // Sparse process-throws (survivable via retry), spurious pop
    // failures, and a widened cancel/complete race window.
    faults->arm(faultsite::SvcJobFail, FaultMode::EveryNth, 97);
    faults->arm(faultsite::ExecPopFail, FaultMode::EveryNth, 53);
    faults->arm(faultsite::SvcCancelRace, FaultMode::Delay, 200000);
    // Guarantee at least one admission rejection in the burst below:
    // the 10th submit (burst job 5) hits a forced-full one-shot.
    // Natural capacity-3 overflow may add more.
    faults->arm(faultsite::SvcAdmitFull, FaultMode::OneShot, 10);

    ScopedStragglerInjection stragglers(threads, 42);
    stragglers->add({/*worker=*/1, /*atCheck=*/50, /*pauseMs=*/30});
    stragglers->add({/*worker=*/3, /*atCheck=*/200, /*pauseMs=*/20});

    // The service starts its workers immediately, so both injection
    // scopes must be installed before this line or the worker threads
    // race the injector installation itself.
    ServiceOptions options;
    options.numThreads = threads;
    options.admissionCapacity = 3;
    options.seed = 42;
    options.metrics = &metrics;
    ExecutorService svc(verify, options);

    RetryPolicy survivable;
    survivable.maxAttempts = 6; // outlives nth:97 process-throws
    survivable.backoffBaseUs = 5;
    survivable.backoffMaxUs = 50;

    // The four headline jobs must all be admitted: with a capacity-3
    // queue a tight submit loop can outrun adoption, so wait for each
    // to leave Queued before submitting the next.
    auto awaitAdoption = [](const JobHandle &job) {
        ASSERT_NE(job.state(), JobState::Rejected) << job.name();
        while (job.state() == JobState::Queued)
            std::this_thread::yield();
    };

    // Job 1 + 2: honest tenants whose exact task counts we verify.
    std::atomic<uint64_t> honest1{0}, honest2{0};
    JobSpec spec1;
    spec1.name = "honest-1";
    spec1.process = treeJob(honest1);
    spec1.initial = {Task{0, 0, 6}};
    spec1.retry = survivable;
    JobHandle job1 = svc.submit(std::move(spec1));
    awaitAdoption(job1);

    JobSpec spec2;
    spec2.name = "honest-2";
    spec2.process = treeJob(honest2, /*fanout=*/2);
    spec2.initial = {Task{0, 0, 8}};
    spec2.retry = survivable;
    JobHandle job2 = svc.submit(std::move(spec2));
    awaitAdoption(job2);

    // Job 3: cancel target — long-lived replenisher.
    std::atomic<int64_t> victimBudget{1 << 28};
    std::atomic<uint64_t> victimProcessed{0};
    JobSpec spec3;
    spec3.name = "victim";
    spec3.process = replenishJob(victimBudget, victimProcessed);
    for (uint32_t i = 0; i < 8; ++i)
        spec3.initial.push_back(Task{i, 100 + i, 0});
    spec3.retry = survivable;
    JobHandle job3 = svc.submit(std::move(spec3));
    awaitAdoption(job3);

    // Job 4: deadline casualty — slow replenisher, 50 ms budget.
    std::atomic<int64_t> slowBudget{1 << 28};
    std::atomic<uint64_t> slowProcessed{0};
    JobSpec spec4;
    spec4.name = "deadline";
    spec4.process = replenishJob(slowBudget, slowProcessed,
                                 /*sleepUs=*/300);
    spec4.initial = {Task{0, 200, 0}, Task{0, 201, 0}};
    spec4.deadlineMs = 50;
    spec4.retry = survivable;
    JobHandle job4 = svc.submit(std::move(spec4));
    awaitAdoption(job4);

    // Overflow burst: tiny jobs thrown at a capacity-3 queue while
    // the workers are saturated; some must be rejected, and every
    // *admitted* one must still complete.
    std::atomic<uint64_t> burstProcessed{0};
    std::vector<JobHandle> burst;
    for (int i = 0; i < 24; ++i) {
        JobSpec spec;
        spec.name = "burst-" + std::to_string(i);
        spec.process = treeJob(burstProcessed, /*fanout=*/2);
        spec.initial = {Task{0, uint32_t(300 + i), 2}};
        spec.retry = survivable;
        burst.push_back(svc.submit(std::move(spec)));
        // Quarter-throttled: fast enough to overflow the capacity-3
        // queue, slow enough that adoption admits a share too.
        if (i % 4 == 3) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(500));
        }
    }

    // Cancel the victim mid-flight.
    while (victimProcessed.load(std::memory_order_acquire) < 50)
        std::this_thread::yield();
    job3.cancel();

    EXPECT_EQ(job1.wait(), JobState::Completed);
    EXPECT_EQ(job2.wait(), JobState::Completed);
    EXPECT_EQ(job3.wait(), JobState::Cancelled);
    EXPECT_EQ(job4.wait(), JobState::Failed);
    EXPECT_NE(job4.error().find("deadline"), std::string::npos);

    EXPECT_EQ(honest1.load(), treeSize(6));
    EXPECT_EQ(honest2.load(), treeSize(8, 2));

    uint64_t burstCompleted = 0, burstRejected = 0;
    uint64_t burstTasksExpected = 0;
    for (JobHandle &job : burst) {
        JobState s = job.wait();
        if (s == JobState::Rejected) {
            ++burstRejected;
            continue;
        }
        EXPECT_EQ(s, JobState::Completed) << job.name();
        ++burstCompleted;
        burstTasksExpected += treeSize(2, 2);
    }
    EXPECT_EQ(burstCompleted + burstRejected, burst.size());
    EXPECT_GE(burstRejected, 1u); // the forced-full one-shot at least
    EXPECT_GT(burstCompleted, 0u);
    EXPECT_EQ(burstProcessed.load(), burstTasksExpected);

    svc.shutdown();

    // Per-job conservation for the killed tenants, global
    // conservation for everyone, and a clean single-writer audit.
    std::string why;
    EXPECT_TRUE(verify.checkJobDrained(job3.id(), &why)) << why;
    EXPECT_TRUE(verify.checkJobDrained(job4.id(), &why)) << why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
    EXPECT_EQ(metrics.writerViolations(), 0u);

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.deadlineExpired, 1u);
    EXPECT_EQ(stats.completed, 2u + burstCompleted);
    EXPECT_EQ(stats.rejected, burstRejected);
    EXPECT_EQ(stats.admitted + stats.rejected, stats.submitted);
    EXPECT_GE(stats.jobLatencyP99Ms, stats.jobLatencyP50Ms);
    EXPECT_GT(stats.jobsMeasured, 0u);
}

/**
 * Supervision: the svc.worker.die drill kills exactly one worker
 * mid-run. The supervisor must observe the exit latch, reclaim the
 * dead slot's backlog, and re-arm the slot — every job completes
 * with exact task counts, the conservation ledger balances, and
 * WorkerRestarts matches the injected death count deterministically.
 */
TEST(Service, SupervisorHealsDeadWorkerAndConservesTasks)
{
    constexpr unsigned threads = 4;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);

    MetricsRegistry::Config metricsConfig;
    metricsConfig.checkSingleWriter = true;
    MetricsRegistry metrics(threads, metricsConfig);

    ScopedFaultInjection faults(11);
    faults->arm(faultsite::SvcWorkerDie, FaultMode::OneShot, 400);

    ServiceOptions options;
    options.numThreads = threads;
    options.metrics = &metrics;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    // Death detection rides the exit latch, not staleness: generous
    // thresholds so scheduler hiccups on loaded hosts can't fake a
    // wedge and skew the exact restart count below.
    options.supervisor.suspectAfterMs = 500;
    options.supervisor.wedgedAfterMs = 2000;
    options.supervisor.maxRestarts = 4;
    ExecutorService svc(verify, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "tree";
    spec.process = treeJob(processed);
    spec.initial = {Task{0, 0, 9}};
    JobHandle job = svc.submit(std::move(spec));
    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), treeSize(9));

    // The drill fires exactly once; wait for the heal to land.
    while (svc.stats().workerRestarts < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Pool capacity is restored: a follow-up job completes too, and
    // every slot reads Healthy again.
    std::atomic<uint64_t> after{0};
    JobSpec spec2;
    spec2.name = "after-heal";
    spec2.process = treeJob(after);
    spec2.initial = {Task{0, 1, 6}};
    JobHandle job2 = svc.submit(std::move(spec2));
    EXPECT_EQ(job2.wait(), JobState::Completed);
    EXPECT_EQ(after.load(), treeSize(6));
    for (unsigned tid = 0; tid < threads; ++tid)
        EXPECT_EQ(svc.workerHealth(tid), WorkerHealth::Healthy) << tid;

    svc.shutdown();

    std::string why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
    EXPECT_EQ(metrics.writerViolations(), 0u);

    ServiceStats stats = svc.stats();
    EXPECT_EQ(faults->fireCount(faultsite::SvcWorkerDie), 1u);
    EXPECT_EQ(stats.workerRestarts, 1u);
    EXPECT_EQ(stats.crashesDetected, 1u);
    EXPECT_FALSE(stats.escalated);
    EXPECT_EQ(stats.completed, 2u);
}

/**
 * Supervision x topology: a healed worker must rejoin its slot's node
 * group. Node membership is slot state (assigned at construction) —
 * what this test pins down is the announce path: every entry into a
 * slot, at startup and again after each re-arm, reports through
 * onWorkerStart (forwarded by the VerifyingScheduler wrapper), so the
 * scheduler can re-pin the healed slot's thread to the slot's node.
 * Synthetic topologies carry no CPU lists, so the test is
 * deterministic on any host.
 */
TEST(Service, HealedWorkerRejoinsItsNodeGroup)
{
    constexpr unsigned threads = 4;
    HdCpsConfig config = HdCpsScheduler::configSw();
    config.topology = Topology::synthetic(2, 2);
    HdCpsScheduler inner(threads, config);
    VerifyingScheduler verify(inner);

    ScopedFaultInjection faults(17);
    faults->arm(faultsite::SvcWorkerDie, FaultMode::OneShot, 400);

    ServiceOptions options;
    options.numThreads = threads;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    options.supervisor.suspectAfterMs = 500;
    options.supervisor.wedgedAfterMs = 2000;
    options.supervisor.maxRestarts = 4;
    ExecutorService svc(verify, options);

    // Node assignment is fixed at construction and never moves.
    for (unsigned tid = 0; tid < threads; ++tid) {
        EXPECT_EQ(inner.nodeOfWorker(tid),
                  config.topology.nodeOfWorker(tid, threads));
    }

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "tree";
    spec.process = treeJob(processed);
    spec.initial = {Task{0, 0, 9}};
    JobHandle job = svc.submit(std::move(spec));
    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), treeSize(9));

    while (svc.stats().workerRestarts < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // A post-heal job completes with the pool back at full capacity.
    std::atomic<uint64_t> after{0};
    JobSpec spec2;
    spec2.name = "after-heal";
    spec2.process = treeJob(after);
    spec2.initial = {Task{0, 1, 6}};
    JobHandle job2 = svc.submit(std::move(spec2));
    EXPECT_EQ(job2.wait(), JobState::Completed);
    EXPECT_EQ(after.load(), treeSize(6));

    svc.shutdown();

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.workerRestarts, 1u);
    // Every slot announced itself at startup, and the healed slot
    // announced once more when its thread resumed after the re-arm —
    // the bind that re-pins it to the slot's (unchanged) node.
    uint64_t totalBinds = 0;
    for (unsigned tid = 0; tid < threads; ++tid) {
        EXPECT_GE(inner.workerBinds(tid), 1u) << tid;
        totalBinds += inner.workerBinds(tid);
        EXPECT_EQ(inner.nodeOfWorker(tid),
                  config.topology.nodeOfWorker(tid, threads))
            << "node membership must survive the heal";
    }
    EXPECT_EQ(totalBinds, uint64_t(threads) + stats.workerRestarts);

    std::string why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
}

/**
 * Supervision: the svc.worker.wedge drill stalls one worker past the
 * wedged threshold without heartbeats. The supervisor must demote it
 * through Suspect -> Wedged, quarantine + reclaim, supersede the
 * stalled thread, and re-arm the slot once that thread wakes and
 * leaves its loop — with the job still completing exactly.
 */
TEST(Service, SupervisorRecoversWedgedWorker)
{
    constexpr unsigned threads = 4;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);

    MetricsRegistry::Config metricsConfig;
    metricsConfig.checkSingleWriter = true;
    MetricsRegistry metrics(threads, metricsConfig);

    ScopedFaultInjection faults(13);
    faults->arm(faultsite::SvcWorkerWedge, FaultMode::OneShot, 500);

    ServiceOptions options;
    options.numThreads = threads;
    options.metrics = &metrics;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    options.supervisor.suspectAfterMs = 20;
    options.supervisor.wedgedAfterMs = 100; // drill stalls 3x this
    options.supervisor.maxRestarts = 8;
    ExecutorService svc(verify, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "tree";
    spec.process = treeJob(processed);
    spec.initial = {Task{0, 0, 9}};
    JobHandle job = svc.submit(std::move(spec));
    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), treeSize(9));

    // The wedge resolves through supersession: the stalled thread
    // leaves its loop, the slot is re-armed. (>= because a loaded host
    // may add organic wedges.)
    while (svc.stats().workerRestarts < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    svc.shutdown();

    std::string why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
    EXPECT_EQ(metrics.writerViolations(), 0u);

    ServiceStats stats = svc.stats();
    EXPECT_EQ(faults->fireCount(faultsite::SvcWorkerWedge), 1u);
    EXPECT_GE(stats.wedgesDetected, 1u);
    EXPECT_GE(stats.workerRestarts, 1u);
    // Healthy -> Suspect -> Wedged -> Dead -> Healthy: >= 4 flips.
    EXPECT_GE(stats.healthTransitions, 4u);
    EXPECT_FALSE(stats.escalated);

    // The forced reclamation recorded its latency series.
    MetricsSnapshot snap = metrics.snapshot();
    bool sawReclaimSeries = false;
    for (const auto &series : snap.series) {
        if (series.name == "reclaim_latency_ms")
            sawReclaimSeries = series.totalRecorded >= 1;
    }
    EXPECT_TRUE(sawReclaimSeries);
}

/**
 * Supervision: a worker wedged *inside* a task, holding it. The
 * supervisor quarantines the worker and reclaims its queues while its
 * thread is still in the ProcessFn, which then emits 64 children into
 * that worker's private PQ. The service arms the scheduler's
 * owner-side guard for as long as its supervisor runs, so the drain on
 * the monitor thread and the worker's own push and pop never
 * overlap (a sanitizer build reports any data race here); the job
 * completes and the ledger balances.
 */
TEST(Service, SupervisorReclaimsWorkerWedgedInsideATask)
{
    constexpr unsigned threads = 2;
    HdCpsConfig config = HdCpsScheduler::configSrq();
    config.tdf = 0; // children stay with the wedged worker
    HdCpsScheduler inner(threads, config);
    VerifyingScheduler verify(inner);

    ServiceOptions options;
    options.numThreads = threads;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    options.supervisor.suspectAfterMs = 10;
    options.supervisor.wedgedAfterMs = 20;
    ExecutorService svc(verify, options);
    EXPECT_TRUE(inner.reclaimGuarded());

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "wedged-root";
    spec.process = [&](unsigned, const Task &task,
                       std::vector<Task> &children) {
        processed.fetch_add(1, std::memory_order_relaxed);
        if (task.data == 0)
            return;
        for (int ms = 0; ms < 5000 && svc.stats().wedgesDetected == 0;
             ++ms)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (uint32_t i = 0; i < 64; ++i)
            children.push_back(Task{1, i + 1, 0});
    };
    spec.initial = {Task{0, 0, 1}};
    JobHandle job = svc.submit(std::move(spec));
    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), 65u);
    EXPECT_GE(svc.stats().wedgesDetected, 1u);
    svc.shutdown();

    std::string why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
}

/**
 * The heal keeps the slot's thread. Once every slot has run tasks of a
 * first job, the svc.worker.die drill kills one worker; its thread
 * latches the crash and parks, the monitor re-arms the slot, and the
 * same thread resumes. A second job then runs on every slot, so a heal
 * that joined the dead thread and spawned a new one would show two
 * threads in the healed slot, and one that never resumed it would show
 * a slot idle through the second job. Threads carry a thread_local serial
 * rather than std::thread::id, which a new thread may reuse once the
 * old one was joined.
 */
TEST(Service, HealKeepsTheSlotsThread)
{
    constexpr unsigned threads = 4;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);

    // Installed only after the first job, so the death comes after the
    // doomed slot's thread has run tasks.
    FaultRegistry deaths(29);
    deaths.arm(faultsite::SvcWorkerDie, FaultMode::OneShot, 1);

    ServiceOptions options;
    options.numThreads = threads;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    options.supervisor.suspectAfterMs = 500;
    options.supervisor.wedgedAfterMs = 2000;
    options.supervisor.maxRestarts = 4;
    ExecutorService svc(verify, options);

    static std::atomic<uint64_t> nextSerial{1};
    std::mutex seenMutex;
    std::vector<std::set<uint64_t>> seen(threads);
    std::vector<bool> ranAfter(threads, false);
    std::atomic<bool> healed{false};
    std::atomic<uint64_t> processed{0};
    ProcessFn tree = treeJob(processed);
    ProcessFn recording = [&](unsigned tid, const Task &task,
                              std::vector<Task> &children) {
        thread_local const uint64_t serial = nextSerial.fetch_add(1);
        {
            std::lock_guard<std::mutex> lock(seenMutex);
            seen[tid].insert(serial);
            if (healed.load(std::memory_order_relaxed))
                ranAfter[tid] = true;
        }
        tree(tid, task, children);
    };

    JobSpec before;
    before.name = "before-heal";
    before.process = recording;
    before.initial = {Task{0, 0, 9}};
    EXPECT_EQ(svc.submit(std::move(before)).wait(), JobState::Completed);

    FaultRegistry::install(&deaths);
    for (int ms = 0; ms < 10000 && svc.stats().workerRestarts < 1; ++ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    FaultRegistry::install(nullptr);
    ASSERT_EQ(svc.stats().workerRestarts, 1u);
    healed.store(true, std::memory_order_relaxed);

    JobSpec after;
    after.name = "after-heal";
    after.process = recording;
    after.initial = {Task{0, 1, 8}};
    EXPECT_EQ(svc.submit(std::move(after)).wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), treeSize(9) + treeSize(8));
    svc.shutdown();

    EXPECT_EQ(deaths.fireCount(faultsite::SvcWorkerDie), 1u);
    EXPECT_EQ(svc.stats().workerRestarts, 1u);
    EXPECT_EQ(svc.stats().crashesDetected, 1u);
    for (unsigned tid = 0; tid < threads; ++tid) {
        EXPECT_EQ(seen[tid].size(), 1u) << "slot " << tid;
        EXPECT_TRUE(ranAfter[tid]) << "slot " << tid
                                   << " ran nothing after the heal";
    }
    std::string why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
}

#ifdef __linux__
/** Every CPU mask each slot processed a task with, per slot. */
class SlotMasks
{
  public:
    explicit SlotMasks(unsigned threads) : masks_(threads) {}

    /** Wrap `inner` so every task records its thread's mask. */
    ProcessFn
    recording(ProcessFn inner)
    {
        return [this, inner](unsigned tid, const Task &task,
                             std::vector<Task> &children) {
            std::vector<unsigned> mask = threadCpus();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                masks_[tid].insert(std::move(mask));
            }
            inner(tid, task, children);
        };
    }

    std::set<std::vector<unsigned>>
    of(unsigned tid)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return masks_[tid];
    }

  private:
    std::mutex mutex_;
    std::vector<std::set<std::vector<unsigned>>> masks_;
};

/** Run one depth-9 tree job on `svc`; every slot processes some of
 *  its tasks (cf. HealKeepsTheSlotsThread). */
void
runTreeJob(ExecutorService &svc, SlotMasks &masks)
{
    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "tree";
    spec.process = masks.recording(treeJob(processed));
    spec.initial = {Task{0, 0, 9}};
    EXPECT_EQ(svc.submit(std::move(spec)).wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), treeSize(9));
}

TEST(Service, EachWorkerRunsOnItsOwnCpu)
{
    const std::vector<unsigned> original = threadCpus();
    constexpr unsigned threads = 3;
    if (original.size() < threads + 1)
        GTEST_SKIP() << "the owner's mask holds fewer than 4 CPUs";
    // The slots start after the CPU the owner runs on at construction;
    // the owner can migrate between this test's read and the plan's,
    // so one of a few tries must see its CPU left free.
    bool ownerCpuFree = false;
    for (int attempt = 0; attempt < 5 && !ownerCpuFree; ++attempt) {
        MultiQueueScheduler sched(threads);
        ServiceOptions options;
        options.numThreads = threads;
        const int ownerCpu = sched_getcpu();
        ExecutorService svc(sched, options);
        SlotMasks masks(threads);
        runTreeJob(svc, masks);
        svc.shutdown();
        std::set<unsigned> cpus;
        ownerCpuFree = true;
        for (unsigned tid = 0; tid < threads; ++tid) {
            const std::set<std::vector<unsigned>> seen = masks.of(tid);
            ASSERT_EQ(seen.size(), 1u) << "slot " << tid;
            const std::vector<unsigned> &mask = *seen.begin();
            ASSERT_EQ(mask.size(), 1u) << "slot " << tid
                                       << " was not pinned";
            EXPECT_NE(std::find(original.begin(), original.end(), mask[0]),
                      original.end())
                << "slot " << tid << " left the owner's mask";
            cpus.insert(mask[0]);
            ownerCpuFree = ownerCpuFree && mask[0] != unsigned(ownerCpu);
        }
        EXPECT_EQ(cpus.size(), threads) << "two slots share a CPU";
        EXPECT_EQ(threadCpus(), original) << "the owner was pinned";
    }
    EXPECT_TRUE(ownerCpuFree) << "a slot always took the owner's CPU";
}

TEST(Service, TooFewCpusPinsNothing)
{
    const std::vector<unsigned> original = threadCpus();
    if (original.size() < 2)
        GTEST_SKIP() << "the process mask holds one CPU";
    constexpr unsigned threads = 3;
    const std::vector<unsigned> narrow(original.begin(),
                                       original.begin() + 2);
    ASSERT_TRUE(setThreadCpus(narrow));
    MultiQueueScheduler sched(threads);
    ServiceOptions options;
    options.numThreads = threads;
    ExecutorService svc(sched, options);
    ASSERT_TRUE(setThreadCpus(original));
    SlotMasks masks(threads);
    runTreeJob(svc, masks);
    svc.shutdown();
    for (unsigned tid = 0; tid < threads; ++tid) {
        EXPECT_EQ(masks.of(tid), std::set<std::vector<unsigned>>{narrow})
            << "slot " << tid << " was pinned or left the owner's mask";
    }
}

/** A healed slot resumes on its own thread (HealKeepsTheSlotsThread),
 *  and so on its own CPU. */
TEST(Service, HealedSlotKeepsItsCpu)
{
    constexpr unsigned threads = 3;
    if (threadCpus().size() < threads)
        GTEST_SKIP() << "the owner's mask holds fewer than 3 CPUs";
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);
    FaultRegistry deaths(29);
    deaths.arm(faultsite::SvcWorkerDie, FaultMode::OneShot, 1);

    ServiceOptions options;
    options.numThreads = threads;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    options.supervisor.suspectAfterMs = 500;
    options.supervisor.wedgedAfterMs = 2000;
    options.supervisor.maxRestarts = 4;
    ExecutorService svc(verify, options);

    SlotMasks before(threads);
    runTreeJob(svc, before);
    FaultRegistry::install(&deaths);
    for (int ms = 0; ms < 10000 && svc.stats().workerRestarts < 1; ++ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    FaultRegistry::install(nullptr);
    ASSERT_EQ(svc.stats().workerRestarts, 1u);
    SlotMasks after(threads);
    runTreeJob(svc, after);
    svc.shutdown();

    for (unsigned tid = 0; tid < threads; ++tid) {
        const std::set<std::vector<unsigned>> mask = before.of(tid);
        ASSERT_EQ(mask.size(), 1u) << "slot " << tid;
        EXPECT_EQ(mask.begin()->size(), 1u)
            << "slot " << tid << " was not pinned";
        EXPECT_EQ(after.of(tid), mask)
            << "slot " << tid << " left its CPU after the heal";
    }
    std::string why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;
}
#endif

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

/** A supervised service runs one thread per worker slot and one
 *  monitor for deadlines and supervision alike. */
TEST(Service, OneMonitorThread)
{
    constexpr unsigned threads = 3;
    MultiQueueScheduler sched(threads);
    ServiceOptions options;
    options.numThreads = threads;
    options.supervisor.enabled = true;
    const unsigned before = processThreads();
    if (before == 0)
        GTEST_SKIP() << "no thread count in /proc/self/status";
    ExecutorService svc(sched, options);
    EXPECT_EQ(processThreads(), before + threads + 1);
}

/**
 * Deadlines and healing share the one monitor, so a wedge must not
 * hold up a deadline. One worker wedges for 3x the wedged threshold;
 * once the monitor has detected it (the slot is Wedged and its thread
 * still asleep), a job with a 50 ms deadline is submitted and must
 * fail with the deadline error long before the wedge ends — before the
 * slot's restart.
 */
TEST(Service, DeadlineExpiresWhileAWorkerIsWedged)
{
    constexpr unsigned threads = 2;
    MultiQueueScheduler sched(threads);
    ScopedFaultInjection faults(31);
    faults->arm(faultsite::SvcWorkerWedge, FaultMode::OneShot, 1);

    ServiceOptions options;
    options.numThreads = threads;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    options.supervisor.suspectAfterMs = 20;
    options.supervisor.wedgedAfterMs = 400; // the drill stalls 1200 ms
    ExecutorService svc(sched, options);

    for (int ms = 0; ms < 5000 && svc.stats().wedgesDetected == 0; ++ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GE(svc.stats().wedgesDetected, 1u);

    std::atomic<int64_t> budget{1 << 28};
    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "deadline-under-wedge";
    spec.process = replenishJob(budget, processed, /*sleepUs=*/200);
    spec.initial = {Task{0, 1, 0}};
    spec.deadlineMs = 50;
    JobHandle job = svc.submit(std::move(spec));

    JobState state = JobState::Running;
    EXPECT_TRUE(job.waitFor(500, &state))
        << "job still " << jobStateName(job.state());
    EXPECT_EQ(state, JobState::Failed);
    EXPECT_NE(job.error().find("deadline"), std::string::npos)
        << job.error();
    EXPECT_EQ(svc.stats().workerRestarts, 0u)
        << "the wedge ended before the deadline fired";
    svc.shutdown();
    EXPECT_EQ(svc.stats().deadlineExpired, 1u);
}

TEST(Service, GuardFollowsTheSupervisor)
{
    // One guard rule: the owner-side guard is on exactly when a
    // monitor may reclaim, i.e. when the service runs a supervisor.
    HdCpsScheduler inner(2, HdCpsScheduler::configSw());
    inner.setReclaimAfterMs(50); // a stale setting from earlier use
    {
        ServiceOptions options;
        options.numThreads = 2;
        ExecutorService svc(inner, options);
        EXPECT_FALSE(inner.reclaimGuarded());
    }
    {
        ServiceOptions options;
        options.numThreads = 2;
        options.supervisor.enabled = true;
        ExecutorService svc(inner, options);
        EXPECT_TRUE(inner.reclaimGuarded());
    }
}

// ------------------------------------------ thread-free supervisor FSM

/** Milliseconds as the supervisor's nanosecond clock. */
constexpr uint64_t
msNs(uint64_t ms)
{
    return ms * 1000000;
}

SupervisorPolicy
fsmPolicy(unsigned maxRestarts = 8)
{
    SupervisorPolicy policy;
    policy.enabled = true;
    policy.suspectAfterMs = 10;
    policy.wedgedAfterMs = 20;
    policy.maxRestarts = maxRestarts;
    policy.restartWindowMs = 1000;
    return policy;
}

using Decision = WorkerSupervisor::Decision;

TEST(WorkerSupervisorFsm, StaleHeartbeatWalksToWedgedAndQuarantinesOnce)
{
    WorkerSupervisor sup(2, fsmPolicy());
    sup.beat(0, msNs(1));
    sup.beat(1, msNs(1));
    const uint64_t epoch = sup.epochOf(0);

    EXPECT_EQ(sup.poll(0, msNs(5)), Decision::None);
    EXPECT_EQ(sup.health(0), WorkerHealth::Healthy);
    EXPECT_EQ(sup.poll(0, msNs(12)), Decision::None);
    EXPECT_EQ(sup.health(0), WorkerHealth::Suspect);
    EXPECT_FALSE(sup.superseded(0, epoch));

    EXPECT_EQ(sup.poll(0, msNs(22)), Decision::Quarantine);
    EXPECT_EQ(sup.health(0), WorkerHealth::Wedged);
    EXPECT_EQ(sup.epochOf(0), epoch + 1);
    EXPECT_TRUE(sup.superseded(0, epoch));
    // Still stale, still wedged: no second Quarantine.
    EXPECT_EQ(sup.poll(0, msNs(40)), Decision::None);
    EXPECT_EQ(sup.poll(0, msNs(80)), Decision::None);
    EXPECT_EQ(sup.stats().wedgesDetected, 1u);
    EXPECT_EQ(sup.stats().healthTransitions, 2u);
    EXPECT_EQ(sup.drainTransitions(0), 2u);
    EXPECT_EQ(sup.drainTransitions(1), 0u);

    // A slot first polled past the wedged threshold still passes
    // through Suspect, and its epoch is bumped the same way.
    const uint64_t epoch1 = sup.epochOf(1);
    EXPECT_EQ(sup.poll(1, msNs(30)), Decision::Quarantine);
    EXPECT_EQ(sup.epochOf(1), epoch1 + 1);
    EXPECT_EQ(sup.drainTransitions(1), 2u);
}

TEST(WorkerSupervisorFsm, FreshBeatReturnsSuspectToHealthy)
{
    WorkerSupervisor sup(1, fsmPolicy());
    sup.beat(0, msNs(1));
    EXPECT_EQ(sup.poll(0, msNs(12)), Decision::None);
    EXPECT_EQ(sup.health(0), WorkerHealth::Suspect);
    sup.beat(0, msNs(13));
    EXPECT_EQ(sup.poll(0, msNs(14)), Decision::None);
    EXPECT_EQ(sup.health(0), WorkerHealth::Healthy);
    EXPECT_EQ(sup.stats().wedgesDetected, 0u);
    EXPECT_EQ(sup.stats().healthTransitions, 2u);
}

TEST(WorkerSupervisorFsm, ExitAfterWedgeRestartsThenBudgetEscalates)
{
    WorkerSupervisor sup(1, fsmPolicy(/*maxRestarts=*/1));
    sup.beat(0, msNs(1));
    ASSERT_EQ(sup.poll(0, msNs(25)), Decision::Quarantine);
    sup.noteExit(0, /*crashed=*/false);
    EXPECT_EQ(sup.poll(0, msNs(26)), Decision::Restart);
    EXPECT_EQ(sup.health(0), WorkerHealth::Dead);
    // Dead is mid-heal: nothing more until noteRestarted.
    EXPECT_EQ(sup.poll(0, msNs(27)), Decision::None);
    sup.noteRestarted(0, msNs(28));

    // The second death inside the window finds the budget spent.
    ASSERT_EQ(sup.poll(0, msNs(60)), Decision::Quarantine);
    sup.noteExit(0, /*crashed=*/false);
    EXPECT_EQ(sup.poll(0, msNs(61)), Decision::Escalate);
    EXPECT_TRUE(sup.escalated());
    EXPECT_TRUE(sup.stats().escalated);
    EXPECT_EQ(sup.stats().workerRestarts, 1u);
    EXPECT_EQ(sup.stats().crashesDetected, 0u);
}

TEST(WorkerSupervisorFsm, CleanExitOfANeverSupersededSlotIsNone)
{
    WorkerSupervisor sup(2, fsmPolicy());
    sup.beat(0, msNs(1));
    sup.beat(1, msNs(1));
    // A shutdown drain: the slot leaves cleanly, nobody superseded it.
    sup.noteExit(0, /*crashed=*/false);
    EXPECT_EQ(sup.poll(0, msNs(2)), Decision::None);
    EXPECT_EQ(sup.poll(0, msNs(50)), Decision::None);
    EXPECT_EQ(sup.health(0), WorkerHealth::Healthy);
    // A crash exit is a death whatever the heartbeat says.
    sup.noteExit(1, /*crashed=*/true);
    EXPECT_EQ(sup.poll(1, msNs(2)), Decision::Restart);
    EXPECT_EQ(sup.stats().crashesDetected, 1u);
}

TEST(WorkerSupervisorFsm, NoteRestartedRearmsTheLifeline)
{
    WorkerSupervisor sup(1, fsmPolicy());
    sup.beat(0, msNs(1));
    ASSERT_EQ(sup.poll(0, msNs(25)), Decision::Quarantine);
    sup.noteExit(0, /*crashed=*/false);
    ASSERT_EQ(sup.poll(0, msNs(26)), Decision::Restart);
    const uint64_t before = sup.epochOf(0);

    sup.noteRestarted(0, msNs(30));
    const uint64_t epoch = sup.epochOf(0);
    EXPECT_EQ(epoch, before + 1);
    EXPECT_FALSE(sup.superseded(0, epoch));
    EXPECT_EQ(sup.health(0), WorkerHealth::Healthy);
    EXPECT_EQ(sup.stats().workerRestarts, 1u);
    // The exit latch is cleared and the heartbeat fresh: no stale
    // Restart, no early wedge.
    EXPECT_EQ(sup.poll(0, msNs(31)), Decision::None);
    EXPECT_EQ(sup.poll(0, msNs(45)), Decision::None);
    EXPECT_EQ(sup.health(0), WorkerHealth::Suspect);
    // The lifeline is live again: staleness wedges the new incarnation.
    EXPECT_EQ(sup.poll(0, msNs(51)), Decision::Quarantine);
    EXPECT_TRUE(sup.superseded(0, epoch));
}

/**
 * Poison quarantine: tasks the svc.task.poison drill marks fail on
 * every attempt; with deadLetterOnExhaustion set they are diverted to
 * the job's dead-letter queue and the job still *completes*, with
 * PoisonedTasks matching the injected count exactly.
 */
TEST(Service, PoisonedTasksAreDeadLetteredNotFatal)
{
    constexpr unsigned threads = 2;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);

    ScopedFaultInjection faults(17);
    faults->arm(faultsite::SvcTaskPoison, FaultMode::EveryNth, 50);

    ServiceOptions options;
    options.numThreads = threads;
    ExecutorService svc(verify, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "poisoned-tree";
    spec.process = treeJob(processed);
    spec.initial = {Task{0, 0, 7}};
    spec.retry.maxAttempts = 3;
    spec.retry.backoffBaseUs = 5;
    spec.retry.backoffMaxUs = 50;
    spec.retry.deadLetterOnExhaustion = true;
    JobHandle job = svc.submit(std::move(spec));

    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_TRUE(job.error().empty());

    uint64_t injected = faults->fireCount(faultsite::SvcTaskPoison);
    ASSERT_GE(injected, 1u);
    EXPECT_EQ(job.poisonedTasks(), injected);
    std::vector<Task> dead = job.deadLetters();
    ASSERT_EQ(dead.size(), injected);
    for (const Task &t : dead) {
        EXPECT_EQ(t.attempt, spec.retry.maxAttempts - 1);
        EXPECT_EQ(t.job, job.id());
    }
    // A poisoned task never runs its ProcessFn, so its subtree is
    // pruned: strictly fewer processed tasks than the full tree.
    EXPECT_LT(processed.load(), treeSize(7));

    svc.shutdown();

    // Dead-lettered tasks count as accounted: the job drained to zero
    // outstanding and the global ledger balances exactly.
    std::string why;
    EXPECT_TRUE(verify.checkJobDrained(job.id(), &why)) << why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.poisonedTasks, injected);
    // Each poisoned task burned maxAttempts - 1 retries; no other
    // task ever threw.
    EXPECT_EQ(stats.taskRetries,
              injected * (spec.retry.maxAttempts - 1));
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u);
}

/** Without the dead-letter policy, a poisoned task exhausts its
 *  retries and fails the job — the pre-existing semantics. */
TEST(Service, PoisonedTaskFailsJobWithoutDeadLetterPolicy)
{
    MultiQueueScheduler sched(1);
    ScopedFaultInjection faults(19);
    faults->arm(faultsite::SvcTaskPoison, FaultMode::OneShot, 3);

    ServiceOptions options;
    options.numThreads = 1;
    ExecutorService svc(sched, options);

    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "no-quarantine";
    spec.process = treeJob(processed);
    spec.initial = {Task{0, 0, 4}};
    spec.retry.maxAttempts = 2;
    spec.retry.backoffBaseUs = 5;
    spec.retry.backoffMaxUs = 50;
    JobHandle job = svc.submit(std::move(spec));

    EXPECT_EQ(job.wait(), JobState::Failed);
    EXPECT_NE(job.error().find("poison"), std::string::npos);
    EXPECT_EQ(job.poisonedTasks(), 0u);
    EXPECT_TRUE(job.deadLetters().empty());
    EXPECT_EQ(svc.stats().poisonedTasks, 0u);
}

/**
 * Escalation: with a restart budget of one, the second worker death
 * exhausts it — the service fails every live job with an escalation
 * error, rejects new submissions, and still drains to exact task
 * conservation.
 */
TEST(Service, EscalationFailsServiceAfterRestartBudget)
{
    constexpr unsigned threads = 2;
    MultiQueueScheduler inner(threads);
    VerifyingScheduler verify(inner);

    ScopedFaultInjection faults(23);
    faults->arm(faultsite::SvcWorkerDie, FaultMode::EveryNth, 300);

    ServiceOptions options;
    options.numThreads = threads;
    options.supervisor.enabled = true;
    options.supervisor.probeIntervalMs = 1;
    options.supervisor.suspectAfterMs = 500;
    options.supervisor.wedgedAfterMs = 2000;
    options.supervisor.maxRestarts = 1;
    options.supervisor.restartWindowMs = 60000;
    ExecutorService svc(verify, options);

    // Effectively unbounded tenant: only escalation can end it.
    std::atomic<int64_t> budget{1 << 28};
    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "doomed-tenant";
    spec.process = replenishJob(budget, processed);
    for (uint32_t i = 0; i < 8; ++i)
        spec.initial.push_back(Task{i, i, 0});
    JobHandle job = svc.submit(std::move(spec));

    EXPECT_EQ(job.wait(), JobState::Failed);
    EXPECT_NE(job.error().find("escalated"), std::string::npos);
    EXPECT_TRUE(svc.escalated());

    JobSpec late;
    late.name = "too-late";
    late.process = replenishJob(budget, processed);
    late.initial = {Task{0, 99, 0}};
    JobHandle rejected = svc.submit(std::move(late));
    EXPECT_EQ(rejected.state(), JobState::Rejected);
    EXPECT_NE(rejected.error().find("escalated"), std::string::npos);

    svc.shutdown();

    std::string why;
    EXPECT_TRUE(verify.checkJobDrained(job.id(), &why)) << why;
    EXPECT_TRUE(verify.checkComplete(false, &why)) << why;

    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.workerRestarts, 1u); // budget spent exactly
    EXPECT_GE(stats.crashesDetected, 2u);
    EXPECT_TRUE(stats.escalated);
    EXPECT_EQ(stats.failed, 1u);
}

/**
 * TSan regression: JobHandle::wait()/waitFor()/cancel() racing
 * ExecutorService::shutdown() from independent threads. The handles'
 * record outlives the service entry, so every combination must be
 * data-race-free and every job must still reach a terminal state.
 */
TEST(Service, WaitAndCancelRaceShutdown)
{
    constexpr unsigned threads = 2;
    MultiQueueScheduler sched(threads);
    ServiceOptions options;
    options.numThreads = threads;
    options.admissionCapacity = 16;
    ExecutorService svc(sched, options);

    std::atomic<uint64_t> processed{0};
    std::vector<JobHandle> jobs;
    for (int i = 0; i < 6; ++i) {
        JobSpec spec;
        spec.name = "racer-" + std::to_string(i);
        spec.process = treeJob(processed);
        spec.initial = {Task{0, uint32_t(i), 4}};
        jobs.push_back(svc.submit(std::move(spec)));
    }

    std::thread waiter([&jobs] {
        for (JobHandle &job : jobs) {
            JobState s = job.wait();
            EXPECT_TRUE(jobStateTerminal(s));
        }
    });
    std::thread canceller([&jobs] {
        for (JobHandle &job : jobs) {
            job.cancel(); // either side of the race is legal
            JobState probe;
            job.waitFor(1, &probe);
        }
    });
    svc.shutdown(); // concurrent with both racers

    waiter.join();
    canceller.join();
    for (JobHandle &job : jobs)
        EXPECT_TRUE(job.done()) << job.name();
}

// ------------------------------------ weighted fair sharing (tenants)

/** A single-task job for `tenant` whose ProcessFn bumps `done`. */
JobSpec
tenantJob(TenantId tenant, std::atomic<uint64_t> &done, uint32_t node)
{
    JobSpec spec;
    spec.name = "t" + std::to_string(tenant) + "-" + std::to_string(node);
    spec.tenant = tenant;
    spec.process = [&done](unsigned, const Task &,
                           std::vector<Task> &) {
        done.fetch_add(1, std::memory_order_acq_rel);
    };
    spec.initial = {Task{0, node, 0}};
    return spec;
}

/** Hold the single worker inside a job until `release` flips, so a
 *  test can queue a backlog before any dispatch happens. */
JobHandle
submitBlocker(ExecutorService &svc, std::atomic<bool> &release)
{
    auto entered = std::make_shared<std::atomic<bool>>(false);
    JobSpec spec;
    spec.name = "blocker";
    spec.process = [&release, entered](unsigned, const Task &,
                                       std::vector<Task> &) {
        entered->store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    };
    spec.initial = {Task{0, 9999, 0}};
    JobHandle handle = svc.submit(std::move(spec));
    while (!entered->load(std::memory_order_acquire))
        std::this_thread::yield();
    return handle;
}

TEST(Fairness, WeightedTenantsSplitDispatchTwoToOne)
{
    // One worker + a global in-flight budget of 1 makes dispatch
    // strictly serial, so the SFQ pick order IS the completion order:
    // with weights 2:1 and unit-cost jobs, every window of three
    // dispatches serves tenant 1 twice and tenant 2 once. The ±15%
    // acceptance band is generous for this deterministic setup; the
    // bound below is tighter.
    MultiQueueScheduler inner(1);
    VerifyingScheduler sched(inner);
    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 128;
    options.maxInFlightTasks = 1;
    options.tenants[1].weight = 2.0;
    options.tenants[2].weight = 1.0;
    ExecutorService svc(sched, options);

    std::atomic<bool> release{false};
    JobHandle blocker = submitBlocker(svc, release);

    constexpr uint64_t kJobsPerTenant = 30;
    std::atomic<uint64_t> heavyDone{0};
    std::atomic<uint64_t> lightDone{0};
    std::atomic<uint64_t> lightAtHeavyEnd{~uint64_t(0)};
    std::vector<JobHandle> jobs;
    for (uint64_t i = 0; i < kJobsPerTenant; ++i) {
        JobSpec heavy = tenantJob(1, heavyDone, uint32_t(i));
        // Snapshot the light tenant's progress the instant the heavy
        // backlog empties: the 2:1 share claim only holds while BOTH
        // tenants are backlogged.
        heavy.process = [&](unsigned, const Task &,
                            std::vector<Task> &) {
            if (heavyDone.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                kJobsPerTenant) {
                lightAtHeavyEnd.store(
                    lightDone.load(std::memory_order_acquire),
                    std::memory_order_release);
            }
        };
        jobs.push_back(svc.submit(std::move(heavy)));
        jobs.push_back(svc.submit(tenantJob(2, lightDone, uint32_t(i))));
    }
    for (const JobHandle &job : jobs)
        ASSERT_NE(job.state(), JobState::Rejected) << job.error();

    release.store(true, std::memory_order_release);
    EXPECT_EQ(blocker.wait(), JobState::Completed);
    for (JobHandle &job : jobs)
        EXPECT_EQ(job.wait(), JobState::Completed) << job.name();

    // While tenant 1 drained its 30 jobs, tenant 2 must have been
    // served half as often: 15 ± 15% (plus the startup transient).
    uint64_t light = lightAtHeavyEnd.load(std::memory_order_acquire);
    EXPECT_GE(light, 12u);
    EXPECT_LE(light, 18u);

    std::vector<TenantStats> tenants = svc.tenantStats();
    ASSERT_GE(tenants.size(), 3u); // tenant 0 (blocker) + 1 + 2
    EXPECT_EQ(tenants[1].tenant, 1u);
    EXPECT_EQ(tenants[1].weight, 2.0);
    EXPECT_EQ(tenants[1].jobsCompleted, kJobsPerTenant);
    EXPECT_EQ(tenants[1].tasksProcessed, kJobsPerTenant);
    EXPECT_EQ(tenants[2].jobsCompleted, kJobsPerTenant);

    svc.shutdown();
    // Exact conservation, per job and overall: every incarnation
    // pushed was popped exactly once.
    std::string why;
    EXPECT_TRUE(sched.checkComplete(false, &why)) << why;
    for (const JobHandle &job : jobs)
        EXPECT_EQ(sched.popsForJob(job.id()), 1u) << job.name();
}

TEST(Fairness, WeightOneTenantProgressesUnderHeavyFlood)
{
    // The starvation regression the tentpole fixes: under the old
    // strict (priority, id) admission queue, a continuously-backlogged
    // high-priority tenant kept the victim's job queued indefinitely —
    // here the victim would wait for all 200 flood jobs. Under SFQ a
    // weight-1 tenant faces at most ~weight-ratio dispatches per round,
    // so the victim completes while nearly all of the flood is still
    // queued.
    MultiQueueScheduler inner(1);
    VerifyingScheduler sched(inner);
    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 512;
    options.maxInFlightTasks = 1;
    options.tenants[1].weight = 8.0;
    options.tenants[2].weight = 1.0;
    ExecutorService svc(sched, options);

    std::atomic<bool> release{false};
    JobHandle blocker = submitBlocker(svc, release);

    constexpr uint64_t kFloodJobs = 200;
    std::atomic<uint64_t> floodDone{0};
    std::atomic<uint64_t> victimDone{0};
    std::atomic<uint64_t> floodAtVictim{~uint64_t(0)};
    std::vector<JobHandle> flood;
    for (uint64_t i = 0; i < kFloodJobs; ++i) {
        JobSpec spec = tenantJob(1, floodDone, uint32_t(i));
        spec.priority = 0; // the flood outranks the victim on priority
        flood.push_back(svc.submit(std::move(spec)));
    }
    JobSpec victimSpec = tenantJob(2, victimDone, 7000);
    victimSpec.priority = 5;
    victimSpec.process = [&](unsigned, const Task &,
                             std::vector<Task> &) {
        victimDone.fetch_add(1, std::memory_order_acq_rel);
        floodAtVictim.store(floodDone.load(std::memory_order_acquire),
                            std::memory_order_release);
    };
    JobHandle victim = svc.submit(std::move(victimSpec));
    ASSERT_NE(victim.state(), JobState::Rejected) << victim.error();
    EXPECT_EQ(victim.tenant(), 2u);

    release.store(true, std::memory_order_release);
    EXPECT_EQ(victim.wait(), JobState::Completed);
    // The victim ran within its first weighted round: at most ~the
    // weight ratio (8) plus the startup transient of flood dispatches
    // preceded it — not the whole 200-job flood.
    EXPECT_LE(floodAtVictim.load(std::memory_order_acquire), 20u);

    for (JobHandle &job : flood)
        EXPECT_EQ(job.wait(), JobState::Completed) << job.name();
    EXPECT_EQ(blocker.wait(), JobState::Completed);
    svc.shutdown();
    std::string why;
    EXPECT_TRUE(sched.checkComplete(false, &why)) << why;
}

TEST(Fairness, TenantQueueQuotaRejectsWithTypedReason)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    options.admissionCapacity = 16;
    options.tenants[5].maxQueuedJobs = 1;
    ExecutorService svc(sched, options);

    std::atomic<bool> release{false};
    JobHandle blocker = submitBlocker(svc, release);

    std::atomic<uint64_t> done{0};
    JobHandle first = svc.submit(tenantJob(5, done, 1));
    EXPECT_NE(first.state(), JobState::Rejected) << first.error();

    JobHandle second = svc.submit(tenantJob(5, done, 2));
    EXPECT_EQ(second.state(), JobState::Rejected);
    EXPECT_EQ(second.rejectReason(), RejectReason::TenantQueueFull);
    EXPECT_NE(second.error().find("queue quota"), std::string::npos)
        << second.error();
    EXPECT_STREQ(rejectReasonName(second.rejectReason()),
                 "tenant_queue_full");

    // The quota is per tenant: another tenant still has queue space,
    // and the service-wide capacity was never the limit.
    JobHandle other = svc.submit(tenantJob(6, done, 3));
    EXPECT_NE(other.state(), JobState::Rejected) << other.error();
    EXPECT_EQ(other.rejectReason(), RejectReason::None);

    release.store(true, std::memory_order_release);
    EXPECT_EQ(first.wait(), JobState::Completed);
    EXPECT_EQ(other.wait(), JobState::Completed);
    EXPECT_EQ(svc.stats().rejected, 1u);
    std::vector<TenantStats> tenants = svc.tenantStats();
    for (const TenantStats &ts : tenants) {
        if (ts.tenant == 5) {
            EXPECT_EQ(ts.submitted, 2u);
            EXPECT_EQ(ts.rejected, 1u);
        }
    }
}

TEST(Fairness, TenantRateLimitAlwaysRejects)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    options.blockWhenFull = true; // rate limits must reject anyway
    options.tenants[3].admitRatePerSec = 0.001; // no refill in-test
    options.tenants[3].admitBurst = 1.0;
    ExecutorService svc(sched, options);

    std::atomic<uint64_t> done{0};
    JobHandle first = svc.submit(tenantJob(3, done, 1));
    EXPECT_NE(first.state(), JobState::Rejected) << first.error();

    JobHandle second = svc.submit(tenantJob(3, done, 2));
    EXPECT_EQ(second.state(), JobState::Rejected);
    EXPECT_EQ(second.rejectReason(), RejectReason::TenantRateLimited);
    EXPECT_NE(second.error().find("rate limit"), std::string::npos)
        << second.error();

    // Unlimited tenants are unaffected.
    JobHandle other = svc.submit(tenantJob(4, done, 3));
    EXPECT_NE(other.state(), JobState::Rejected) << other.error();
    EXPECT_EQ(first.wait(), JobState::Completed);
    EXPECT_EQ(other.wait(), JobState::Completed);
}

// ------------------------------------------- cooperative preemption

TEST(Preemption, DeprioritizeRetagsQueuedIncarnationsExactly)
{
    MultiQueueScheduler inner(1);
    VerifyingScheduler sched(inner);
    ServiceOptions options;
    options.numThreads = 1;
    ExecutorService svc(sched, options);

    // Six seed tasks; the first one processed parks the only worker
    // until the main thread has deprioritized the job, so the other
    // five incarnations are still queued when the demote level rises.
    constexpr uint32_t kSeeds = 6;
    std::atomic<bool> gateEntered{false};
    std::atomic<bool> gateRelease{false};
    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "preempted";
    spec.demotePenalty = 1000;
    spec.process = [&](unsigned, const Task &, std::vector<Task> &) {
        if (processed.fetch_add(1, std::memory_order_acq_rel) == 0) {
            gateEntered.store(true, std::memory_order_release);
            while (!gateRelease.load(std::memory_order_acquire))
                std::this_thread::yield();
        }
    };
    for (uint32_t i = 0; i < kSeeds; ++i)
        spec.initial.push_back(Task{10, i, 0});
    JobHandle job = svc.submit(std::move(spec));
    ASSERT_NE(job.state(), JobState::Rejected) << job.error();
    EXPECT_EQ(job.demoteLevel(), 0u);

    while (!gateEntered.load(std::memory_order_acquire))
        std::this_thread::yield();
    EXPECT_TRUE(job.deprioritize());
    EXPECT_EQ(job.demoteLevel(), 1u);
    gateRelease.store(true, std::memory_order_release);

    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(processed.load(), uint64_t(kSeeds));
    // Every not-yet-popped incarnation was re-tagged exactly once.
    EXPECT_EQ(svc.stats().demotedTasks, uint64_t(kSeeds - 1));
    // Terminal jobs can no longer be deprioritized.
    EXPECT_FALSE(job.deprioritize());

    svc.shutdown();
    // A re-tag is one completed incarnation plus one created one: the
    // ledger stays exactly balanced, and the per-job pop count is the
    // seeds plus one extra pop per re-tag.
    std::string why;
    EXPECT_TRUE(sched.checkComplete(false, &why)) << why;
    EXPECT_TRUE(sched.checkJobDrained(job.id(), &why)) << why;
    EXPECT_EQ(sched.popsForJob(job.id()),
              uint64_t(kSeeds + (kSeeds - 1)));
}

TEST(Preemption, DeadlinePressureAutoDemotesOnce)
{
    MultiQueueScheduler sched(1);
    ServiceOptions options;
    options.numThreads = 1;
    ExecutorService svc(sched, options);

    // Self-replenishing job that outlives its demoteAfterMs budget by a
    // wide margin: the monitor must demote it exactly once
    // (level 1), and the job still completes. Three parallel chains on
    // one worker keep stamp-0 incarnations queued at demotion time, so
    // the pop-time re-tag path fires too.
    std::atomic<int64_t> budget{400};
    std::atomic<uint64_t> processed{0};
    JobSpec spec;
    spec.name = "pressured";
    spec.process = replenishJob(budget, processed, /*sleepUs=*/500);
    spec.initial = {Task{0, 0, 0}, Task{0, 1, 0}, Task{0, 2, 0}};
    spec.demoteAfterMs = 25;
    JobHandle job = svc.submit(std::move(spec));
    ASSERT_NE(job.state(), JobState::Rejected) << job.error();

    EXPECT_EQ(job.wait(), JobState::Completed);
    EXPECT_EQ(job.demoteLevel(), 1u);
    ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.autoDemotedJobs, 1u);
    EXPECT_GE(stats.demotedTasks, 1u);
}

} // namespace
} // namespace hdcps
