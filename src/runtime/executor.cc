#include "runtime/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "runtime/supervisor.h"
#include "runtime/worker_common.h"
#include "support/compiler.h"
#include "support/fault.h"
#include "support/logging.h"
#include "support/straggler.h"
#include "support/timer.h"

namespace hdcps {

namespace {

/** Shared state visible to all workers of one run. The distributed
 *  termination counters and the failure latch are the shared
 *  runtime/worker_common.h machinery — the ExecutorService keeps the
 *  same two per *job*. */
struct RunState
{
    Scheduler *sched = nullptr;
    const ProcessFn *process = nullptr;
    RunOptions options;
    TerminationCounters term;
    DriftTracker drift;
    DriftSeries series; ///< touched by worker 0 only

    /** Failure latch: stop tells workers to drain out; the first
     *  error wins (see FailureLatch). */
    FailureLatch latch;
    /** The health FSM over this run's workers, when reclamation is
     *  armed (RunOptions::reclaimAfterMs); null otherwise. */
    std::unique_ptr<WorkerSupervisor> supervisor;

    /** Per-worker pop counters for the watchdog's progress check —
     *  single-writer and padded, so the unconditional increment is a
     *  plain load + store that never contends. */
    std::vector<Padded<std::atomic<uint64_t>>> pops;
    /** Monotonic ns of each worker's last successful pop (seeded with
     *  the run start), written only when the watchdog is armed — lets
     *  the stall diagnostic name *which* worker went quiet and for how
     *  long, not just who popped least overall. */
    std::vector<Padded<std::atomic<uint64_t>>> lastPopNs;
    uint64_t startNs = 0;

    /** RunResult::perWorker; worker `tid` writes only its own entry. */
    Breakdown *perWorker = nullptr;
    /** Helpers still inside a worker body of this run. Each helper's
     *  release decrement is its last touch of this state: once run()
     *  reads 0 (acquire) it may return and free it. */
    std::atomic<unsigned> helpersLeft{0};

    explicit RunState(unsigned numThreads)
        : term(numThreads), drift(numThreads), pops(numThreads),
          lastPopNs(numThreads)
    {}
};

uint64_t
totalPops(const RunState &state)
{
    uint64_t total = 0;
    for (const auto &p : state.pops)
        total += p.value.load(std::memory_order_relaxed);
    return total;
}

/** Everything a human needs to debug a stalled run, as one string. */
std::string
stallDiagnostic(const RunState &state)
{
    std::ostringstream out;
    out << "watchdog: no task popped for " << state.options.watchdogMs
        << " ms with " << state.term.pendingApprox()
        << " tasks in flight; scheduler '" << state.sched->name()
        << "' reports ~" << state.sched->sizeApprox()
        << " buffered tasks (0 = unknown); pops per worker:";
    const uint64_t now = nowNs();
    for (size_t tid = 0; tid < state.pops.size(); ++tid) {
        uint64_t pops =
            state.pops[tid].value.load(std::memory_order_relaxed);
        uint64_t last =
            state.lastPopNs[tid].value.load(std::memory_order_relaxed);
        uint64_t ageMs = now > last ? (now - last) / 1000000 : 0;
        out << (tid == 0 ? " " : ", ") << "w" << tid << "=" << pops;
        if (pops == 0)
            out << " (no pops, " << ageMs << " ms since start)";
        else
            out << " (last pop " << ageMs << " ms ago)";
    }
    if (state.options.metrics) {
        out << "; counters:";
        MetricsSnapshot snap = state.options.metrics->snapshot();
        bool first = true;
        for (const auto &counter : snap.counters) {
            if (counter.total == 0)
                continue;
            out << (first ? " " : ", ") << counter.name << "="
                << counter.total;
            first = false;
        }
        if (first)
            out << " (all zero)";
    }
    return out.str();
}

/**
 * Act on the health FSM's decisions for every worker. A wedged worker
 * is quarantined and its queues reclaimed into its peers. Once it has
 * latched its exit at a loop top (awaitRearm), it is reclaimed again,
 * its slot re-armed and its quarantine lifted, and the same thread
 * carries on. Escalate cannot come: run()'s budget is unbounded.
 */
void
superviseWorkers(RunState &state)
{
    WorkerSupervisor &supervisor = *state.supervisor;
    for (unsigned tid = 0; tid < state.options.numThreads; ++tid) {
        switch (supervisor.poll(tid, nowNs())) {
          case WorkerSupervisor::Decision::Quarantine:
            quarantineAndReclaim(*state.sched, tid, state.options.metrics);
            break;
          case WorkerSupervisor::Decision::Restart:
            quarantineAndReclaim(*state.sched, tid, state.options.metrics);
            supervisor.noteRestarted(tid, nowNs());
            state.sched->reinstate(tid);
            break;
          default:
            break;
        }
    }
}

/**
 * The run's one monitor thread, started when the watchdog or
 * reclamation is armed. It sleeps on `cv` for one probe interval (the
 * supervisor's, or the watchdog window when only the watchdog is
 * armed), drives the health FSM, and once per watchdog window checks
 * global progress: pending work with an unchanged global pop count
 * fails the run. The cv (rather than a plain sleep) lets run() retire
 * the monitor immediately once the workers are done.
 */
void
monitorLoop(RunState &state, std::mutex &mutex,
            std::condition_variable &cv, const bool &done)
{
    const uint64_t windowNs = state.options.watchdogMs * 1000000;
    const auto tick = std::chrono::milliseconds(
        state.supervisor ? state.supervisor->policy().probeIntervalMs
                         : state.options.watchdogMs);
    uint64_t lastPops = totalPops(state);
    uint64_t windowStartNs = nowNs();
    std::unique_lock<std::mutex> lock(mutex);
    while (!done) {
        if (cv.wait_for(lock, tick, [&done] { return done; }))
            return;
        if (state.latch.stopRequested())
            return;
        if (state.supervisor)
            superviseWorkers(state);
        if (windowNs == 0 || nowNs() - windowStartNs < windowNs)
            continue;
        uint64_t pops = totalPops(state);
        bool stalled = pops == lastPops && state.term.pendingApprox() > 0;
        if (stalled) {
            state.latch.fail(stallDiagnostic(state));
            return;
        }
        lastPops = pops;
        windowStartNs = nowNs();
    }
}

/**
 * A superseded run() worker stays in the run: run() has no thread to
 * respawn, and designs like RELD keep per-worker queues that no
 * reclaimWorker drains. So the worker latches its exit, holding no
 * task, and waits until the monitor has reclaimed its queues again and
 * re-armed the slot; then it carries on as the slot's next
 * incarnation. Returns false when the run stopped first.
 */
bool
awaitRearm(RunState &state, unsigned tid, uint64_t &epoch)
{
    WorkerSupervisor &supervisor = *state.supervisor;
    const uint64_t superseding = supervisor.epochOf(tid);
    supervisor.noteExit(tid, false);
    while ((epoch = supervisor.epochOf(tid)) == superseding) {
        if (state.latch.stopRequested())
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return true;
}

void
workerLoop(RunState &state, unsigned tid, Breakdown &breakdown)
{
    Scheduler &sched = *state.sched;
    const ProcessFn &process = *state.process;
    const bool timed = state.options.recordBreakdown;
    MetricsRegistry *metrics = state.options.metrics;
    std::vector<Task> children;
    children.reserve(64);
    IdleBackoff backoff;
    uint64_t popsSinceSample = 0;
    WorkerSupervisor *supervisor = state.supervisor.get();
    uint64_t epoch = supervisor ? supervisor->epochOf(tid) : 0;

    while (true) {
        // Drain out as soon as any worker (or the watchdog) failed the
        // run — checked every iteration, so an idling worker reacts
        // within one backoff round rather than spinning until its own
        // pending==0 view changes.
        if (state.latch.stopRequested())
            break;

        // Loop top, holding no task: publish liveness, and sit out a
        // supersession until the monitor re-arms this slot.
        if (supervisor) {
            supervisor->beat(tid, nowNs());
            if (supervisor->superseded(tid, epoch) &&
                !awaitRearm(state, tid, epoch))
                break;
        }

        // Straggler drill: with an injector installed, this worker may
        // cooperatively sleep here — the only blocking point in the
        // loop, placed before the pop so a paused worker looks exactly
        // like a descheduled one (stale heartbeat, stranded queues).
        stragglerPausePoint(tid);

        uint64_t t0 = timed ? nowNs() : 0;
        Task task;
        // Fault drill: the pop itself misfires. The task stays queued,
        // so the worker simply takes one idle round.
        bool got = !faultFires(faultsite::ExecPopFail) &&
                   sched.tryPop(tid, task);
        uint64_t t1 = timed ? nowNs() : 0;

        if (!got) {
            if (timed)
                breakdown[Component::Comm] += t1 - t0;
            if (state.term.quiescent())
                break;
            backoff.idle();
            continue;
        }
        backoff.reset();
        // Single writer (this worker): load + store, no RMW.
        std::atomic<uint64_t> &pops = state.pops[tid].value;
        pops.store(pops.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
        if (state.options.watchdogMs > 0) {
            state.lastPopNs[tid].value.store(timed ? t1 : nowNs(),
                                             std::memory_order_relaxed);
        }

        children.clear();
        try {
            // Fault drill: stand-in for a ProcessFn that throws.
            if (faultFires(faultsite::ExecProcessThrow)) {
                throw FaultInjectedError(
                    "injected ProcessFn failure (exec.process.throw)");
            }
            process(tid, task, children);
        } catch (const std::exception &e) {
            // The popped task dies here: no children were pushed (the
            // push happens below), so completing it with no creations
            // keeps the counters consistent for the drain.
            state.term.noteCompleted(tid);
            state.latch.fail("worker " + std::to_string(tid) +
                             ": ProcessFn threw: " + e.what());
            break;
        } catch (...) {
            state.term.noteCompleted(tid);
            state.latch.fail("worker " + std::to_string(tid) +
                             ": ProcessFn threw a non-std exception");
            break;
        }
        uint64_t t2 = timed ? nowNs() : 0;

        if (!children.empty()) {
            // Children enter the created count *before* they become
            // poppable, so the counters can never transiently read
            // quiescent while work exists. Own padded slot: no
            // contention no matter how many workers spawn at once.
            state.term.noteCreated(tid, children.size());
            sched.pushBatch(tid, children.data(), children.size());
        }
        state.term.noteCompleted(tid);
        uint64_t t3 = timed ? nowNs() : 0;

        if (timed) {
            breakdown[Component::Dequeue] += t1 - t0;
            breakdown[Component::Compute] += t2 - t1;
            breakdown[Component::Enqueue] += t3 - t2;
        }
        ++breakdown.tasksProcessed;
        if (children.empty())
            ++breakdown.emptyTasks;

        // Design-independent drift reporting (Eq. 1): publish every
        // pop, sample on worker 0's interval.
        state.drift.publish(tid, task.priority);
        if (++popsSinceSample >= state.options.driftSampleInterval) {
            popsSinceSample = 0;
            if (tid == 0) {
                double drift = state.drift.computeDrift();
                state.series.record(drift);
                if (metrics) {
                    metrics->recordGlobal(GlobalSeries::Drift, drift);
                    metrics->set(
                        0, WorkerGauge::PendingTasks,
                        static_cast<double>(state.term.pendingApprox()));
                }
            }
            if (metrics && timed) {
                // Cumulative per-phase breakdown as a series: the
                // deltas between samples localize where time went
                // within the run, which the end-of-run totals cannot.
                metrics->record(
                    tid, WorkerSeries::EnqueueNs,
                    static_cast<double>(breakdown[Component::Enqueue]));
                metrics->record(
                    tid, WorkerSeries::DequeueNs,
                    static_cast<double>(breakdown[Component::Dequeue]));
                metrics->record(
                    tid, WorkerSeries::ComputeNs,
                    static_cast<double>(breakdown[Component::Compute]));
                metrics->record(
                    tid, WorkerSeries::CommNs,
                    static_cast<double>(breakdown[Component::Comm]));
            }
        }
    }

    if (metrics) {
        // Per-worker totals land once, at loop exit — the hot path
        // itself stays metrics-free.
        metrics->add(tid, WorkerCounter::TasksProcessed,
                     breakdown.tasksProcessed);
        metrics->add(tid, WorkerCounter::EmptyTasks,
                     breakdown.emptyTasks);
    }
}

/**
 * One worker's whole stay in a run, on whichever thread runs it. The
 * thread leaves with the CPU mask it came in with: a topology-aware
 * design pins in onWorkerStart, and neither the caller nor a resident
 * helper may carry one run's pinning into the next. noexcept: an
 * escaping exception must not unwind the caller past a RunState that
 * helpers still use, so it terminates, as it always did on a worker
 * thread.
 */
void
workerBody(RunState &state, unsigned tid) noexcept
{
#ifdef __linux__
    cpu_set_t entryMask;
    const bool saved = pthread_getaffinity_np(pthread_self(),
                                              sizeof(entryMask),
                                              &entryMask) == 0;
#endif
    // Lifecycle hook from the worker's own thread before its first pop
    // (topology-aware designs pin here).
    state.sched->onWorkerStart(tid);
    workerLoop(state, tid, state.perWorker[tid]);
#ifdef __linux__
    cpu_set_t exitMask;
    if (saved &&
        pthread_getaffinity_np(pthread_self(), sizeof(exitMask),
                               &exitMask) == 0 &&
        !CPU_EQUAL(&exitMask, &entryMask)) {
        pthread_setaffinity_np(pthread_self(), sizeof(entryMask),
                               &entryMask);
    }
#endif
}

/**
 * A resident thread that runs workers 1..n-1 of run() calls. It parks
 * on its own condvar between runs (no spinning), so an idle helper
 * costs nothing but its stack.
 */
struct Helper
{
    std::mutex mutex;
    std::condition_variable wake;
    RunState *state = nullptr; ///< the run to join; guarded by mutex
    unsigned tid = 0;          ///< its worker id there; guarded by mutex
    /** Never joined: helpers live as long as the process (see
     *  helperPool). */
    std::thread thread;
};

void helperMain(Helper &self);

/**
 * The idle helpers. run() takes one per helper worker and spawns a new
 * one only when none is idle, so the pool grows to the most helpers
 * ever busy at once and never shrinks. The lock covers the idle list
 * only — never a run — so concurrent and nested run() calls each get
 * their own helpers.
 */
class HelperPool
{
  public:
    /** Start workers 1..n-1 of `state` on helpers. noexcept: a failed
     *  spawn must not unwind run() while earlier helpers already use
     *  its RunState, so it terminates (as a failed spawn always did
     *  with sibling threads left unjoined). */
    void
    dispatch(RunState &state) noexcept
    {
        for (unsigned tid = 1; tid < state.options.numThreads; ++tid) {
            Helper *helper = takeIdle();
            if (helper == nullptr) {
                helper = new Helper;
                helper->thread =
                    std::thread(helperMain, std::ref(*helper));
            }
            {
                std::lock_guard<std::mutex> lock(helper->mutex);
                helper->state = &state;
                helper->tid = tid;
            }
            helper->wake.notify_one();
        }
    }

    void
    park(Helper &helper)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(&helper);
    }

  private:
    Helper *
    takeIdle()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (idle_.empty())
            return nullptr;
        Helper *helper = idle_.back();
        idle_.pop_back();
        return helper;
    }

    std::mutex mutex_;
    std::vector<Helper *> idle_;
};

HelperPool *helperPoolInstance = nullptr;

/**
 * The process's helper pool. Deliberately leaked, helpers included: a
 * static destructor would destroy the list and the condvars while
 * parked helpers still wait on them. A forked child inherits the idle
 * list but none of its threads (and perhaps a held lock), so it starts
 * over with an empty pool.
 */
HelperPool &
helperPool()
{
    static std::once_flag once;
    std::call_once(once, [] {
        helperPoolInstance = new HelperPool;
#ifdef __linux__
        pthread_atfork(nullptr, nullptr,
                       [] { helperPoolInstance = new HelperPool; });
#endif
    });
    return *helperPoolInstance;
}

void
helperMain(Helper &self)
{
    std::unique_lock<std::mutex> lock(self.mutex);
    while (true) {
        self.wake.wait(lock, [&self] { return self.state != nullptr; });
        RunState &state = *std::exchange(self.state, nullptr);
        const unsigned tid = self.tid;
        lock.unlock();
        // Fault drill: a helper that arrives late, even after the run's
        // work is done, must still find a live RunState.
        faultSleep(faultsite::ExecHelperDelay);
        workerBody(state, tid);
        // Parked before the decrement so a back-to-back run() finds it
        // idle; a run that takes it meanwhile only sets self.state,
        // which the wait above picks up.
        helperPool().park(self);
        state.helpersLeft.fetch_sub(1, std::memory_order_release);
        lock.lock();
    }
}

} // namespace

RunResult
run(Scheduler &sched, const std::vector<Task> &initial,
    const ProcessFn &process, const RunOptions &options)
{
    hdcps_check(options.numThreads >= 1, "need at least one thread");
    hdcps_check(options.numThreads == sched.numWorkers(),
                "thread count (%u) != scheduler workers (%u)",
                options.numThreads, sched.numWorkers());
    hdcps_check(options.driftSampleInterval >= 1,
                "drift sample interval must be >= 1");
    if (options.metrics) {
        hdcps_check(options.metrics->numWorkers() >= options.numThreads,
                    "metrics registry has %u workers, need %u",
                    options.metrics->numWorkers(), options.numThreads);
        sched.attachMetrics(options.metrics);
    }
    // Unconditional: RunOptions is authoritative, so a scheduler reused
    // across runs cannot carry an armed guard into a run that wants the
    // default (off).
    sched.setReclaimAfterMs(options.reclaimAfterMs);

    RunState state(options.numThreads);
    state.sched = &sched;
    state.process = &process;
    state.options = options;
    // Seeds count as created by worker 0 (single-threaded phase; the
    // helper hand-off below publishes the stores to every worker).
    state.term.seedCreated(0, initial.size());
    state.startNs = nowNs();
    for (auto &slot : state.lastPopNs)
        slot.value.store(state.startNs, std::memory_order_relaxed);
    if (options.reclaimAfterMs > 0) {
        // Wedged after R ms without a loop-top beat. The restart budget
        // is unbounded: a run() heal respawns no thread, and no budget
        // may fail a run that would complete.
        const uint64_t r = options.reclaimAfterMs;
        SupervisorPolicy policy;
        policy.enabled = true;
        policy.probeIntervalMs = std::max<uint64_t>(r / 4, 1);
        policy.suspectAfterMs = r / 2;
        policy.wedgedAfterMs = r;
        policy.maxRestarts = std::numeric_limits<unsigned>::max();
        policy.restartWindowMs = r;
        state.supervisor =
            std::make_unique<WorkerSupervisor>(options.numThreads, policy);
        // Every heartbeat starts fresh, so a slow helper start-up
        // cannot read as a wedge.
        for (unsigned tid = 0; tid < options.numThreads; ++tid)
            state.supervisor->beat(tid, state.startNs);
    }

    // Seed tasks in 16-task chunks interleaved across workers before
    // any worker starts (single-threaded phase, so per-worker push is
    // safe): chunks keep the initial list's spatial locality, the
    // interleave spreads skewed regions.
    constexpr size_t seed_chunk = 16;
    for (size_t i = 0; i < initial.size(); ++i) {
        sched.push(static_cast<unsigned>((i / seed_chunk) %
                                         options.numThreads),
                   initial[i]);
    }

    RunResult result;
    result.perWorker.assign(options.numThreads, Breakdown{});
    state.perWorker = result.perWorker.data();

    // The monitor rides alongside the workers; `done` + cv retire it
    // the moment they all exit, failed run or not.
    std::mutex monitorMutex;
    std::condition_variable monitorCv;
    bool monitorDone = false;
    std::thread monitor;
    if (options.watchdogMs > 0 || state.supervisor) {
        monitor = std::thread([&] {
            monitorLoop(state, monitorMutex, monitorCv, monitorDone);
        });
    }

    // The caller is worker 0; resident helpers run the rest. run()
    // returns only after every helper has left its worker body, since
    // `state` lives on this stack.
    uint64_t startNs = nowNs();
    state.helpersLeft.store(options.numThreads - 1,
                            std::memory_order_relaxed);
    helperPool().dispatch(state);
    workerBody(state, 0);
    IdleBackoff backoff;
    while (state.helpersLeft.load(std::memory_order_acquire) != 0)
        backoff.idle();
    result.wallNs = nowNs() - startNs;

    if (monitor.joinable()) {
        {
            std::lock_guard<std::mutex> lock(monitorMutex);
            monitorDone = true;
        }
        monitorCv.notify_all();
        monitor.join();
    }
    // A failed run can end with a worker still quarantined; a reused
    // scheduler must not carry that into its next run.
    if (state.supervisor) {
        for (unsigned tid = 0; tid < options.numThreads; ++tid)
            sched.reinstate(tid);
    }

    result.failed = state.latch.failed();
    if (result.failed) {
        result.error = state.latch.error();
    } else {
        hdcps_check(state.term.pendingApprox() == 0,
                    "pending count nonzero after termination");
    }

    for (const Breakdown &b : result.perWorker)
        result.total += b;
    result.avgDrift = state.series.average();
    result.maxDrift = state.series.maxSample();
    result.driftSamples = state.series.samples();
    return result;
}

} // namespace hdcps
