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
#endif

#include "runtime/supervisor.h"
#include "runtime/worker_common.h"
#include "support/compiler.h"
#include "support/fault.h"
#include "support/logging.h"
#include "support/timer.h"
#include "support/topology.h"

namespace hdcps {

namespace {

/** Shared state visible to all workers of one run. */
struct RunState
{
    Scheduler *sched = nullptr;
    const ProcessFn *process = nullptr;
    RunOptions options;
    TerminationCounters term;
    DriftTracker drift;
    DriftSeries series; ///< touched by worker 0 only
    FailureLatch latch; ///< the run's stop flag and first error
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

    /** Worker `tid`'s CPU (planSlotCpus from the caller, worker 0 on
     *  the caller's own CPU); empty when nothing is pinned. */
    std::vector<unsigned> cpus;

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
 * run()'s policy for the shared worker loop (runWorker): process the
 * task, count its children created before pushing them, opt-in
 * Breakdown timing and the Eq. 1 publish. The loop ends at quiescence
 * or on the run's stop.
 */
class RunWorker
{
  public:
    RunWorker(RunState &state, unsigned tid)
        : state_(state), tid_(tid), breakdown_(state.perWorker[tid]),
          timed_(state.options.recordBreakdown)
    {
        children_.reserve(64);
    }

    Scheduler &sched() { return *state_.sched; }
    WorkerSupervisor *supervisor() { return state_.supervisor.get(); }
    const std::vector<unsigned> &slotCpus() const { return state_.cpus; }
    bool stopRequested() const { return state_.latch.stopRequested(); }
    void beforeBlock() {}

    /** The pop's start time when timing, else 0. */
    uint64_t beforePop() { return timed_ ? nowNs() : 0; }

    bool
    onEmpty(uint64_t t0, IdleBackoff &backoff)
    {
        if (timed_)
            breakdown_[Component::Comm] += nowNs() - t0;
        if (state_.term.quiescent())
            return false;
        backoff.idle();
        return true;
    }

    void
    onTask(const Task &task, uint64_t t0)
    {
        const uint64_t t1 = timed_ ? nowNs() : 0;
        // Single writer (this worker): load + store, no RMW.
        std::atomic<uint64_t> &pops = state_.pops[tid_].value;
        pops.store(pops.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
        if (state_.options.watchdogMs > 0) {
            state_.lastPopNs[tid_].value.store(timed_ ? t1 : nowNs(),
                                               std::memory_order_relaxed);
        }

        children_.clear();
        try {
            // Fault drill: stand-in for a ProcessFn that throws.
            if (faultFires(faultsite::ExecProcessThrow)) {
                throw FaultInjectedError(
                    "injected ProcessFn failure (exec.process.throw)");
            }
            (*state_.process)(tid_, task, children_);
        } catch (const std::exception &e) {
            // The popped task dies here: no children were pushed, so
            // completing it with no creations keeps the counters
            // consistent for the drain. The loop top sees the stop.
            state_.term.noteCompleted(tid_);
            state_.latch.fail("worker " + std::to_string(tid_) +
                              ": ProcessFn threw: " + e.what());
            return;
        } catch (...) {
            state_.term.noteCompleted(tid_);
            state_.latch.fail("worker " + std::to_string(tid_) +
                              ": ProcessFn threw a non-std exception");
            return;
        }
        const uint64_t t2 = timed_ ? nowNs() : 0;

        if (!children_.empty()) {
            // Children enter the created count *before* they become
            // poppable, so the counters can never transiently read
            // quiescent while work exists. Own padded slot: no
            // contention no matter how many workers spawn at once.
            state_.term.noteCreated(tid_, children_.size());
            state_.sched->pushBatch(tid_, children_.data(),
                                    children_.size());
        }
        state_.term.noteCompleted(tid_);

        if (timed_) {
            const uint64_t t3 = nowNs();
            breakdown_[Component::Dequeue] += t1 - t0;
            breakdown_[Component::Compute] += t2 - t1;
            breakdown_[Component::Enqueue] += t3 - t2;
        }
        ++breakdown_.tasksProcessed;
        if (children_.empty())
            ++breakdown_.emptyTasks;

        // Design-independent drift reporting (Eq. 1): publish every
        // pop, sample on worker 0's interval.
        state_.drift.publish(tid_, task.priority);
        if (++popsSinceSample_ >= state_.options.driftSampleInterval) {
            popsSinceSample_ = 0;
            sample();
        }
    }

  private:
    void
    sample()
    {
        MetricsRegistry *metrics = state_.options.metrics;
        if (tid_ == 0) {
            double drift = state_.drift.computeDrift();
            state_.series.record(drift);
            if (metrics) {
                metrics->recordGlobal(GlobalSeries::Drift, drift);
                metrics->set(
                    0, WorkerGauge::PendingTasks,
                    static_cast<double>(state_.term.pendingApprox()));
            }
        }
        if (metrics && timed_) {
            // Cumulative per-phase breakdown as a series: the deltas
            // between samples localize where time went within the
            // run, which the end-of-run totals cannot.
            static constexpr std::pair<WorkerSeries, Component> phases[] = {
                {WorkerSeries::EnqueueNs, Component::Enqueue},
                {WorkerSeries::DequeueNs, Component::Dequeue},
                {WorkerSeries::ComputeNs, Component::Compute},
                {WorkerSeries::CommNs, Component::Comm},
            };
            for (const auto &[series, phase] : phases)
                metrics->record(tid_, series, double(breakdown_[phase]));
        }
    }

    RunState &state_;
    const unsigned tid_;
    Breakdown &breakdown_; ///< RunResult::perWorker[tid_]
    const bool timed_;
    std::vector<Task> children_;
    uint64_t popsSinceSample_ = 0;
};

/**
 * run()'s policy for the shared monitor (Escalate cannot come: the
 * restart budget is unbounded). The tick hook is the watchdog's
 * verdict: pending work but no pop for a whole window fails the run.
 */
class RunMonitor
{
  public:
    explicit RunMonitor(RunState &state)
        : state_(state), lastPops_(totalPops(state)),
          windowStartNs_(nowNs())
    {}

    Scheduler &sched() { return *state_.sched; }
    WorkerSupervisor *supervisor() { return state_.supervisor.get(); }
    MetricsRegistry *metrics() { return state_.options.metrics; }
    void onReclaimed() {}
    void onEscalate(unsigned) {}

    bool
    onTick(uint64_t now)
    {
        if (state_.latch.stopRequested())
            return false;
        const uint64_t windowNs = state_.options.watchdogMs * 1000000;
        if (windowNs == 0 || now - windowStartNs_ < windowNs)
            return true;
        const uint64_t pops = totalPops(state_);
        if (pops == lastPops_ && state_.term.pendingApprox() > 0) {
            state_.latch.fail(stallDiagnostic(state_));
            return false;
        }
        lastPops_ = pops;
        windowStartNs_ = now;
        return true;
    }

  private:
    RunState &state_;
    uint64_t lastPops_;
    uint64_t windowStartNs_;
};

/**
 * One worker's whole stay in a run, on whichever thread runs it: the
 * shared slot entry (runSlot) with run()'s policy. The thread leaves
 * with the CPU mask it came in with: runSlot pins it to its slot's CPU
 * or a topology-aware design pins it in onWorkerStart, and neither the
 * caller nor a resident helper may carry one run's pinning into the
 * next. noexcept: an escaping exception must not unwind the caller
 * past a RunState that helpers still use, so it terminates, as it
 * always did on a worker thread.
 */
void
workerBody(RunState &state, unsigned tid) noexcept
{
    const std::vector<unsigned> entryCpus = threadCpus();
    RunWorker worker(state, tid);
    runSlot(worker, tid);
    if (!entryCpus.empty() && threadCpus() != entryCpus)
        setThreadCpus(entryCpus);
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

void helperMain(Helper &self, const std::vector<unsigned> &birthCpus);

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
                // A caller pinned by an enclosing runtime's slot hands
                // the new helper that slot's entry mask, not its CPU.
                helper = new Helper;
                helper->thread = std::thread(
                    helperMain, std::ref(*helper),
                    slotEntryCpus ? *slotEntryCpus
                                  : std::vector<unsigned>());
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
helperMain(Helper &self, const std::vector<unsigned> &birthCpus)
{
    if (!birthCpus.empty())
        setThreadCpus(birthCpus);
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
    bindScheduler(sched, options.numThreads, options.metrics,
                  options.reclaimAfterMs);
    hdcps_check(options.driftSampleInterval >= 1,
                "drift sample interval must be >= 1");

    RunState state(options.numThreads);
    state.sched = &sched;
    state.process = &process;
    state.options = options;
    // Seeds count as created by worker 0 (single-threaded phase; the
    // helper hand-off below publishes the stores to every worker).
    state.term.seedCreated(0, initial.size());
    const uint64_t startNs = nowNs();
    for (auto &slot : state.lastPopNs)
        slot.value.store(startNs, std::memory_order_relaxed);
    if (options.reclaimAfterMs > 0) {
        // Wedged after R ms without a loop-top beat. The restart budget
        // is unbounded: no budget may fail a run that would complete.
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
    state.cpus = planSlotCpus(options.numThreads, 0);

    // The monitor rides alongside the workers and is retired the
    // moment they all exit, failed run or not. It ticks once per probe
    // interval, or once per watchdog window when only that is armed.
    Monitor monitor;
    if (options.watchdogMs > 0 || state.supervisor) {
        monitor.start(RunMonitor(state),
                      state.supervisor
                          ? state.supervisor->policy().probeIntervalMs
                          : options.watchdogMs);
    }

    // The caller is worker 0; resident helpers run the rest. run()
    // returns only after every helper has left its worker body, since
    // `state` lives on this stack.
    const uint64_t wallStartNs = nowNs();
    state.helpersLeft.store(options.numThreads - 1,
                            std::memory_order_relaxed);
    helperPool().dispatch(state);
    workerBody(state, 0);
    IdleBackoff backoff;
    while (state.helpersLeft.load(std::memory_order_acquire) != 0)
        backoff.idle();
    result.wallNs = nowNs() - wallStartNs;

    monitor.stop();
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

    for (unsigned tid = 0; tid < options.numThreads; ++tid) {
        const Breakdown &b = result.perWorker[tid];
        result.total += b;
        if (options.metrics) {
            // Per-worker totals land once, after every worker and the
            // monitor are done, so the hot path stays metrics-free.
            options.metrics->add(tid, WorkerCounter::TasksProcessed,
                                 b.tasksProcessed);
            options.metrics->add(tid, WorkerCounter::EmptyTasks,
                                 b.emptyTasks);
        }
    }
    result.avgDrift = state.series.average();
    result.maxDrift = state.series.maxSample();
    result.driftSamples = state.series.samples();
    return result;
}

} // namespace hdcps
