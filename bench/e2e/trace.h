/**
 * @file
 * Benchmark-side tracing for hdcps_bench: spans and counters recorded
 * around the calls into each layer, from the benchmark's own code.
 *
 *  - TimedScheduler wraps the design under test and forwards
 *    push/pushBatch/tryPop, counting every call per worker and timing
 *    one call in 2^kSampleShift (a sampled child span).
 *  - tracedProcess wraps a ProcessFn: it times every process() call (the
 *    per-unit first/last stamps need each one) and keeps one span in
 *    2^kSampleShift.
 *  - The worker's next scheduler call after a process() marks it free of
 *    that task: for a unit's last task that is after the runtime detected
 *    termination and published the result.
 *  - Worker 0 also logs its first kReplayPushes pushed priorities and
 *    its pops, which hdcps_bench replays offline through the PQ kernels
 *    and the sRQ ring.
 *
 * Each worker writes only its own padded WorkerTrace, so nothing shared
 * is written on the hot path. Everything is read after the workers were
 * joined (run() returned, or the service shut down).
 */

#ifndef HDCPS_BENCH_E2E_TRACE_H_
#define HDCPS_BENCH_E2E_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cps/scheduler.h"
#include "runtime/executor.h"
#include "support/timer.h"

namespace hdcps::e2e {

/** Child spans: one call in 2^kSampleShift per worker and kind. */
constexpr unsigned kSampleShift = 6;
/** Pushes worker 0 logs for the offline replays. */
constexpr size_t kReplayPushes = size_t(1) << 16;
/** Op-log entry for "worker 0 popped a task". */
constexpr uint64_t kPopOp = ~uint64_t(0);
/** WorkerTrace::pendingUnit when no process() awaits its free stamp. */
constexpr uint32_t kNoUnit = ~uint32_t(0);

enum class SpanKind : uint32_t { Push, Pop, Process };

inline const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Push:
        return "sched.push";
      case SpanKind::Pop:
        return "sched.pop";
      default:
        return "algos.process";
    }
}

/** One sampled child span of unit `unit` (solve or job index). */
struct Span
{
    uint64_t beginNs = 0;
    uint64_t endNs = 0;
    uint32_t unit = 0;
    SpanKind kind = SpanKind::Process;
};

/** Everything one worker records; written by that worker only. */
struct alignas(64) WorkerTrace
{
    uint64_t pushCalls = 0;
    uint64_t pushTasks = 0;
    uint64_t popCalls = 0;
    uint64_t popEmpty = 0;
    uint64_t processCalls = 0;
    uint64_t processNs = 0;
    uint64_t parents = 0; ///< process() calls that created children
    uint64_t children = 0;
    uint64_t sampledPushCalls = 0;
    uint64_t sampledPushTasks = 0;
    uint64_t sampledPushNs = 0;
    uint64_t sampledPopCalls = 0; ///< sampled calls that returned a task
    uint64_t sampledPopNs = 0;
    std::vector<Span> spans;
    std::vector<uint64_t> firstNs; ///< per unit: first process() start
    std::vector<uint64_t> lastNs;  ///< per unit: last process() end
    std::vector<uint64_t> freeNs;  ///< per unit: free after its last task
    uint32_t pendingUnit = kNoUnit; ///< unit of the last process() call

    void
    noteProcess(uint32_t unit, uint64_t begin, uint64_t end)
    {
        if (unit >= firstNs.size()) {
            firstNs.resize(unit + 1, 0);
            lastNs.resize(unit + 1, 0);
            freeNs.resize(unit + 1, 0);
        }
        if (firstNs[unit] == 0)
            firstNs[unit] = begin;
        lastNs[unit] = std::max(lastNs[unit], end);
        pendingUnit = unit;
    }

    /** Called on entry to every scheduler call of this worker. */
    void
    noteFree()
    {
        if (pendingUnit == kNoUnit)
            return;
        freeNs[pendingUnit] = std::max(freeNs[pendingUnit], nowNs());
        pendingUnit = kNoUnit;
    }
};

/** True for the calls that get timed; advances the call counter. */
inline bool
sampleCall(uint64_t &calls)
{
    return (calls++ & ((uint64_t(1) << kSampleShift) - 1)) == 0;
}

/** Per-worker trace buffers plus worker 0's replay op log. */
class Tracer
{
  public:
    explicit Tracer(unsigned workers) : workers_(workers) {}

    WorkerTrace &worker(unsigned tid) { return workers_[tid]; }
    const std::vector<WorkerTrace> &workers() const { return workers_; }

    /** Worker 0's pushes and pops, pops as kPopOp, until
     *  kReplayPushes pushes were logged. */
    const std::vector<uint64_t> &opLog() const { return ops_; }

    void
    logPushes(const Task *tasks, size_t count)
    {
        for (size_t i = 0; i < count && loggedPushes_ < kReplayPushes;
             ++i, ++loggedPushes_)
            ops_.push_back(tasks[i].priority);
    }

    void
    logPop()
    {
        if (loggedPushes_ < kReplayPushes)
            ops_.push_back(kPopOp);
    }

  private:
    std::vector<WorkerTrace> workers_;
    std::vector<uint64_t> ops_;
    size_t loggedPushes_ = 0;
};

/**
 * Counting, sampling wrapper around the design under test. A task's
 * unit is `unitBase` plus its service job id minus one (a service
 * numbers its jobs from 1); one-shot runs carry no job id, so all their
 * tasks are unit `unitBase`. Besides the task calls it forwards only
 * the hooks the runtime calls with the watchdog, supervision and
 * metrics off, as the benchmark runs it.
 */
class TimedScheduler final : public Scheduler
{
  public:
    TimedScheduler(Scheduler &inner, Tracer &tracer, uint32_t unitBase)
        : Scheduler(inner.numWorkers()), inner_(inner), tracer_(tracer),
          unitBase_(unitBase)
    {}

    void
    push(unsigned tid, const Task &task) override
    {
        timedPush(tid, &task, 1,
                  [&] { inner_.push(tid, task); });
    }

    void
    pushBatch(unsigned tid, const Task *tasks, size_t count) override
    {
        timedPush(tid, tasks, count,
                  [&] { inner_.pushBatch(tid, tasks, count); });
    }

    bool
    tryPop(unsigned tid, Task &out) override
    {
        WorkerTrace &w = tracer_.worker(tid);
        w.noteFree();
        const bool sampled = sampleCall(w.popCalls);
        const uint64_t begin = sampled ? nowNs() : 0;
        if (!inner_.tryPop(tid, out)) {
            ++w.popEmpty;
            return false;
        }
        if (sampled) {
            const uint64_t end = nowNs();
            w.spans.push_back({begin, end, unitOf(out), SpanKind::Pop});
            ++w.sampledPopCalls;
            w.sampledPopNs += end - begin;
        }
        if (tid == 0)
            tracer_.logPop();
        return true;
    }

    const char *name() const override { return inner_.name(); }
    void setReclaimAfterMs(uint64_t ms) override
    {
        inner_.setReclaimAfterMs(ms);
    }
    void onWorkerStart(unsigned tid) override { inner_.onWorkerStart(tid); }

  private:
    uint32_t
    unitOf(const Task &task) const
    {
        return unitBase_ + (task.job != 0 ? task.job - 1 : 0);
    }

    template <typename Forward>
    void
    timedPush(unsigned tid, const Task *tasks, size_t count,
              Forward &&forward)
    {
        WorkerTrace &w = tracer_.worker(tid);
        w.noteFree();
        const bool sampled = sampleCall(w.pushCalls);
        const uint64_t begin = sampled ? nowNs() : 0;
        forward();
        if (sampled && count > 0) {
            const uint64_t end = nowNs();
            w.spans.push_back(
                {begin, end, unitOf(tasks[0]), SpanKind::Push});
            ++w.sampledPushCalls;
            w.sampledPushTasks += count;
            w.sampledPushNs += end - begin;
        }
        w.pushTasks += count;
        if (tid == 0)
            tracer_.logPushes(tasks, count);
    }

    Scheduler &inner_;
    Tracer &tracer_;
    uint32_t unitBase_;
};

/** Wrap `inner` so every call of unit `unit` is timed into `tracer`. */
inline ProcessFn
tracedProcess(Tracer &tracer, ProcessFn inner, uint32_t unit)
{
    return [&tracer, inner = std::move(inner), unit](
               unsigned tid, const Task &task, std::vector<Task> &children) {
        WorkerTrace &w = tracer.worker(tid);
        const uint64_t begin = nowNs();
        inner(tid, task, children);
        const uint64_t end = nowNs();
        w.processNs += end - begin;
        w.parents += !children.empty();
        w.children += children.size();
        if (sampleCall(w.processCalls))
            w.spans.push_back({begin, end, unit, SpanKind::Process});
        w.noteProcess(unit, begin, end);
    };
}

} // namespace hdcps::e2e

#endif // HDCPS_BENCH_E2E_TRACE_H_
