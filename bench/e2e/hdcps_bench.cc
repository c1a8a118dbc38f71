/**
 * @file
 * hdcps_bench: the end-to-end benchmark of the threaded HD-CPS stack.
 *
 * One invocation runs one workload with one seed and prints every metric
 * as `name value unit [detail]`, after the build's revision and dirty
 * flag. Every solve and every job is checked against its sequential
 * oracle outside the timed region; the exit code is 1 if any of them
 * failed, was rejected, or computed a wrong answer.
 *
 *   hdcps_bench --workload sssp-usa --seed 1 --seconds 10
 *   hdcps_bench --workload stream-150 --seed 1 --seconds 10 --trace t.json
 *
 * The design under test is hdcps-sw (HdCpsScheduler::configSw()) on
 * kThreads workers, in one process. The seed drives graph generation,
 * job sources and arrival times and is the only input that varies.
 *
 * Without --trace the run prints the end-to-end metrics. With --trace
 * FILE the run measures half its time untraced, and prints that half's
 * end-to-end metrics, and half traced: it prints the per-layer metrics
 * (trace.h) and writes the traced half as Chrome trace-event JSON to
 * FILE. README.md defines every metric.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algos/relaxation.h"
#include "algos/sequential.h"
#include "core/hdcps.h"
#include "core/local_pq.h"
#include "core/recv_queue.h"
#include "graph/generators.h"
#include "pq/dary_heap.h"
#include "provenance.h"
#include "runtime/executor.h"
#include "runtime/executor_service.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/timer.h"
#include "trace.h"

namespace hdcps::e2e {
namespace {

/** One fewer than the 4 vCPUs the benchmark is sized for, so that the
 *  caller and other threads of the machine find a free vCPU instead of
 *  preempting a worker. With a worker per vCPU, one other busy thread
 *  tripled the sssp-usa median (README.md). */
constexpr unsigned kThreads = 3;
/** Closed loops run at least this many solves, so p90 has at least 10
 *  samples beyond it. */
constexpr uint32_t kMinSolves = 100;
constexpr uint32_t kSmokeSolves = 5;
/** Open-loop arrivals are planned in segments of this length. Each
 *  segment runs on a fresh service (see Service); the next segment's
 *  jobs, oracles and service are built outside the timed region. */
constexpr double kSegmentSeconds = 2.0;
/** sssp-usa-job solves served by one service before the next is built
 *  (see Service). */
constexpr uint32_t kSolvesPerService = 8;
/** The first arrival of a segment is due this long after it starts. */
constexpr uint64_t kLeadNs = 1000000;
constexpr unsigned kSetupReps = 15; ///< setup_s is the median of these
/** Units whose child spans are written to the trace file (all root
 *  and stage spans are). */
constexpr uint32_t kTraceUnits = 8;
constexpr int kReplayReps = 5;
constexpr size_t kSrqCapacity = 256;
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

enum class Loop { RunSolve, JobSolve, Stream };

/** One benchmark workload. README.md records why each exists. The
 *  closed-loop graphs fit in a core's 2 MiB L2, so the shared cache of
 *  the host moves them less. */
struct WorkloadDef
{
    const char *name;
    Loop loop;
    bool sssp;         ///< SSSP (weighted) or BFS
    const char *input; ///< makePaperInput name
    unsigned scale;
    double rate; ///< Stream: Poisson arrivals/s
};

const WorkloadDef kWorkloads[] = {
    {"sssp-usa", Loop::RunSolve, true, "usa", 2, 0},
    {"bfs-cage", Loop::RunSolve, false, "cage", 4, 0},
    {"sssp-usa-job", Loop::JobSolve, true, "usa", 2, 0},
    {"stream-150", Loop::Stream, false, "cage", 1, 150},
};

struct Options
{
    const WorkloadDef *workload = nullptr;
    uint64_t seed = 1;
    double seconds = 10.0;
    std::string traceFile;
    bool smoke = false;   ///< tiny inputs, 5 solves, one 1 s segment
    /** Busy-wait in the first process() call of every solve or job: a
     *  stalled worker adopts no new job, so admission fills. */
    uint64_t stallUs = 0;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: hdcps_bench --workload NAME --seed N "
                 "[--seconds S] [--trace FILE] [--smoke] [--stall-us N]\n"
                 "workloads:");
    for (const WorkloadDef &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

uint64_t
parseU64(const char *flag, const char *text, uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
        v > max)
        hdcps_fatal("%s: '%s' is not an integer in [0, %" PRIu64 "]",
                    flag, text, max);
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                hdcps_fatal("%s needs a value", arg.c_str());
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            std::string name = value();
            for (const WorkloadDef &w : kWorkloads) {
                if (name == w.name)
                    o.workload = &w;
            }
            if (!o.workload) {
                usage();
                hdcps_fatal("unknown workload '%s'", name.c_str());
            }
        } else if (arg == "--seed") {
            o.seed = parseU64("--seed", value(), ~uint64_t(0));
        } else if (arg == "--seconds") {
            o.seconds = double(parseU64("--seconds", value(), 3600));
            if (o.seconds < 1)
                hdcps_fatal("--seconds must be at least 1");
        } else if (arg == "--trace") {
            o.traceFile = value();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--stall-us") {
            o.stallUs = parseU64("--stall-us", value(), 1000000);
        } else {
            usage();
            hdcps_fatal("unknown option '%s'", arg.c_str());
        }
    }
    if (!o.workload) {
        usage();
        hdcps_fatal("--workload is required");
    }
    return o;
}

// ------------------------------------------------------------ statistics

/** Nearest-rank percentile of `v` (sorted in place). */
double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(q * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** Samples strictly above the nearest-rank q-percentile. */
size_t
beyond(size_t n, double q)
{
    return n - std::clamp<size_t>(size_t(std::ceil(q * double(n))), 1, n);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** `to - from` in microseconds, negative when `to` is earlier. */
double
signedUs(uint64_t from, uint64_t to)
{
    return (double(to) - double(from)) / 1e3;
}

void
printMetric(const char *name, double value, const char *unit,
            const std::string &detail = "")
{
    std::printf("%s %.12g %s%s%s\n", name, value, unit,
                detail.empty() ? "" : " ", detail.c_str());
}

std::string
counted(size_t n)
{
    return "n=" + std::to_string(n);
}

std::string
countedTail(size_t n, double q)
{
    return counted(n) + " beyond=" + std::to_string(beyond(n, q));
}

/** Peak resident set size (VmHWM) of this process, MiB. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    hdcps_fatal("VmHWM not found in /proc/self/status");
}

// ------------------------------------------------------------- workloads

/** One solve or job as the caller saw it. */
struct Unit
{
    uint64_t dueNs = 0;    ///< root span start: due time or call time
    uint64_t callNs = 0;   ///< run() / submit() called
    uint64_t returnNs = 0; ///< run() / submit() returned
    uint64_t endNs = 0;    ///< result available (see README.md)
    bool ok = false;       ///< completed and matched the oracle
};

/** HD-CPS counters summed over every scheduler a measurement used. */
struct SchedTotals
{
    uint64_t local = 0;
    uint64_t remote = 0;
    uint64_t overflow = 0;
    uint64_t flushes = 0;
    uint64_t bags = 0;
    uint64_t bagged = 0;
    double driftSum = 0;
    double tdfSum = 0;
    uint64_t schedulers = 0;

    void
    add(const HdCpsScheduler &s)
    {
        local += s.localEnqueues();
        remote += s.remoteEnqueues();
        overflow += s.overflowPushes();
        flushes += s.srqBatchFlushes();
        bags += s.bagsCreated();
        bagged += s.tasksInBags();
        driftSum += s.averageDrift();
        tdfSum += s.currentTdf();
        ++schedulers;
    }
};

struct Measurement
{
    std::vector<Unit> units;
    uint64_t windowNs = 0; ///< timed windows: solves, or stream segments
    uint64_t seqTasks = 0; ///< oracle task counts over all units
    SchedTotals sched;
    uint64_t backlogMax = 0;   ///< activeJobs() at each arrival
    uint64_t dueHash = 1469598103934665603ULL; ///< FNV-1a of due offsets

    size_t
    failed() const
    {
        return size_t(std::count_if(units.begin(), units.end(),
                                    [](const Unit &u) { return !u.ok; }));
    }
};

/** One open-loop arrival, built (with its oracle) before its segment. */
struct Job
{
    uint64_t offsetNs = 0;
    std::unique_ptr<RelaxationBase> workload;
    SeqPathResult oracle;
    JobSpec spec;
};

/**
 * A resident ExecutorService on its own scheduler. A run starts a fresh
 * one for every stream segment and every kSolvesPerService job solves,
 * outside the timed region. The OS places a service's workers once, and
 * that placement moves its speed from one service to the next, so a run
 * averages over many services rather than riding one placement
 * (README.md has the measurement).
 */
struct Service
{
    std::unique_ptr<HdCpsScheduler> sched;
    std::unique_ptr<TimedScheduler> timed; ///< traced runs
    std::unique_ptr<ExecutorService> svc;  ///< last: joins first
};

/** Everything built before the first measured solve or arrival. The
 *  service comes last, so it joins its workers before the workloads and
 *  graph go away, and its idle workers do not run during the rest of
 *  the set-up. */
struct Setup
{
    Graph graph;
    std::unique_ptr<RelaxationBase> workload; ///< closed loops
    SeqPathResult oracle;                     ///< closed loops
    std::vector<Job> firstSegment;            ///< streams
    Service service;                          ///< sssp-usa-job, streams
};

unsigned
scaleOf(const WorkloadDef &def, const Options &o)
{
    return o.smoke ? 1 : def.scale;
}

std::unique_ptr<RelaxationBase>
makeKernel(bool sssp, const Graph &g, NodeId source)
{
    if (sssp)
        return std::make_unique<SsspWorkload>(g, source);
    return std::make_unique<BfsWorkload>(g, source);
}

SeqPathResult
oracleFor(bool sssp, const Graph &g, NodeId source)
{
    return sssp ? dijkstra(g, source) : bfsLevels(g, source);
}

/** The lowest-numbered node whose traversal reaches at least half the
 *  graph: generated road grids remove edges at random, so a fixed node
 *  can be cut off for some seeds. */
NodeId
giantComponentSource(const Graph &g)
{
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        const std::vector<uint64_t> dist = bfsLevels(g, n).dist;
        const size_t reached = size_t(std::count_if(
            dist.begin(), dist.end(),
            [](uint64_t d) { return d != unreachableDist; }));
        if (2 * reached >= g.numNodes())
            return n;
    }
    hdcps_fatal("no node reaches half of the graph");
}

bool
matchesOracle(const RelaxationBase &w, const SeqPathResult &oracle)
{
    for (NodeId n = 0; n < NodeId(oracle.dist.size()); ++n) {
        if (w.distance(n) != oracle.dist[n])
            return false;
    }
    return true;
}

ProcessFn
makeProcessFn(Workload &w, const Options &o, Tracer *tracer, uint32_t unit)
{
    ProcessFn fn = workloadProcessFn(w);
    if (o.stallUs > 0) {
        fn = [inner = std::move(fn), ns = o.stallUs * 1000,
              first = std::make_shared<std::atomic<bool>>(true)](
                 unsigned tid, const Task &task, std::vector<Task> &out) {
            const uint64_t until = nowNs() + ns;
            inner(tid, task, out);
            if (first->exchange(false)) {
                while (nowNs() < until) {
                }
            }
        };
    }
    if (tracer)
        fn = tracedProcess(*tracer, std::move(fn), unit);
    return fn;
}

HdCpsConfig
designConfig(uint64_t seed)
{
    HdCpsConfig config = HdCpsScheduler::configSw();
    config.seed = seed;
    return config;
}

/** Service `k` of the run; its jobs are units unitBase.. in submit
 *  order. */
Service
startService(const WorkloadDef &def, const Options &o, uint64_t k,
              uint32_t unitBase, Tracer *tracer)
{
    const uint64_t seed = mix64(o.seed ^ (k + 1) * kGolden);
    Service s;
    s.sched = std::make_unique<HdCpsScheduler>(kThreads, designConfig(seed));
    Scheduler *design = s.sched.get();
    if (tracer) {
        s.timed = std::make_unique<TimedScheduler>(*s.sched, *tracer,
                                                   unitBase);
        design = s.timed.get();
    }
    ServiceOptions so;
    so.numThreads = kThreads;
    so.seed = seed;
    if (def.loop == Loop::Stream) {
        so.admissionCapacity = 64;
        so.blockWhenFull = true;
        so.tenants[1].weight = 2.0;
        so.tenants[2].weight = 1.0;
    }
    s.svc = std::make_unique<ExecutorService>(*design, so);
    return s;
}

/** Drain and join `s`, adding its scheduler's counters to `m`. */
void
stopService(Service &s, Measurement &m)
{
    s.svc->shutdown();
    m.sched.add(*s.sched);
    s.svc.reset();
    s.timed.reset();
    s.sched.reset();
}

double
segmentSeconds(const Options &o, double seconds)
{
    return o.smoke ? 1.0 : std::min(kSegmentSeconds, seconds);
}

/** Plan and build segment `k` of a stream; its jobs are units
 *  firstUnit.. in submit order. */
std::vector<Job>
prepareSegment(const WorkloadDef &def, const Options &o, const Graph &g,
               double seconds, uint64_t k, uint32_t firstUnit,
               Tracer *tracer)
{
    Rng rng(mix64(o.seed ^ ((k + 1) * kGolden)));
    const double span = segmentSeconds(o, seconds);
    const size_t n = size_t(std::max(1.0, std::round(def.rate * span)));
    // n uniform arrival times sorted: a Poisson process conditioned on n
    // arrivals in the segment.
    std::vector<uint64_t> offsets(n);
    for (uint64_t &off : offsets)
        off = uint64_t(rng.uniform() * span * 1e9);
    std::sort(offsets.begin(), offsets.end());
    std::vector<Job> jobs(n);
    for (size_t i = 0; i < n; ++i) {
        Job &job = jobs[i];
        const NodeId source = NodeId(rng.below(g.numNodes()));
        job.offsetNs = offsets[i];
        job.workload = makeKernel(def.sssp, g, source);
        job.oracle = oracleFor(def.sssp, g, source);
        job.spec.process = makeProcessFn(*job.workload, o, tracer,
                                         firstUnit + uint32_t(i));
        job.spec.initial = job.workload->initialTasks();
        job.spec.tenant = TenantId(1 + i % 2);
    }
    return jobs;
}

std::unique_ptr<Setup>
buildSetup(const WorkloadDef &def, const Options &o, double seconds,
           Tracer *tracer)
{
    auto s = std::make_unique<Setup>();
    s->graph = makePaperInput(def.input, scaleOf(def, o), o.seed);
    if (def.loop != Loop::Stream) {
        const NodeId source = giantComponentSource(s->graph);
        s->workload = makeKernel(def.sssp, s->graph, source);
        s->oracle = oracleFor(def.sssp, s->graph, source);
    }
    if (def.loop == Loop::Stream) {
        s->firstSegment =
            prepareSegment(def, o, s->graph, seconds, 0, 0, tracer);
    }
    if (def.loop != Loop::RunSolve)
        s->service = startService(def, o, 0, 0, tracer);
    return s;
}

bool
closedLoopDone(const Options &o, uint32_t solves, uint64_t startNs,
               double seconds)
{
    if (o.smoke)
        return solves >= kSmokeSolves;
    return solves >= kMinSolves &&
           double(nowNs() - startNs) >= seconds * 1e9;
}

/** Closed loop, one client: each solve is one run() on a fresh
 *  scheduler, built outside the timed region. */
Measurement
measureRunSolves(const Options &o, Setup &s, double seconds,
                 Tracer *tracer)
{
    Measurement m;
    const uint64_t startNs = nowNs();
    for (uint32_t i = 0; !closedLoopDone(o, i, startNs, seconds); ++i) {
        HdCpsScheduler sched(kThreads,
                             designConfig(mix64(o.seed ^ (i + 1) * kGolden)));
        std::optional<TimedScheduler> timed;
        Scheduler *design = &sched;
        if (tracer)
            design = &timed.emplace(sched, *tracer, i);
        s.workload->reset();
        const ProcessFn fn = makeProcessFn(*s.workload, o, tracer, i);
        const std::vector<Task> initial = s.workload->initialTasks();
        RunOptions options;
        options.numThreads = kThreads;

        Unit u;
        u.dueNs = u.callNs = nowNs();
        RunResult r = run(*design, initial, fn, options);
        u.returnNs = u.endNs = nowNs();

        u.ok = r.ok() && matchesOracle(*s.workload, s.oracle);
        if (!r.ok())
            std::fprintf(stderr, "solve %u failed: %s\n", i,
                         r.error.c_str());
        m.windowNs += u.endNs - u.callNs;
        m.seqTasks += s.oracle.tasksProcessed;
        m.sched.add(sched);
        m.units.push_back(u);
    }
    return m;
}

/** Closed loop, one client: each solve is one job on a resident
 *  service, timed from submit() to the return of wait(). */
Measurement
measureJobSolves(const Options &o, Setup &s, double seconds,
                 Tracer *tracer)
{
    Measurement m;
    const uint64_t startNs = nowNs();
    for (uint32_t i = 0; !closedLoopDone(o, i, startNs, seconds); ++i) {
        if (i > 0 && i % kSolvesPerService == 0) {
            stopService(s.service, m);
            s.service = startService(*o.workload, o, i / kSolvesPerService,
                                     i, tracer);
        }
        s.workload->reset();
        JobSpec spec;
        spec.process = makeProcessFn(*s.workload, o, tracer, i);
        spec.initial = s.workload->initialTasks();

        Unit u;
        u.dueNs = u.callNs = nowNs();
        JobHandle job = s.service.svc->submit(std::move(spec));
        u.returnNs = nowNs();
        JobState state = job.wait();
        u.endNs = nowNs();

        hdcps_check(job.id() == i % kSolvesPerService + 1,
                    "job ids must follow submit order");
        u.ok = state == JobState::Completed &&
               matchesOracle(*s.workload, s.oracle);
        if (state != JobState::Completed)
            std::fprintf(stderr, "job %u ended %s: %s\n", i,
                         jobStateName(state), job.error().c_str());
        m.windowNs += u.endNs - u.callNs;
        m.seqTasks += s.oracle.tasksProcessed;
        m.units.push_back(u);
    }
    stopService(s.service, m);
    return m;
}

void
sleepUntilNs(uint64_t ns)
{
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns)));
}

/** Submit one segment on its schedule to a fresh service, wait for
 *  every job, check each against its oracle. The main thread is the
 *  generator. */
void
runSegment(ExecutorService &svc, std::vector<Job> &jobs, Measurement &m)
{
    const size_t n = jobs.size();
    std::vector<JobHandle> handles(n);
    std::vector<Unit> units(n);
    const uint64_t baseNs = nowNs() + kLeadNs;
    for (size_t i = 0; i < n; ++i) {
        Unit &u = units[i];
        u.dueNs = baseNs + jobs[i].offsetNs;
        sleepUntilNs(u.dueNs);
        u.callNs = nowNs();
        handles[i] = svc.submit(std::move(jobs[i].spec));
        u.returnNs = nowNs();
        m.backlogMax = std::max(m.backlogMax, svc.activeJobs());
        for (int shift = 0; shift < 64; shift += 8) {
            m.dueHash ^= (jobs[i].offsetNs >> shift) & 0xff;
            m.dueHash *= 1099511628211ULL;
        }
    }

    uint64_t endNs = baseNs;
    for (size_t i = 0; i < n; ++i) {
        Unit &u = units[i];
        JobState state = handles[i].wait();
        // The service stamps latency from inside submit(); anchoring it
        // at the call time undercounts by the time submit() spends
        // before its stamp (microseconds, unless the caller is
        // preempted there).
        u.endNs = u.callNs + uint64_t(handles[i].latencyMs() * 1e6);
        hdcps_check(handles[i].id() == i + 1,
                    "job ids must follow submit order");
        u.ok = state == JobState::Completed &&
               matchesOracle(*jobs[i].workload, jobs[i].oracle);
        if (state != JobState::Completed)
            std::fprintf(stderr, "job %u ended %s: %s\n",
                         handles[i].id(), jobStateName(state),
                         handles[i].error().c_str());
        endNs = std::max(endNs, u.endNs);
        m.seqTasks += jobs[i].oracle.tasksProcessed;
    }
    m.windowNs += endNs - baseNs;
    m.units.insert(m.units.end(), units.begin(), units.end());
}

/** Open loop, Poisson at def.rate, in segments; see kSegmentSeconds. */
Measurement
measureStream(const WorkloadDef &def, const Options &o, Setup &s,
              double seconds, Tracer *tracer)
{
    Measurement m;
    const size_t segments =
        o.smoke ? 1
                : size_t(std::max(
                      1.0, std::round(seconds / segmentSeconds(o, seconds))));
    std::vector<Job> jobs = std::move(s.firstSegment);
    for (uint64_t k = 0;; ++k) {
        runSegment(*s.service.svc, jobs, m);
        stopService(s.service, m);
        if (k + 1 >= segments)
            break;
        const uint32_t firstUnit = uint32_t(m.units.size());
        jobs.clear();
        jobs = prepareSegment(def, o, s.graph, seconds, k + 1, firstUnit,
                              tracer);
        s.service = startService(def, o, k + 1, firstUnit, tracer);
    }
    return m;
}

Measurement
measure(const WorkloadDef &def, const Options &o, Setup &s, double seconds,
        Tracer *tracer)
{
    switch (def.loop) {
      case Loop::RunSolve:
        return measureRunSolves(o, s, seconds, tracer);
      case Loop::JobSolve:
        return measureJobSolves(o, s, seconds, tracer);
      default:
        return measureStream(def, o, s, seconds, tracer);
    }
}

/** End-to-end latency of every completed unit, ms. */
std::vector<double>
latenciesMs(const Measurement &m)
{
    std::vector<double> out;
    for (const Unit &u : m.units) {
        if (u.ok)
            out.push_back(double(u.endNs - u.dueNs) / 1e6);
    }
    return out;
}

// ------------------------------------------------------------- reporting

/** Diagnostics of the service and load generator, printed when the
 *  workload has them. */
void
printDiagnostics(const WorkloadDef &def, const Measurement &m)
{
    printMetric("error_frac",
                ratio(double(m.failed()), double(m.units.size())),
                "fraction", counted(m.units.size()));
    if (def.loop == Loop::RunSolve)
        return;
    std::vector<double> submitUs, lateMs;
    for (const Unit &u : m.units) {
        submitUs.push_back(signedUs(u.callNs, u.returnNs));
        lateMs.push_back(signedUs(u.dueNs, u.callNs) / 1e3);
    }
    std::vector<double> lat = latenciesMs(m);
    printMetric("service.submit_us_p50", percentile(submitUs, 0.5), "us",
                counted(submitUs.size()));
    printMetric("service.job_ms_p99", percentile(lat, 0.99), "ms",
                countedTail(lat.size(), 0.99));
    if (def.loop != Loop::Stream)
        return;
    printMetric("service.backlog_max", double(m.backlogMax), "jobs");
    printMetric("loadgen.late_ms_p90", percentile(lateMs, 0.9), "ms",
                countedTail(lateMs.size(), 0.9));
    printMetric("loadgen.late_ms_max", percentile(lateMs, 1.0), "ms",
                counted(lateMs.size()));
    printMetric("loadgen.due_hash", double(m.dueHash % 1000000007ULL),
                "hash");
}

/** The user-visible numbers of an untraced measurement. README.md says
 *  which of them BENCHMARK.json bounds and which it only reports. */
void
printEndToEnd(const Measurement &m, double setupS, unsigned setupReps,
              double rssMiB)
{
    std::vector<double> lat = latenciesMs(m);
    printMetric("setup_s", setupS, "s", counted(setupReps));
    printMetric("latency_ms_p50", percentile(lat, 0.5), "ms",
                counted(lat.size()));
    printMetric("latency_ms_p90", percentile(lat, 0.9), "ms",
                countedTail(lat.size(), 0.9));
    printMetric("throughput_per_s",
                ratio(double(lat.size()), double(m.windowNs) / 1e9), "1/s",
                counted(lat.size()));
    printMetric("peak_rss_mb", rssMiB, "MiB");
}

volatile uint64_t gReplaySink = 0;

/** Replay worker 0's op log through one PQ: ns per push or pop. */
template <typename Pq>
double
replayPq(const std::vector<uint64_t> &ops)
{
    std::vector<double> reps;
    for (int rep = 0; rep < kReplayReps; ++rep) {
        Pq pq;
        uint64_t sink = 0, done = 0;
        const uint64_t begin = nowNs();
        for (size_t i = 0; i < ops.size(); ++i) {
            if (ops[i] != kPopOp) {
                pq.push(Task{ops[i], uint32_t(i), 0});
                ++done;
            } else if (!pq.empty()) {
                sink += pq.pop().priority;
                ++done;
            }
        }
        while (!pq.empty()) {
            sink += pq.pop().priority;
            ++done;
        }
        const uint64_t end = nowNs();
        gReplaySink = gReplaySink + sink;
        reps.push_back(ratio(double(end - begin), double(done)));
    }
    return percentile(reps, 0.5);
}

/** Replay the logged pushes through one sRQ ring in batches of
 *  `batch`: ns per task for tryPushN + tryPopN. */
double
replaySrq(const std::vector<uint64_t> &ops, size_t batch)
{
    std::vector<Task> tasks;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i] != kPopOp)
            tasks.push_back(Task{ops[i], uint32_t(i), 0});
    }
    if (tasks.empty())
        return 0.0;
    batch = std::clamp<size_t>(batch, 1, kSrqCapacity);
    std::vector<Task> out(batch);
    std::vector<double> reps;
    for (int rep = 0; rep < kReplayReps; ++rep) {
        ReceiveQueue<Task> ring(kSrqCapacity);
        uint64_t sink = 0;
        const uint64_t begin = nowNs();
        for (size_t i = 0; i < tasks.size(); i += batch) {
            size_t n = std::min(batch, tasks.size() - i);
            size_t pushed = ring.tryPushN(&tasks[i], n);
            hdcps_check(pushed == n, "replay ring unexpectedly full");
            size_t popped = ring.tryPopN(out.data(), n);
            hdcps_check(popped == n, "replay ring lost tasks");
            sink += out[n - 1].priority;
        }
        const uint64_t end = nowNs();
        gReplaySink = gReplaySink + sink;
        reps.push_back(double(end - begin) / double(tasks.size()));
    }
    return percentile(reps, 0.5);
}

/** Per-unit stage boundaries from the worker stamps. */
struct Stage
{
    uint64_t firstNs = 0; ///< first process() start (0: none seen)
    uint64_t lastNs = 0;  ///< last process() end
    uint64_t freeNs = 0;  ///< its worker free again
};

std::vector<Stage>
stagesOf(const Tracer &tracer, size_t units)
{
    std::vector<Stage> stages(units);
    for (const WorkerTrace &w : tracer.workers()) {
        for (size_t u = 0; u < std::min(units, w.firstNs.size()); ++u) {
            if (w.firstNs[u] == 0)
                continue;
            Stage &s = stages[u];
            s.firstNs = s.firstNs == 0 ? w.firstNs[u]
                                       : std::min(s.firstNs, w.firstNs[u]);
            s.lastNs = std::max(s.lastNs, w.lastNs[u]);
            s.freeNs = std::max(s.freeNs, w.freeNs[u]);
        }
    }
    return stages;
}

void
printPerLayer(const Measurement &m, const Tracer &tracer,
              const std::vector<Stage> &stages, double overheadFrac)
{
    uint64_t pushTasks = 0, popCalls = 0, popEmpty = 0;
    uint64_t processCalls = 0, processNs = 0, parents = 0, children = 0;
    uint64_t sampledPushTasks = 0, sampledPushNs = 0;
    double schedNs = 0;
    std::vector<double> popNs, processSpanNs;
    for (const WorkerTrace &w : tracer.workers()) {
        pushTasks += w.pushTasks;
        popCalls += w.popCalls;
        popEmpty += w.popEmpty;
        processCalls += w.processCalls;
        processNs += w.processNs;
        parents += w.parents;
        children += w.children;
        sampledPushTasks += w.sampledPushTasks;
        sampledPushNs += w.sampledPushNs;
        // Scale each worker's sampled time up to all of its calls.
        schedNs += double(w.sampledPushNs) *
                   ratio(double(w.pushCalls), double(w.sampledPushCalls));
        schedNs += double(w.sampledPopNs) *
                   ratio(double(w.popCalls - w.popEmpty),
                         double(w.sampledPopCalls));
        for (const Span &s : w.spans) {
            if (s.kind == SpanKind::Pop)
                popNs.push_back(double(s.endNs - s.beginNs));
            else if (s.kind == SpanKind::Process)
                processSpanNs.push_back(double(s.endNs - s.beginNs));
        }
    }
    const double workerNs = double(kThreads) * double(m.windowNs);
    const double algosBusy = ratio(double(processNs), workerNs);
    const double schedBusy = ratio(schedNs, workerNs);

    printMetric("algos.process_ns_p50", percentile(processSpanNs, 0.5),
                "ns", counted(processSpanNs.size()));
    printMetric("algos.busy_frac", algosBusy, "fraction");
    // Children per task is 1 by conservation; the fan-out of the tasks
    // that did create children is what shapes pushBatch and bags.
    const double fanout = ratio(double(children), double(parents));
    printMetric("algos.children_per_parent", fanout, "count");

    printMetric("sched.push_ns_per_task",
                ratio(double(sampledPushNs), double(sampledPushTasks)), "ns",
                counted(sampledPushTasks));
    printMetric("sched.pop_ns_p50", percentile(popNs, 0.5), "ns",
                counted(popNs.size()));
    printMetric("sched.pop_empty_frac",
                ratio(double(popEmpty), double(popCalls)), "fraction",
                counted(popCalls));
    printMetric("sched.busy_frac", schedBusy, "fraction");
    printMetric("sched.useful_ratio",
                ratio(double(m.seqTasks), double(processCalls)), "fraction");
    const SchedTotals &t = m.sched;
    printMetric("sched.avg_drift", ratio(t.driftSum, double(t.schedulers)),
                "levels");
    printMetric("sched.tdf_final", ratio(t.tdfSum, double(t.schedulers)),
                "%");

    printMetric("transfer.remote_frac",
                ratio(double(t.remote), double(t.remote + t.local)),
                "fraction");
    printMetric("transfer.overflow_frac",
                ratio(double(t.overflow), double(t.remote)), "fraction");
    printMetric("transfer.tasks_per_flush",
                ratio(double(t.remote), double(t.flushes)), "count");
    printMetric("transfer.bagged_frac",
                ratio(double(t.bagged), double(pushTasks)), "fraction");
    printMetric("transfer.tasks_per_bag",
                ratio(double(t.bagged), double(t.bags)), "count");

    const std::vector<uint64_t> &ops = tracer.opLog();
    const size_t batch = size_t(std::lround(std::max(1.0, fanout)));
    printMetric("transfer.srq_replay_ns_per_task", replaySrq(ops, batch),
                "ns", "batch=" + std::to_string(batch));
    printMetric("pq.replay_ns_per_op",
                replayPq<DAryHeap<Task, TaskOrder>>(ops), "ns",
                counted(ops.size()));
    printMetric("local_pq.dary_ns_per_op",
                replayPq<DAryLocalPq<Task, TaskOrder>>(ops), "ns",
                counted(ops.size()));
    printMetric("local_pq.mq_ns_per_op",
                replayPq<RelaxedMqLocalPq<Task, TaskOrder>>(ops), "ns",
                counted(ops.size()));

    std::vector<double> dispatchUs, execMs, drainUs;
    for (size_t u = 0; u < m.units.size(); ++u) {
        if (stages[u].firstNs == 0)
            continue;
        dispatchUs.push_back(signedUs(m.units[u].callNs, stages[u].firstNs));
        execMs.push_back(signedUs(stages[u].firstNs, stages[u].lastNs) /
                         1e3);
        drainUs.push_back(signedUs(stages[u].lastNs, m.units[u].endNs));
    }
    printMetric("runtime.self_frac", 1.0 - algosBusy - schedBusy,
                "fraction");
    printMetric("runtime.dispatch_us_p50", percentile(dispatchUs, 0.5), "us",
                counted(dispatchUs.size()));
    printMetric("runtime.exec_ms_p50", percentile(execMs, 0.5), "ms",
                counted(execMs.size()));
    printMetric("runtime.drain_us_p50", percentile(drainUs, 0.5), "us",
                counted(drainUs.size()));
    printMetric("trace.overhead_frac", overheadFrac, "fraction");
}

/** Write the traced half as Chrome trace-event JSON (opens in Perfetto
 *  and chrome://tracing). Each solve or job is an async root span with
 *  dispatch/exec/finish stages; worker child spans are complete events
 *  on one track per worker, for the first kTraceUnits units. */
void
writeTrace(const std::string &path, const WorkloadDef &def,
           const Measurement &m, const Tracer &tracer,
           const std::vector<Stage> &stages)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        hdcps_fatal("cannot write trace '%s'", path.c_str());
    uint64_t origin = ~uint64_t(0);
    for (const Unit &u : m.units)
        origin = std::min(origin, u.dueNs);
    auto us = [origin](uint64_t ns) {
        return (double(ns) - double(origin)) / 1e3;
    };
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"args\":{\"name\":\"hdcps_bench %s\"}}",
                 def.name);
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":0,\"args\":{\"name\":\"caller\"}}");
    for (unsigned w = 0; w < kThreads; ++w) {
        std::fprintf(f,
                     ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%u,\"args\":{\"name\":\"worker %u\"}}",
                     w + 1, w);
    }
    auto async = [&](const char *name, char ph, size_t unit, uint64_t ns) {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"unit\",\"ph\":\"%c\","
                     "\"id\":%zu,\"pid\":1,\"tid\":0,\"ts\":%.3f,"
                     "\"args\":{\"unit\":%zu}}",
                     name, ph, unit, us(ns), unit);
    };
    const char *root = def.loop == Loop::RunSolve ? "solve" : "job";
    for (size_t u = 0; u < m.units.size(); ++u) {
        const Unit &unit = m.units[u];
        async(root, 'b', u, unit.dueNs);
        if (stages[u].firstNs != 0) {
            const uint64_t first = stages[u].firstNs;
            const uint64_t last = stages[u].lastNs;
            async("dispatch", 'b', u, unit.callNs);
            async("dispatch", 'e', u, first);
            async("exec", 'b', u, first);
            async("exec", 'e', u, last);
            async("finish", 'b', u, last);
            async("finish", 'e', u, unit.endNs);
        }
        async(root, 'e', u, unit.endNs);
    }
    for (unsigned w = 0; w < kThreads; ++w) {
        for (const Span &s : tracer.workers()[w].spans) {
            if (s.unit >= kTraceUnits || s.unit >= m.units.size())
                continue;
            std::fprintf(f,
                         ",\n{\"name\":\"%s\",\"cat\":\"child\",\"ph\":"
                         "\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":"
                         "%.3f,\"args\":{\"unit\":%u}}",
                         spanName(s.kind), w + 1, us(s.beginNs),
                         double(s.endNs - s.beginNs) / 1e3, s.unit);
        }
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0)
        hdcps_fatal("cannot finish trace '%s'", path.c_str());
}

int
benchMain(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadDef &def = *o.workload;
    std::printf("workload %s\nseed %" PRIu64 "\nrev %s\ndirty %s\n",
                def.name, o.seed, HDCPS_E2E_GIT_REV, HDCPS_E2E_GIT_DIRTY);

    // Untraced, the whole run; traced, its first half, which prices the
    // tracing and gives the per-layer list its untraced numbers.
    const double plainSeconds =
        o.traceFile.empty() ? o.seconds : o.seconds / 2;
    const unsigned reps = o.smoke ? 1 : kSetupReps;
    std::vector<double> setupS;
    std::unique_ptr<Setup> setup;
    for (unsigned r = 0; r < reps; ++r) {
        setup.reset(); // joins the previous service's workers
        const uint64_t begin = nowNs();
        setup = buildSetup(def, o, plainSeconds, nullptr);
        setupS.push_back(double(nowNs() - begin) / 1e9);
    }
    Measurement plain = measure(def, o, *setup, plainSeconds, nullptr);
    setup.reset();
    printEndToEnd(plain, percentile(setupS, 0.5), reps, peakRssMiB());
    printDiagnostics(def, plain);
    size_t attempted = plain.units.size(), failed = plain.failed();

    if (!o.traceFile.empty()) {
        Tracer tracer(kThreads);
        setup = buildSetup(def, o, o.seconds / 2, &tracer);
        Measurement m = measure(def, o, *setup, o.seconds / 2, &tracer);
        setup.reset();

        std::vector<double> plainLat = latenciesMs(plain);
        std::vector<double> tracedLat = latenciesMs(m);
        const double overhead = ratio(percentile(tracedLat, 0.5),
                                      percentile(plainLat, 0.5)) - 1.0;
        // A stream job's end is the service's latency stamp anchored at
        // the submit() call, which can sit before the true terminal
        // state. Traced units end once the worker that ran their last
        // task is free again, if that is later.
        const std::vector<Stage> stages = stagesOf(tracer, m.units.size());
        for (size_t u = 0; u < m.units.size(); ++u)
            m.units[u].endNs = std::max(m.units[u].endNs, stages[u].freeNs);
        printPerLayer(m, tracer, stages, overhead);
        writeTrace(o.traceFile, def, m, tracer, stages);
        attempted += m.units.size();
        failed += m.failed();
    }
    std::printf("attempted %zu\nfailed %zu\n", attempted, failed);
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace hdcps::e2e

int
main(int argc, char **argv)
{
    return hdcps::e2e::benchMain(argc, argv);
}
