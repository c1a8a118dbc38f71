/**
 * @file
 * hdcps_soak — randomized chaos soak for the threaded schedulers.
 *
 * Each iteration draws a scenario from a seeded RNG — kernel × input ×
 * scheduler design × benign fault injection × straggler pauses — runs
 * it under the invariant-checking VerifyingScheduler wrapper with sRQ
 * reclamation and the watchdog armed, and diffs the result against the
 * workload's sequential oracle. A slice of the iterations arms a
 * fatal fault (exec.process.throw) on purpose and instead asserts the
 * *graceful-failure* contract: the run fails with the injected error,
 * no crash, and task conservation still holds.
 *
 * Everything is deterministic from --seed (per-run seeds are derived
 * with mix64), so any failing line reproduces standalone:
 *
 *   hdcps_soak --runs 40 --seed 7 --threads 4 --budget-ms 45000
 *
 * Exit status: 0 when every iteration met its contract, 1 otherwise.
 * CI runs this under tsan and asan-ubsan (tools/ci_sanitize.sh) where
 * the chaos doubles as a data-race and lifetime-bug detector.
 */

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/workload.h"
#include "core/designs.h"
#include "cps/verifying_scheduler.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/executor_service.h"
#include "support/fault.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/straggler.h"
#include "support/timer.h"

namespace {

using namespace hdcps;

struct Options
{
    uint64_t runs = 20;
    uint64_t seed = 1;
    unsigned threads = 4;
    uint64_t budgetMs = 0; ///< 0 = unbounded
    bool verbose = false;
    /** Crash (SIGABRT + slot dump) on the first overlapping metrics
     *  write instead of counting it — turns a post-hoc conformance
     *  failure into a stack trace at the racing store. */
    bool abortOnWriterViolation = false;
    /** Fraction of runs that exercise the multi-tenant
     *  ExecutorService (job stream + cancel/deadline/retry chaos)
     *  instead of a single run(). */
    double serviceSlice = 0.25;
    /** Fraction of runs that arm the worker supervisor and kill or
     *  wedge workers mid-run (svc.worker.die / svc.worker.wedge, plus
     *  optional poison tasks), asserting heal + exact conservation. */
    double supervisorSlice = 0.15;
    /** Fraction of runs that chaos-test weighted-fair multi-tenant
     *  dispatch: a heavy-weight tenant floods the service while a
     *  weight-1 tenant must still progress, a rate-limited tenant must
     *  reject with a typed reason, and a deprioritized job's re-tagged
     *  incarnations must conserve exactly. */
    double fairnessSlice = 0.10;
    /** Designs to draw from (default: all). The first |designs| runs
     *  visit each exactly once, so even short sweeps cover every
     *  requested backend before randomness takes over. */
    std::vector<std::string> designs;
    /** Topology applied to the hdcps-* designs ("flat", "auto", or a
     *  synthetic NxM spec): chaos under hierarchical routing. Baseline
     *  designs have no topology knob and ignore it. */
    Topology topology;
};

void
usage()
{
    std::cout <<
        "usage: hdcps_soak [options]\n"
        "  --runs N       scenario iterations (default 20)\n"
        "  --seed S       base seed; run i uses mix64(S + i) (default 1)\n"
        "  --threads N    worker threads per run (default 4)\n"
        "  --budget-ms N  stop cleanly after N ms of wall time "
        "(default unbounded)\n"
        "  --designs A,B  restrict scenarios to these designs "
        "(default: all)\n"
        "  --topology T   topology for the hdcps-* designs: flat, auto\n"
        "                 (detect NUMA nodes), or NxM synthetic (e.g.\n"
        "                 2x2; deterministic, no affinity) (default "
        "flat)\n"
        "  --service-slice F  fraction of runs that chaos-test the\n"
        "                 multi-tenant ExecutorService instead of a\n"
        "                 single run() (default 0.25)\n"
        "  --supervisor-slice F   fraction of runs that kill/wedge\n"
        "                 supervised service workers mid-run and assert\n"
        "                 heal, capacity restoration, and exact task\n"
        "                 conservation (default 0.15)\n"
        "  --fairness-slice F fraction of runs that flood the service\n"
        "                 from a heavy-weight tenant and assert that a\n"
        "                 weight-1 tenant still progresses, quotas\n"
        "                 reject with typed reasons, and preemption\n"
        "                 re-tags conserve exactly (default 0.10)\n"
        "  --abort-on-writer-violation  SIGABRT at the first\n"
        "                 overlapping metrics write (stack trace at the\n"
        "                 racing store) instead of counting it\n"
        "  --verbose      print every scenario, not just failures\n";
}

uint64_t
parseUint(const char *flag, const char *text, uint64_t max)
{
    if (text[0] == '\0' || text[0] == '-' || text[0] == '+' ||
        std::isspace(static_cast<unsigned char>(text[0]))) {
        hdcps_fatal("%s: want a non-negative integer, got '%s'", flag,
                    text);
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        hdcps_fatal("%s: want a non-negative integer, got '%s'", flag,
                    text);
    if (errno == ERANGE || parsed > max) {
        hdcps_fatal("%s: value '%s' out of range (max %llu)", flag, text,
                    static_cast<unsigned long long>(max));
    }
    return parsed;
}

/** Parse a comma-separated --designs list against the design
 *  registry. */
std::vector<std::string>
parseDesignList(const char *text)
{
    std::vector<std::string> out;
    std::string item;
    for (const char *p = text;; ++p) {
        if (*p != ',' && *p != '\0') {
            item += *p;
            continue;
        }
        if (!findThreadedDesign(item)) {
            hdcps_fatal("--designs: unknown design '%s' (want a "
                        "comma-separated subset of %s)",
                        item.c_str(), threadedDesignNames().c_str());
        }
        out.push_back(item);
        item.clear();
        if (*p == '\0')
            break;
    }
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            hdcps_fatal("missing value for %s", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--runs") {
            options.runs = parseUint("--runs", value(i), 1000000);
        } else if (arg == "--seed") {
            options.seed =
                parseUint("--seed", value(i),
                          std::numeric_limits<uint64_t>::max());
        } else if (arg == "--threads") {
            options.threads = unsigned(
                parseUint("--threads", value(i), 256));
        } else if (arg == "--budget-ms") {
            options.budgetMs =
                parseUint("--budget-ms", value(i), 86400000ULL);
        } else if (arg == "--designs") {
            options.designs = parseDesignList(value(i));
        } else if (arg == "--topology") {
            std::string error;
            if (!Topology::parseSpec(value(i), &options.topology,
                                     &error))
                hdcps_fatal("--topology: %s", error.c_str());
        } else if (arg == "--service-slice" ||
                   arg == "--supervisor-slice" ||
                   arg == "--fairness-slice") {
            const char *text = value(i);
            char *end = nullptr;
            errno = 0;
            double parsed = std::strtod(text, &end);
            if (end == text || *end != '\0' || errno == ERANGE ||
                parsed < 0.0 || parsed > 1.0) {
                hdcps_fatal("%s: want a fraction in [0, 1], got '%s'",
                            arg.c_str(), text);
            }
            if (arg == "--service-slice")
                options.serviceSlice = parsed;
            else if (arg == "--supervisor-slice")
                options.supervisorSlice = parsed;
            else
                options.fairnessSlice = parsed;
        } else if (arg == "--abort-on-writer-violation") {
            options.abortOnWriterViolation = true;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            hdcps_fatal("unknown option '%s'", arg.c_str());
        }
    }
    hdcps_check(options.threads >= 1, "--threads must be >= 1");
    hdcps_check(options.serviceSlice + options.supervisorSlice +
                        options.fairnessSlice <=
                    1.0,
                "--service-slice + --supervisor-slice + "
                "--fairness-slice must not exceed 1");
    if (options.designs.empty()) {
        for (const DesignEntry &design : threadedDesigns())
            options.designs.push_back(design.name);
    }
    return options;
}

/** One drawn scenario, printable for reproduction. */
struct Scenario
{
    uint64_t seed = 0;
    std::string kernel;
    std::string input;
    std::string design;
    std::string faultSpec;     ///< benign fault sites, may be empty
    std::string stragglerSpec; ///< pause events, may be empty
    bool expectFailure = false; ///< exec.process.throw armed
    /** Chaos-test the multi-tenant ExecutorService (job stream with a
     *  cancel victim, a doomed deadline, retries, and an admission
     *  burst) instead of a single run(). */
    bool serviceRun = false;
    /** Chaos-test the worker supervisor: kill and/or wedge service
     *  workers mid-run and assert heal + exact conservation. */
    bool supervisorRun = false;
    /** Chaos-test weighted-fair dispatch: heavy-tenant flood vs a
     *  weight-1 tenant, typed quota rejections, and a deprioritize
     *  drill, all under exact per-job conservation. */
    bool fairnessRun = false;
};

const char *const kKernels[] = {"sssp", "bfs"};
const char *const kInputs[] = {"usa", "cage"};

/** Windows (ms): pauses are ~2x the reclaim window so a paused worker
 *  reliably crosses staleness, and the watchdog is far beyond both so
 *  it only fires for genuine hangs. */
constexpr uint64_t kReclaimAfterMs = 25;
constexpr uint64_t kWatchdogMs = 3000;

Scenario
drawScenario(Rng &rng, uint64_t runSeed, unsigned threads,
             const std::vector<std::string> &designs, uint64_t runIndex,
             double serviceSlice, double supervisorSlice,
             double fairnessSlice)
{
    Scenario s;
    s.seed = runSeed;
    s.kernel = kKernels[rng.below(std::size(kKernels))];
    s.input = kInputs[rng.below(std::size(kInputs))];
    // First cycle round-robins the design list so short CI sweeps still
    // put every requested backend through the chaos at least once;
    // after that, draw uniformly.
    s.design = runIndex < designs.size()
                   ? designs[runIndex]
                   : designs[rng.below(designs.size())];

    const double slice =
        runIndex >= designs.size() ? rng.uniform() : 1.0;

    // Supervisor scenarios kill and/or wedge workers of a supervised
    // service mid-run: at least one worker loss per scenario, with a
    // poison-task drill riding along half the time.
    if (slice < supervisorSlice) {
        s.supervisorRun = true;
        s.kernel = "jobstream";
        s.input = "synthetic";
        uint64_t pick = rng.below(3); // 0 = die, 1 = wedge, 2 = both
        if (pick != 1) {
            s.faultSpec = "svc.worker.die:once:" +
                          std::to_string(100 + rng.below(300));
        }
        if (pick != 0) {
            if (!s.faultSpec.empty())
                s.faultSpec += ",";
            s.faultSpec += "svc.worker.wedge:once:" +
                           std::to_string(100 + rng.below(300));
        }
        if (rng.chance(0.5)) {
            s.faultSpec += ",svc.task.poison:nth:" +
                           std::to_string(97 + rng.below(200));
        }
        return s;
    }

    // Fairness scenarios flood the service from a heavy-weight tenant
    // while a weight-1 tenant, a rate-limited tenant, and a
    // deprioritized job ride along; benign pop misfires and straggler
    // pauses keep the dispatch path under the same pressure as the
    // other service slices.
    if (slice < supervisorSlice + fairnessSlice) {
        s.fairnessRun = true;
        s.kernel = "jobstream";
        s.input = "synthetic";
        if (rng.chance(0.5))
            s.faultSpec = "exec.pop.fail:prob:0.002";
        if (threads >= 2 && rng.chance(0.6)) {
            unsigned victim = 1 + unsigned(rng.below(threads - 1));
            s.stragglerSpec =
                std::to_string(victim) + ":" +
                std::to_string(20 + rng.below(200)) + ":" +
                std::to_string(2 * kReclaimAfterMs + rng.below(30));
        }
        return s;
    }

    // Service scenarios drill the multi-tenant layer: the job-level
    // fault sites replace the single-run exec.process.throw slice, and
    // straggler pauses carry over unchanged.
    if (slice < supervisorSlice + fairnessSlice + serviceSlice) {
        s.serviceRun = true;
        s.kernel = "jobstream";
        s.input = "synthetic";
        if (rng.chance(0.5))
            s.faultSpec = "exec.pop.fail:prob:0.002";
        if (rng.chance(0.6)) {
            if (!s.faultSpec.empty())
                s.faultSpec += ",";
            s.faultSpec += "svc.job.fail:nth:" +
                           std::to_string(64 + rng.below(192));
        }
        if (rng.chance(0.5)) {
            if (!s.faultSpec.empty())
                s.faultSpec += ",";
            // Widen the cancel/completion race window by up to 0.3 ms.
            s.faultSpec += "svc.cancel.race:delay:" +
                           std::to_string(rng.below(300000));
        }
        if (rng.chance(0.4)) {
            if (!s.faultSpec.empty())
                s.faultSpec += ",";
            // Invocations 1-4 are the pinned jobs (must admit); the
            // admission burst starts at invocation 5, so forced
            // rejections only ever hit burst submissions.
            s.faultSpec += "svc.admit.full:nth:" +
                           std::to_string(5 + rng.below(8));
        }
        if (threads >= 2 && rng.chance(0.6)) {
            unsigned victim = 1 + unsigned(rng.below(threads - 1));
            s.stragglerSpec =
                std::to_string(victim) + ":" +
                std::to_string(20 + rng.below(200)) + ":" +
                std::to_string(2 * kReclaimAfterMs + rng.below(30));
        }
        return s;
    }

    // Benign chaos: occasional pop misfires and forced overflow spills
    // exercise the retry and spill paths without changing semantics.
    if (rng.chance(0.5))
        s.faultSpec = "exec.pop.fail:prob:0.002";
    if (rng.chance(0.4)) {
        if (!s.faultSpec.empty())
            s.faultSpec += ",";
        s.faultSpec += "hdcps.overflow.spill:prob:0.01";
    }

    // Straggler pauses: one early pause well past the reclaim window,
    // sometimes on two workers at once.
    if (threads >= 2 && rng.chance(0.6)) {
        unsigned victim = 1 + unsigned(rng.below(threads - 1));
        uint64_t atCheck = 20 + rng.below(300);
        uint64_t pauseMs = 2 * kReclaimAfterMs + rng.below(30);
        s.stragglerSpec = std::to_string(victim) + ":" +
                          std::to_string(atCheck) + ":" +
                          std::to_string(pauseMs);
        if (threads >= 3 && rng.chance(0.25)) {
            unsigned other = 1 + unsigned(rng.below(threads - 1));
            if (other == victim)
                other = 1 + (other % (threads - 1));
            s.stragglerSpec += "," + std::to_string(other) + ":" +
                               std::to_string(20 + rng.below(300)) +
                               ":" + std::to_string(2 * kReclaimAfterMs);
        }
    }

    // A slice of runs tests graceful failure instead of completion.
    if (rng.chance(0.2)) {
        s.expectFailure = true;
        uint64_t nth = 100 + rng.below(400);
        if (!s.faultSpec.empty())
            s.faultSpec += ",";
        s.faultSpec += "exec.process.throw:nth:" + std::to_string(nth);
    }

    // A share of runs hands its helpers over late: each one sleeps up
    // to 2 ms before it enters its worker body, and run() must still
    // wait for every one of them.
    if (rng.chance(0.3)) {
        if (!s.faultSpec.empty())
            s.faultSpec += ",";
        s.faultSpec += "exec.helper.delay:delay:" +
                       std::to_string(1 + rng.below(2000000));
    }
    return s;
}

std::unique_ptr<Scheduler>
makeScheduler(const Scenario &s, const Options &options)
{
    return findThreadedDesign(s.design)->make(
        options.threads, {.seed = s.seed, .topology = options.topology});
}

std::string
describe(const Scenario &s)
{
    std::string out = s.kernel + "/" + s.input + "/" + s.design +
                      " seed=" + std::to_string(s.seed);
    if (!s.faultSpec.empty())
        out += " faults=" + s.faultSpec;
    if (!s.stragglerSpec.empty())
        out += " stragglers=" + s.stragglerSpec;
    if (s.expectFailure)
        out += " (expect graceful failure)";
    if (s.serviceRun)
        out += " (executor service)";
    if (s.supervisorRun)
        out += " (supervised service)";
    if (s.fairnessRun)
        out += " (weighted-fair service)";
    return out;
}

/** Sum of the samples of one named global series in a snapshot. */
uint64_t
seriesTotal(const MetricsSnapshot &snap, const std::string &name)
{
    double total = 0;
    for (const auto &series : snap.series) {
        if (series.name != name)
            continue;
        for (const MetricSample &sample : series.samples)
            total += sample.value;
    }
    return uint64_t(total);
}

/** Samples ever recorded into the series `name` (0 when absent). */
uint64_t
seriesSamples(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &series : snap.series) {
        if (series.name == name)
            return series.totalRecorded;
    }
    return 0;
}

struct Tally
{
    uint64_t ran = 0;
    uint64_t failed = 0;
    uint64_t expectedFailures = 0;
    uint64_t reclaimedTasks = 0;
    uint64_t reclaimDecisions = 0; ///< run() monitor quarantines + heals
    uint64_t pausesInjected = 0;
    uint64_t lateHelperRuns = 0; ///< runs whose helpers started late
    uint64_t serviceRuns = 0;
    uint64_t jobsCompleted = 0; ///< service jobs that ran to completion
    uint64_t jobsRejected = 0;  ///< admission rejections (burst jobs)
    uint64_t taskRetries = 0;   ///< transient-failure retries
    uint64_t supervisorRuns = 0;
    uint64_t workerRestarts = 0; ///< healed worker deaths/wedges
    uint64_t poisonedTasks = 0;  ///< tasks dead-lettered by poison
    uint64_t fairnessRuns = 0;
    uint64_t demotedTasks = 0;    ///< incarnations re-tagged by preemption
    uint64_t quotaRejections = 0; ///< typed tenant-quota rejections
};

/** Run one scenario; returns true when it met its contract. */
bool
runScenario(const Scenario &s, const Options &options,
            const std::map<std::string, Graph> &graphs, Tally &tally)
{
    auto fail = [&](const std::string &why) {
        std::cerr << "FAIL " << describe(s) << "\n  " << why << "\n";
        return false;
    };

    auto workload =
        makeWorkload(s.kernel, graphs.at(s.input), /*source=*/0);

    ScopedFaultInjection faults(s.seed);
    if (!s.faultSpec.empty()) {
        std::string error;
        hdcps_check(faults->parseSpec(s.faultSpec, &error),
                    "soak generated a bad fault spec: %s",
                    error.c_str());
    }

    ScopedStragglerInjection stragglers(options.threads, s.seed);
    if (!s.stragglerSpec.empty()) {
        std::string error;
        hdcps_check(stragglers.injector().parseSpec(s.stragglerSpec,
                                                    &error),
                    "soak generated a bad straggler spec: %s",
                    error.c_str());
    }

    auto inner = makeScheduler(s, options);
    VerifyingScheduler verified(*inner);
    // Armed single-writer checker: any scheduler/helper thread writing
    // another worker's metric slot mid-write is a conformance failure,
    // same as losing a task.
    MetricsRegistry::Config metricsConfig;
    metricsConfig.checkSingleWriter = true;
    metricsConfig.abortOnWriterViolation =
        options.abortOnWriterViolation;
    MetricsRegistry metrics(options.threads, metricsConfig);

    RunOptions runOptions;
    runOptions.numThreads = options.threads;
    runOptions.watchdogMs = kWatchdogMs;
    runOptions.reclaimAfterMs = kReclaimAfterMs;
    runOptions.metrics = &metrics;

    RunResult r = run(verified, workload->initialTasks(),
                      workloadProcessFn(*workload), runOptions);
    const uint64_t pauses = stragglers.injector().pausesInjected();
    tally.pausesInjected += pauses;
    if (faults->fireCount(faultsite::ExecHelperDelay) > 0)
        ++tally.lateHelperRuns;

    // Invariants first: they must hold on every run, failed or not.
    std::string why;
    if (!verified.checkComplete(r.failed, &why))
        return fail("invariant violation: " + why);
    if (metrics.writerViolations() > 0) {
        std::string detail;
        for (const std::string &sample :
             metrics.writerViolationSamples())
            detail += "\n    " + sample;
        return fail("metrics single-writer violation (" +
                    std::to_string(metrics.writerViolations()) +
                    " overlapping writes):" + detail);
    }

    // run()'s monitor records one reclaimed_tasks sample per reclaim,
    // even when nothing moved, so the sample count is its decision
    // count. Paused workers resume on their own, so a monitor that never
    // fired would still pass the checks above: every completed run
    // that paused a worker (each pause outlasts the reclaim window)
    // must show a decision, whatever the design. How many tasks moved
    // is the conservation check's business.
    const MetricsSnapshot snap = metrics.snapshot();
    const uint64_t decisions = seriesSamples(snap, "reclaimed_tasks");
    tally.reclaimedTasks += seriesTotal(snap, "reclaimed_tasks");
    tally.reclaimDecisions += decisions;
    if (!r.failed && pauses > 0 && decisions == 0) {
        return fail(std::to_string(pauses) +
                    " straggler pause(s) outlasted the reclaim window, "
                    "but the monitor made no decision");
    }

    if (s.expectFailure) {
        if (!r.failed)
            return fail("expected the injected ProcessFn throw to fail "
                        "the run, but it completed");
        if (r.error.find("injected") == std::string::npos)
            return fail("run failed, but not with the injected error: " +
                        r.error);
        ++tally.expectedFailures;
        return true;
    }

    if (r.failed)
        return fail("run failed: " + r.error);
    if (!workload->verify(&why))
        return fail("oracle mismatch: " + why);
    return true;
}

/** Tree job: every task with data > 0 spawns `fanout` children one
 *  level down; total tasks for depth d are (fanout^(d+1)-1)/(fanout-1).
 *  Mirrors the tests' synthetic job so soak failures reproduce there. */
ProcessFn
treeJob(std::atomic<uint64_t> &processed, uint32_t fanout)
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
treeSize(uint32_t depth, uint32_t fanout)
{
    uint64_t total = 0, level = 1;
    for (uint32_t d = 0; d <= depth; ++d) {
        total += level;
        level *= fanout;
    }
    return total;
}

/** Self-replenishing job: every task sleeps, then spawns one child —
 *  effectively unbounded, so it only ends by cancel or deadline. */
ProcessFn
replenishJob(std::atomic<uint64_t> &processed, uint64_t sleepUs)
{
    return [&processed, sleepUs](unsigned, const Task &task,
                                 std::vector<Task> &children) {
        processed.fetch_add(1, std::memory_order_relaxed);
        if (sleepUs > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(sleepUs));
        }
        children.push_back(
            Task{task.priority + 1, task.node + 1, task.data});
    };
}

/**
 * Run one multi-tenant service scenario: four pinned jobs share the
 * worker pool — two finite trees that must complete with exact task
 * counts, a cancel victim, and a job doomed by an unmeetable deadline
 * — plus a burst of small jobs thrown at the bounded admission queue
 * mid-flight. The job-level fault sites (svc.job.fail retried with
 * backoff, svc.cancel.race, svc.admit.full) and straggler pauses from
 * the scenario are armed throughout, and per-job conservation is
 * checked through the VerifyingScheduler's job ledger.
 */
bool
runServiceScenario(const Scenario &s, const Options &options,
                   Tally &tally)
{
    auto fail = [&](const std::string &why) {
        std::cerr << "FAIL " << describe(s) << "\n  " << why << "\n";
        return false;
    };

    ScopedFaultInjection faults(s.seed);
    if (!s.faultSpec.empty()) {
        std::string error;
        hdcps_check(faults->parseSpec(s.faultSpec, &error),
                    "soak generated a bad fault spec: %s",
                    error.c_str());
    }

    ScopedStragglerInjection stragglers(options.threads, s.seed);
    if (!s.stragglerSpec.empty()) {
        std::string error;
        hdcps_check(stragglers.injector().parseSpec(s.stragglerSpec,
                                                    &error),
                    "soak generated a bad straggler spec: %s",
                    error.c_str());
    }

    auto inner = makeScheduler(s, options);
    VerifyingScheduler verified(*inner);
    MetricsRegistry::Config metricsConfig;
    metricsConfig.checkSingleWriter = true;
    metricsConfig.abortOnWriterViolation =
        options.abortOnWriterViolation;
    MetricsRegistry metrics(options.threads, metricsConfig);

    Rng rng(mix64(s.seed ^ 0x5ecau));
    uint32_t depthA = 4 + uint32_t(rng.below(3));
    uint32_t depthB = 4 + uint32_t(rng.below(3));
    uint64_t deadlineMs = 15 + rng.below(20);

    std::atomic<uint64_t> processedA{0}, processedB{0};
    std::atomic<uint64_t> processedCancel{0}, processedDoomed{0};
    std::vector<std::unique_ptr<std::atomic<uint64_t>>> burstProcessed;

    // Generous retry budget: svc.job.fail fires every >=64th task, so
    // no single task plausibly exhausts 8 attempts; the injected
    // throws exercise backoff without changing any job's outcome.
    RetryPolicy retry;
    retry.maxAttempts = 8;
    retry.backoffBaseUs = 20;
    retry.backoffMaxUs = 200;

    JobId cancelId = 0, doomedId = 0;
    ServiceStats stats;
    {
        ServiceOptions serviceOptions;
        serviceOptions.numThreads = options.threads;
        serviceOptions.admissionCapacity = 8;
        serviceOptions.seed = s.seed;
        serviceOptions.metrics = &metrics;
        ExecutorService svc(verified, serviceOptions);

        auto submit = [&](std::string name, ProcessFn fn,
                          uint32_t depth, uint64_t jobDeadlineMs) {
            JobSpec spec;
            spec.name = std::move(name);
            spec.process = std::move(fn);
            spec.initial = {Task{0, 0, depth}};
            spec.deadlineMs = jobDeadlineMs;
            spec.retry = retry;
            return svc.submit(std::move(spec));
        };

        JobHandle jobA = submit("tree-a", treeJob(processedA, 3),
                                depthA, 0);
        JobHandle jobB = submit("tree-b", treeJob(processedB, 3),
                                depthB, 0);
        JobHandle victim = submit("cancel-victim",
                                  replenishJob(processedCancel, 200),
                                  0, 0);
        JobHandle doomed = submit("doomed",
                                  replenishJob(processedDoomed, 1500),
                                  0, deadlineMs);
        cancelId = victim.id();
        doomedId = doomed.id();
        for (const JobHandle *h : {&jobA, &jobB, &victim, &doomed}) {
            if (h->state() == JobState::Rejected) {
                return fail("pinned job '" + h->name() +
                            "' rejected: " + h->error());
            }
        }

        // Admission burst while the pinned jobs are in flight: each is
        // either admitted (and must then complete exactly) or rejected
        // with a reason — genuine overflow and the svc.admit.full
        // drill both land here, never on the pinned jobs.
        std::vector<JobHandle> burst;
        for (size_t i = 0; i < 8; ++i) {
            burstProcessed.push_back(
                std::make_unique<std::atomic<uint64_t>>(0));
            burst.push_back(submit("burst-" + std::to_string(i),
                                   treeJob(*burstProcessed.back(), 2),
                                   2, 0));
        }

        // Cancel the victim once it demonstrably ran (its first task
        // processed), so the drill covers the Running->Draining path,
        // not just cancel-while-queued.
        uint64_t spinStart = nowNs();
        while (processedCancel.load(std::memory_order_relaxed) == 0) {
            if ((nowNs() - spinStart) / 1000000 > 10000)
                return fail("cancel victim made no progress in 10s");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (!victim.cancel()) {
            return fail("cancel lost to an unexpected verdict: state=" +
                        std::string(jobStateName(victim.state())) +
                        " error=" + victim.error());
        }

        if (JobState got = jobA.wait(); got != JobState::Completed) {
            return fail("tree-a ended " +
                        std::string(jobStateName(got)) + ": " +
                        jobA.error());
        }
        if (JobState got = jobB.wait(); got != JobState::Completed) {
            return fail("tree-b ended " +
                        std::string(jobStateName(got)) + ": " +
                        jobB.error());
        }
        if (processedA.load() != treeSize(depthA, 3) ||
            processedB.load() != treeSize(depthB, 3)) {
            return fail("completed tree job processed-count mismatch");
        }
        if (JobState got = victim.wait(); got != JobState::Cancelled)
            return fail("cancel victim ended " +
                        std::string(jobStateName(got)));
        if (JobState got = doomed.wait(); got != JobState::Failed)
            return fail("doomed job ended " +
                        std::string(jobStateName(got)));
        if (doomed.error().find("deadline") == std::string::npos) {
            return fail("doomed job failed without the deadline "
                        "error: " + doomed.error());
        }

        uint64_t burstCompleted = 0;
        for (size_t i = 0; i < burst.size(); ++i) {
            JobState got = burst[i].wait();
            if (got == JobState::Rejected) {
                if (burst[i].error().empty())
                    return fail("rejected burst job carries no reason");
                ++tally.jobsRejected;
                continue;
            }
            if (got != JobState::Completed) {
                return fail("burst job ended " +
                            std::string(jobStateName(got)) + ": " +
                            burst[i].error());
            }
            if (burstProcessed[i]->load() != treeSize(2, 2))
                return fail("burst job processed-count mismatch");
            ++burstCompleted;
        }

        stats = svc.stats();
        if (stats.cancelled != 1 || stats.deadlineExpired != 1) {
            return fail("stats miscount: cancelled=" +
                        std::to_string(stats.cancelled) +
                        " deadlineExpired=" +
                        std::to_string(stats.deadlineExpired));
        }
        tally.jobsCompleted += 2 + burstCompleted;
    }
    tally.pausesInjected += stragglers.injector().pausesInjected();
    tally.taskRetries += stats.taskRetries;

    // Conservation: the cancelled and deadline-failed jobs must have
    // drained exactly, and with every job terminal the scheduler and
    // the whole ledger must be empty.
    std::string why;
    if (!verified.checkJobDrained(cancelId, &why))
        return fail("cancelled job not drained: " + why);
    if (!verified.checkJobDrained(doomedId, &why))
        return fail("deadline-failed job not drained: " + why);
    if (!verified.checkComplete(false, &why))
        return fail("invariant violation: " + why);
    if (metrics.writerViolations() > 0) {
        return fail("metrics single-writer violation (" +
                    std::to_string(metrics.writerViolations()) +
                    " overlapping writes)");
    }
    return true;
}

/**
 * Run one supervised-service scenario: the worker supervisor is armed
 * and the scenario's fault spec kills and/or wedges workers mid-run
 * (plus, sometimes, poison tasks dead-lettered per job). Contract:
 * every injected worker loss is healed by a replacement worker, a
 * post-heal job still completes on the restored pool, poison fires
 * match the dead-letter count exactly, and the verifier's ledger stays
 * exact — a quarantined worker's tasks are never lost (any loss fails
 * the run, which fails the soak with a nonzero exit).
 */
bool
runSupervisorScenario(const Scenario &s, const Options &options,
                      Tally &tally)
{
    auto fail = [&](const std::string &why) {
        std::cerr << "FAIL " << describe(s) << "\n  " << why << "\n";
        return false;
    };

    ScopedFaultInjection faults(s.seed);
    if (!s.faultSpec.empty()) {
        std::string error;
        hdcps_check(faults->parseSpec(s.faultSpec, &error),
                    "soak generated a bad fault spec: %s",
                    error.c_str());
    }

    auto inner = makeScheduler(s, options);
    VerifyingScheduler verified(*inner);
    MetricsRegistry::Config metricsConfig;
    metricsConfig.checkSingleWriter = true;
    metricsConfig.abortOnWriterViolation =
        options.abortOnWriterViolation;
    MetricsRegistry metrics(options.threads, metricsConfig);

    Rng rng(mix64(s.seed ^ 0x5a5au));
    uint32_t depth = 5 + uint32_t(rng.below(2));

    std::atomic<uint64_t> processedA{0}, processedHeal{0};

    // Poison tasks (when armed) exhaust this budget and dead-letter
    // instead of failing the job; non-poison tasks never need it.
    RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoffBaseUs = 20;
    retry.backoffMaxUs = 200;
    retry.deadLetterOnExhaustion = true;

    ServiceStats stats;
    {
        ServiceOptions serviceOptions;
        serviceOptions.numThreads = options.threads;
        serviceOptions.admissionCapacity = 8;
        serviceOptions.seed = s.seed;
        serviceOptions.metrics = &metrics;
        serviceOptions.supervisor.enabled = true;
        serviceOptions.supervisor.probeIntervalMs = 1;
        serviceOptions.supervisor.suspectAfterMs = 40;
        serviceOptions.supervisor.wedgedAfterMs = 150;
        // Generous budget: at most two losses are injected, and a
        // loaded host (sanitizer CI) may add false wedges — those are
        // healed too, never escalated.
        serviceOptions.supervisor.maxRestarts = 16;
        ExecutorService svc(verified, serviceOptions);

        auto submit = [&](std::string name,
                          std::atomic<uint64_t> &processed) {
            JobSpec spec;
            spec.name = std::move(name);
            spec.process = treeJob(processed, 3);
            spec.initial = {Task{0, 0, depth}};
            spec.retry = retry;
            return svc.submit(std::move(spec));
        };

        JobHandle jobA = submit("supervised-tree", processedA);
        if (JobState got = jobA.wait(); got != JobState::Completed) {
            return fail("supervised job ended " +
                        std::string(jobStateName(got)) + ": " +
                        jobA.error());
        }

        // Every injected loss must be healed: a crash-death directly,
        // a wedge via supersession into a clean exit. Fire counts are
        // stable here (once-mode drills, and the drilled loop tops
        // have all run by job completion).
        uint64_t wantRestarts =
            faults->fireCount(faultsite::SvcWorkerDie) +
            faults->fireCount(faultsite::SvcWorkerWedge);
        uint64_t spinStart = nowNs();
        while (svc.stats().workerRestarts < wantRestarts) {
            if ((nowNs() - spinStart) / 1000000 > 15000) {
                return fail(
                    "supervisor healed " +
                    std::to_string(svc.stats().workerRestarts) + "/" +
                    std::to_string(wantRestarts) +
                    " injected worker losses in 15s");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        // Capacity is restored: a fresh job completes on the pool of
        // replacement workers.
        JobHandle heal = submit("post-heal-tree", processedHeal);
        if (JobState got = heal.wait(); got != JobState::Completed) {
            return fail("post-heal job ended " +
                        std::string(jobStateName(got)) + ": " +
                        heal.error());
        }

        stats = svc.stats();
        if (stats.escalated)
            return fail("service escalated despite a 16-restart "
                        "budget");
    }

    // Each poison fire marks one distinct first-attempt task, and each
    // marked task must end in a dead-letter queue — exactly once.
    uint64_t poisonFires = faults->fireCount(faultsite::SvcTaskPoison);
    if (stats.poisonedTasks != poisonFires) {
        return fail("poison accounting mismatch: " +
                    std::to_string(poisonFires) + " drill fires vs " +
                    std::to_string(stats.poisonedTasks) +
                    " dead-lettered tasks");
    }

    tally.jobsCompleted += 2;
    tally.taskRetries += stats.taskRetries;
    tally.workerRestarts += stats.workerRestarts;
    tally.poisonedTasks += stats.poisonedTasks;

    // Conservation across quarantine + replacement: with every job
    // terminal, the scheduler and the whole ledger must be empty —
    // dead-lettered tasks count as accounted, not leaked.
    std::string why;
    if (!verified.checkComplete(false, &why))
        return fail("task lost across quarantine/replacement: " + why);
    if (metrics.writerViolations() > 0) {
        return fail("metrics single-writer violation (" +
                    std::to_string(metrics.writerViolations()) +
                    " overlapping writes)");
    }
    return true;
}

/**
 * Run one weighted-fair service scenario: a heavy tenant (weight 4-8)
 * floods the service with tree jobs while a weight-1 tenant submits a
 * few of its own, all under a tight global in-flight budget so
 * dispatch — and therefore the SFQ policy — is the bottleneck.
 * Contract: the light tenant makes progress before the flood drains
 * (the starvation bug this slice regression-tests), a rate-limited
 * tenant's second submit rejects with the typed reason, a
 * deprioritized flood job's re-tagged incarnations land in the
 * verifier's per-job pop ledger exactly (pops = tasks + re-tags), and
 * the whole ledger balances once every job is terminal.
 */
bool
runFairnessScenario(const Scenario &s, const Options &options,
                    Tally &tally)
{
    auto fail = [&](const std::string &why) {
        std::cerr << "FAIL " << describe(s) << "\n  " << why << "\n";
        return false;
    };

    ScopedFaultInjection faults(s.seed);
    if (!s.faultSpec.empty()) {
        std::string error;
        hdcps_check(faults->parseSpec(s.faultSpec, &error),
                    "soak generated a bad fault spec: %s",
                    error.c_str());
    }

    ScopedStragglerInjection stragglers(options.threads, s.seed);
    if (!s.stragglerSpec.empty()) {
        std::string error;
        hdcps_check(stragglers.injector().parseSpec(s.stragglerSpec,
                                                    &error),
                    "soak generated a bad straggler spec: %s",
                    error.c_str());
    }

    auto inner = makeScheduler(s, options);
    VerifyingScheduler verified(*inner);
    MetricsRegistry::Config metricsConfig;
    metricsConfig.checkSingleWriter = true;
    metricsConfig.abortOnWriterViolation =
        options.abortOnWriterViolation;
    MetricsRegistry metrics(options.threads, metricsConfig);

    Rng rng(mix64(s.seed ^ 0xfa13u));
    const double heavyWeight = double(4 + rng.below(5)); // 4..8
    constexpr uint32_t kDepth = 3, kFanout = 2;
    const uint64_t perJob = treeSize(kDepth, kFanout);
    constexpr size_t kHeavyJobs = 12, kLightJobs = 3;
    const uint64_t totalHeavy = perJob * kHeavyJobs;

    std::atomic<uint64_t> heavyProcessed{0}, lightProcessed{0};
    // Heavy completions observed when the light tenant's first task
    // ran: equal to totalHeavy would mean the flood fully drained
    // before the weight-1 tenant was served at all — starvation.
    std::atomic<uint64_t> heavyAtFirstLight{totalHeavy};

    ServiceStats stats;
    std::vector<TenantStats> tenantShares;
    uint64_t victimPops = 0, lightPopsTotal = 0;
    std::vector<JobId> jobIds;
    JobId victimId = 0;
    {
        ServiceOptions serviceOptions;
        serviceOptions.numThreads = options.threads;
        serviceOptions.admissionCapacity = 64;
        serviceOptions.seed = s.seed;
        serviceOptions.metrics = &metrics;
        // Dispatch — not worker capacity — must be the bottleneck, or
        // every job is in flight at once and weights never matter.
        serviceOptions.maxInFlightTasks = options.threads;
        serviceOptions.tenants[1].weight = heavyWeight;
        serviceOptions.tenants[2].weight = 1.0;
        serviceOptions.tenants[3].admitRatePerSec = 0.001;
        serviceOptions.tenants[3].admitBurst = 1.0;
        ExecutorService svc(verified, serviceOptions);

        auto submit = [&](std::string name, TenantId tenant,
                          ProcessFn fn) {
            JobSpec spec;
            spec.name = std::move(name);
            spec.tenant = tenant;
            spec.process = std::move(fn);
            spec.initial = {Task{0, 0, kDepth}};
            return svc.submit(std::move(spec));
        };

        // Interleave: the flood is submitted around the light jobs so
        // the light tenant's standing depends on the dispatch policy,
        // not submission order.
        std::vector<JobHandle> heavy, light;
        for (size_t i = 0; i < kHeavyJobs; ++i) {
            heavy.push_back(submit(
                "flood-" + std::to_string(i), 1,
                treeJob(heavyProcessed, kFanout)));
            if (i % 4 == 3 && light.size() < kLightJobs) {
                size_t li = light.size();
                light.push_back(submit(
                    "light-" + std::to_string(li), 2,
                    [&](unsigned tid, const Task &task,
                        std::vector<Task> &children) {
                        uint64_t expect = totalHeavy;
                        heavyAtFirstLight.compare_exchange_strong(
                            expect,
                            heavyProcessed.load(
                                std::memory_order_relaxed));
                        treeJob(lightProcessed, kFanout)(tid, task,
                                                         children);
                    }));
            }
        }
        for (const JobHandle *h : {&heavy.front(), &light.front()}) {
            if (h->state() == JobState::Rejected) {
                return fail("pinned job '" + h->name() +
                            "' rejected: " + h->error());
            }
        }

        // Rate-limit drill: burst 1 token, refill ~never — the first
        // submit admits, the second must reject with the typed
        // reason (rate violations reject even under blockWhenFull).
        std::atomic<uint64_t> ratedProcessed{0};
        JobHandle ratedOk =
            submit("rated-ok", 3, treeJob(ratedProcessed, kFanout));
        JobHandle ratedNo =
            submit("rated-no", 3, treeJob(ratedProcessed, kFanout));
        if (ratedOk.state() == JobState::Rejected) {
            return fail("rate-limited tenant's first submit rejected: " +
                        ratedOk.error());
        }
        if (ratedNo.state() != JobState::Rejected ||
            ratedNo.rejectReason() != RejectReason::TenantRateLimited ||
            ratedNo.error().empty()) {
            return fail(
                "rate-limit drill: want a TenantRateLimited "
                "rejection with a reason, got state=" +
                std::string(jobStateName(ratedNo.state())) +
                " reason=" +
                std::string(rejectReasonName(ratedNo.rejectReason())));
        }
        ++tally.quotaRejections;

        // Deprioritize drill on a late flood job: demote must either
        // land (non-terminal: level 1) or lose cleanly to completion.
        JobHandle &victim = heavy.back();
        victimId = victim.id();
        if (victim.deprioritize()) {
            if (victim.demoteLevel() != 1) {
                return fail("deprioritize landed but demote level is " +
                            std::to_string(victim.demoteLevel()));
            }
        } else if (victim.state() != JobState::Completed) {
            return fail("deprioritize refused on a live job: state=" +
                        std::string(jobStateName(victim.state())));
        }

        for (JobHandle &h : heavy) {
            if (JobState got = h.wait(); got != JobState::Completed) {
                return fail("flood job '" + h.name() + "' ended " +
                            std::string(jobStateName(got)) + ": " +
                            h.error());
            }
            jobIds.push_back(h.id());
        }
        for (JobHandle &h : light) {
            if (JobState got = h.wait(); got != JobState::Completed) {
                return fail("light job '" + h.name() + "' ended " +
                            std::string(jobStateName(got)) + ": " +
                            h.error());
            }
            jobIds.push_back(h.id());
            lightPopsTotal += verified.popsForJob(h.id());
        }
        if (JobState got = ratedOk.wait(); got != JobState::Completed) {
            return fail("rate-limited tenant's admitted job ended " +
                        std::string(jobStateName(got)) + ": " +
                        ratedOk.error());
        }
        jobIds.push_back(ratedOk.id());

        if (lightProcessed.load() != perJob * kLightJobs)
            return fail("light tenant processed-count mismatch");
        if (heavyAtFirstLight.load() >= totalHeavy) {
            return fail("weight-1 tenant starved: the flood drained "
                        "all " + std::to_string(totalHeavy) +
                        " tasks before its first task ran");
        }

        stats = svc.stats();
        tenantShares = svc.tenantStats();
        victimPops = verified.popsForJob(victimId);
        tally.jobsCompleted += kHeavyJobs + kLightJobs + 1;
    }
    tally.pausesInjected += stragglers.injector().pausesInjected();
    tally.demotedTasks += stats.demotedTasks;

    // Typed-rejection accounting must reach the per-tenant snapshot.
    for (const TenantStats &ts : tenantShares) {
        if (ts.tenant == 3 &&
            (ts.admitted != 1 || ts.rejected != 1)) {
            return fail("rate-limited tenant accounting: admitted=" +
                        std::to_string(ts.admitted) + " rejected=" +
                        std::to_string(ts.rejected));
        }
    }

    // Exact conservation through preemption: every re-tagged
    // incarnation is one extra push+pop of the victim job, so its
    // ledger must read tasks + re-tags; only the victim is ever
    // demoted here, and light jobs (never demoted, no retry sites
    // armed) must read exactly their tree size.
    if (victimPops != perJob + stats.demotedTasks) {
        return fail("victim pop ledger: " + std::to_string(victimPops) +
                    " pops vs " + std::to_string(perJob) + " tasks + " +
                    std::to_string(stats.demotedTasks) + " re-tags");
    }
    if (lightPopsTotal != perJob * kLightJobs) {
        return fail("light tenants' pop ledger: " +
                    std::to_string(lightPopsTotal) + " pops vs " +
                    std::to_string(perJob * kLightJobs) + " tasks");
    }

    std::string why;
    if (!verified.checkComplete(false, &why))
        return fail("invariant violation: " + why);
    if (metrics.writerViolations() > 0) {
        return fail("metrics single-writer violation (" +
                    std::to_string(metrics.writerViolations()) +
                    " overlapping writes)");
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseArgs(argc, argv);

    // Generate each input once; scenarios share the (immutable) graphs.
    std::map<std::string, Graph> graphs;
    for (const char *input : kInputs)
        graphs.emplace(input, makePaperInput(input, 1, options.seed));

    Tally tally;
    uint64_t failures = 0;
    uint64_t startNs = nowNs();
    uint64_t i = 0;
    for (; i < options.runs; ++i) {
        if (options.budgetMs > 0 &&
            (nowNs() - startNs) / 1000000 >= options.budgetMs) {
            std::cout << "budget reached after " << i << "/"
                      << options.runs << " runs\n";
            break;
        }
        uint64_t runSeed = mix64(options.seed + i);
        Rng rng(runSeed);
        Scenario s = drawScenario(rng, runSeed, options.threads,
                                  options.designs, i,
                                  options.serviceSlice,
                                  options.supervisorSlice,
                                  options.fairnessSlice);
        if (options.verbose)
            std::cout << "run " << i << ": " << describe(s) << "\n";
        ++tally.ran;
        if (s.serviceRun)
            ++tally.serviceRuns;
        if (s.supervisorRun)
            ++tally.supervisorRuns;
        if (s.fairnessRun)
            ++tally.fairnessRuns;
        bool ok = s.supervisorRun ? runSupervisorScenario(s, options,
                                                          tally)
                  : s.fairnessRun ? runFairnessScenario(s, options,
                                                        tally)
                  : s.serviceRun
                      ? runServiceScenario(s, options, tally)
                      : runScenario(s, options, graphs, tally);
        if (!ok) {
            ++failures;
            ++tally.failed;
        }
    }

    std::cout << "soak: " << tally.ran << " runs, " << failures
              << " failures, " << tally.expectedFailures
              << " graceful injected failures, " << tally.reclaimedTasks
              << " tasks reclaimed in " << tally.reclaimDecisions
              << " monitor decisions, " << tally.pausesInjected
              << " straggler pauses, " << tally.lateHelperRuns
              << " late-helper runs, " << tally.serviceRuns
              << " service runs (" << tally.jobsCompleted
              << " jobs completed, " << tally.jobsRejected
              << " admission rejections, " << tally.taskRetries
              << " task retries), " << tally.supervisorRuns
              << " supervisor runs (" << tally.workerRestarts
              << " worker restarts, " << tally.poisonedTasks
              << " tasks dead-lettered), " << tally.fairnessRuns
              << " fairness runs (" << tally.demotedTasks
              << " tasks demoted, " << tally.quotaRejections
              << " quota rejections)\n";
    return failures == 0 ? 0 : 1;
}
