/**
 * @file
 * hdcps — command-line driver for the library.
 *
 * Runs any workload over any scheduler design, on either the simulated
 * Table-I multicore or the host machine's threads, against generated
 * or loaded inputs, and reports completion, breakdown, drift, and
 * verification. This is the "try it on your graph" entry point:
 *
 *   hdcps --kernel sssp --input usa --design hdcps-hw
 *   hdcps --kernel bfs --input web-Google.txt --mode threads --threads 8
 *   hdcps --kernel pagerank --input lj --design swarm --cores 16 --csv
 *   hdcps --list
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/workload.h"
#include "core/designs.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/executor_service.h"
#include "simsched/runner.h"
#include "stats/table.h"
#include "support/fault.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/straggler.h"
#include "support/timer.h"

namespace {

using namespace hdcps;

struct Options
{
    std::string kernel = "sssp";
    std::string input = "usa";
    std::string design = "hdcps-sw";
    std::string mode = "sim";
    unsigned cores = 64;
    unsigned threads = 4;
    unsigned scale = 1;
    uint64_t seed = 1;
    NodeId source = 0;
    bool csv = false;
    bool list = false;
    bool printConfig = false;
    bool stats = false;
    bool modeExplicit = false;
    std::string metricsOut;      ///< empty = no metrics export
    unsigned metricsInterval = 0; ///< 0 = per-mode default
    std::string faultSpec;       ///< empty = no fault injection
    uint64_t watchdogMs = 0;     ///< 0 = watchdog off
    uint64_t reclaimAfterMs = 0; ///< 0 = no stall supervision
    std::string stragglerSpec;   ///< empty = no straggler injection
    uint64_t jobStream = 0;      ///< 0 = single run; N = replay N jobs
    uint64_t tenants = 0;        ///< 0 = single implicit tenant
    std::vector<double> tenantWeights; ///< per-tenant fair-share weights
    std::string arrivals = "poisson"; ///< poisson|burst arrival process
    uint64_t rate = 50;          ///< mean job arrivals per second
    uint64_t burst = 8;          ///< jobs per burst (burst arrivals)
    uint64_t admitCap = 16;      ///< admission queue capacity
    bool admitBlock = false;     ///< block instead of reject when full
    uint64_t jobDeadlineMs = 0;  ///< per-job deadline (0 = none)
    uint64_t jobRetries = 1;     ///< task attempts per job (1 = none)
    bool faultList = false;      ///< print the fault-site catalog
    bool supervise = false;      ///< worker supervision for --job-stream
    uint64_t maxRestarts = 8;    ///< restart budget before escalation
    bool deadLetter = false;     ///< quarantine poison tasks per job
    Topology topology;           ///< hdcps-* worker placement (threads)
};

void
usage()
{
    std::cout <<
        "usage: hdcps_cli [options]\n"
        "  --kernel K    sssp|bfs|astar|mst|color|pagerank (default sssp)\n"
        "  --input I     generated input (cage|usa|wg|lj) or a graph file\n"
        "                (.gr DIMACS, .mtx MatrixMarket, .bin, else edge list)\n"
        "  --design D    scheduler design (see --list); default hdcps-sw\n"
        "  --mode M      sim (cycle-level 64-core machine) | threads (host)\n"
        "  --cores N     simulated cores (default 64)\n"
        "  --threads N   host threads in --mode threads (default 4)\n"
        "  --scale N     generated-input scale factor (default 1)\n"
        "  --seed S      generator/scheduler seed (default 1)\n"
        "  --source N    source node for traversal kernels (default 0)\n"
        "  --csv         machine-readable one-line output\n"
        "  --metrics-out P    export scheduler observability series\n"
        "                (drift, TDF, queue occupancy, breakdowns) to P\n"
        "                (.csv -> CSV, else JSON); implies --mode threads\n"
        "  --metrics-interval N   pops between metric samples\n"
        "                (default 500)\n"
        "  --fault-spec S     arm fault-injection sites for the run:\n"
        "                site:mode[:arg][,...] with modes nth|prob|once|\n"
        "                delay (site names under --list); seeded by --seed\n"
        "  --watchdog-ms N    fail a threaded run when no task is popped\n"
        "                for N ms while work is pending (default off)\n"
        "  --reclaim-after-ms N   supervise the run's workers: once a\n"
        "                worker's loop-top heartbeat is stale by N ms, a\n"
        "                monitor thread quarantines it and moves its\n"
        "                queued tasks to its peers (threads mode;\n"
        "                default off)\n"
        "  --straggler-spec S     pause worker threads on purpose:\n"
        "                worker:atCheck:pauseMs[,...] or rand:P:MAXMS\n"
        "                (threads mode; seeded by --seed)\n"
        "  --topology T       worker placement for the hdcps-* designs\n"
        "                in --mode threads: flat (default, single node),\n"
        "                auto (detect NUMA via sysfs, pin workers, NUMA-\n"
        "                place buffers), or NxM (synthetic N nodes x M\n"
        "                cores: hierarchical routing without affinity,\n"
        "                deterministic on any host)\n"
        "  --job-stream N     trace-replay N jobs of the chosen kernel\n"
        "                (random sources) through the multi-tenant\n"
        "                ExecutorService and report per-job p50/p99\n"
        "                latency (threads mode)\n"
        "  --tenants N        spread --job-stream jobs round-robin\n"
        "                across N tenants under weighted-fair dispatch\n"
        "                and report each tenant's completed share\n"
        "  --weights W1,W2,.. fair-share weight per tenant (defaults\n"
        "                to 1; shorter lists pad with 1); a weight-2\n"
        "                tenant gets twice the dispatch share of a\n"
        "                weight-1 tenant while both are backlogged\n"
        "  --arrivals A       job arrival process: poisson|burst\n"
        "                (default poisson)\n"
        "  --rate R      mean job arrivals per second (default 50)\n"
        "  --burst B     jobs per burst for --arrivals burst "
        "(default 8)\n"
        "  --admit-cap N      admission queue capacity (default 16)\n"
        "  --admit-block      block submission when the admission\n"
        "                queue is full instead of rejecting\n"
        "  --job-deadline-ms N    per-job deadline (default none)\n"
        "  --job-retries N    task attempts before a job fails\n"
        "                (default 1 = no retries)\n"
        "  --supervise        enable worker supervision for --job-stream\n"
        "                (health FSM, quarantine + replacement workers)\n"
        "  --max-restarts N   worker restart budget before the service\n"
        "                escalates (default 8; implies --supervise)\n"
        "  --dead-letter      divert tasks that exhaust --job-retries to\n"
        "                the per-job dead-letter queue instead of\n"
        "                failing the job\n"
        "  --stats       print the input graph's statistics and exit\n"
        "  --config      print the simulated machine's Table-I parameters\n"
        "  --list        list kernels, designs and fault sites, then exit\n"
        "  --fault-list  list fault-injection sites with their\n"
        "                descriptions, then exit\n";
}

/**
 * Strict decimal parse for numeric option values. strtoul-style
 * laissez-faire parsing silently turned "--threads -1" into 4 billion
 * threads and "--cores 8x" into 8; here anything but a plain
 * non-negative decimal number within [0, max] is a fatal usage error.
 */
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

Options
parseArgs(int argc, char **argv)
{
    Options options;
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            hdcps_fatal("missing value for %s", argv[i]);
        return argv[++i];
    };
    constexpr uint64_t maxUnsigned =
        std::numeric_limits<unsigned>::max();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--kernel") {
            options.kernel = value(i);
        } else if (arg == "--input") {
            options.input = value(i);
        } else if (arg == "--design") {
            options.design = value(i);
        } else if (arg == "--mode") {
            options.mode = value(i);
            options.modeExplicit = true;
        } else if (arg == "--metrics-out") {
            options.metricsOut = value(i);
        } else if (arg == "--metrics-interval") {
            options.metricsInterval = unsigned(
                parseUint("--metrics-interval", value(i), maxUnsigned));
        } else if (arg == "--cores") {
            options.cores =
                unsigned(parseUint("--cores", value(i), maxUnsigned));
        } else if (arg == "--threads") {
            options.threads =
                unsigned(parseUint("--threads", value(i), maxUnsigned));
        } else if (arg == "--scale") {
            options.scale =
                unsigned(parseUint("--scale", value(i), maxUnsigned));
        } else if (arg == "--seed") {
            options.seed =
                parseUint("--seed", value(i),
                          std::numeric_limits<uint64_t>::max());
        } else if (arg == "--source") {
            options.source = NodeId(
                parseUint("--source", value(i),
                          std::numeric_limits<NodeId>::max()));
        } else if (arg == "--fault-spec") {
            options.faultSpec = value(i);
        } else if (arg == "--watchdog-ms") {
            // Capped to a day: anything larger is a typo, and the cap
            // keeps window * 1ms arithmetic trivially overflow-free.
            options.watchdogMs =
                parseUint("--watchdog-ms", value(i), 86400000ULL);
        } else if (arg == "--reclaim-after-ms") {
            // Same day-cap rationale as --watchdog-ms.
            options.reclaimAfterMs =
                parseUint("--reclaim-after-ms", value(i), 86400000ULL);
        } else if (arg == "--straggler-spec") {
            options.stragglerSpec = value(i);
        } else if (arg == "--topology") {
            std::string error;
            if (!Topology::parseSpec(value(i), &options.topology,
                                     &error))
                hdcps_fatal("--topology: %s", error.c_str());
        } else if (arg == "--job-stream") {
            options.jobStream =
                parseUint("--job-stream", value(i), 1000000);
        } else if (arg == "--tenants") {
            options.tenants = parseUint("--tenants", value(i), 64);
            hdcps_check(options.tenants >= 1,
                        "--tenants must be >= 1");
        } else if (arg == "--weights") {
            options.tenantWeights.clear();
            std::stringstream ss(value(i));
            std::string item;
            while (std::getline(ss, item, ',')) {
                char *end = nullptr;
                double w = std::strtod(item.c_str(), &end);
                if (end == item.c_str() || *end != '\0' || !(w > 0))
                    hdcps_fatal("--weights: want positive numbers "
                                "separated by commas, got '%s'",
                                item.c_str());
                options.tenantWeights.push_back(w);
            }
            if (options.tenantWeights.empty())
                hdcps_fatal("--weights: empty list");
        } else if (arg == "--arrivals") {
            options.arrivals = value(i);
            if (options.arrivals != "poisson" &&
                options.arrivals != "burst") {
                hdcps_fatal("--arrivals: want poisson|burst, got '%s'",
                            options.arrivals.c_str());
            }
        } else if (arg == "--rate") {
            options.rate = parseUint("--rate", value(i), 1000000);
            hdcps_check(options.rate >= 1, "--rate must be >= 1");
        } else if (arg == "--burst") {
            options.burst = parseUint("--burst", value(i), 100000);
            hdcps_check(options.burst >= 1, "--burst must be >= 1");
        } else if (arg == "--admit-cap") {
            options.admitCap =
                parseUint("--admit-cap", value(i), 1000000);
            hdcps_check(options.admitCap >= 1,
                        "--admit-cap must be >= 1");
        } else if (arg == "--admit-block") {
            options.admitBlock = true;
        } else if (arg == "--job-deadline-ms") {
            options.jobDeadlineMs =
                parseUint("--job-deadline-ms", value(i), 86400000ULL);
        } else if (arg == "--job-retries") {
            options.jobRetries =
                parseUint("--job-retries", value(i), 100);
            hdcps_check(options.jobRetries >= 1,
                        "--job-retries must be >= 1");
        } else if (arg == "--supervise") {
            options.supervise = true;
        } else if (arg == "--max-restarts") {
            options.maxRestarts =
                parseUint("--max-restarts", value(i), 100000);
            options.supervise = true;
        } else if (arg == "--dead-letter") {
            options.deadLetter = true;
        } else if (arg == "--stats") {
            options.stats = true;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--config") {
            options.printConfig = true;
        } else if (arg == "--list") {
            options.list = true;
        } else if (arg == "--fault-list") {
            options.faultList = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            hdcps_fatal("unknown option '%s'", arg.c_str());
        }
    }
    return options;
}

Graph
loadInput(const Options &options)
{
    for (const char *generated : {"cage", "usa", "wg", "lj"}) {
        if (options.input == generated)
            return makePaperInput(options.input, options.scale,
                                  options.seed);
    }
    // The loaders throw instead of exiting (they are library code);
    // the CLI is the boundary that turns a bad input file back into
    // the classic message-plus-nonzero-exit behavior.
    try {
        return loadAnyFile(options.input);
    } catch (const GraphIoError &e) {
        hdcps_fatal("%s", e.what());
    }
}

std::unique_ptr<Scheduler>
makeThreaded(const Options &options, unsigned sampleInterval)
{
    const DesignEntry *design = findThreadedDesign(options.design);
    if (!design) {
        hdcps_fatal("design '%s' is not available in --mode threads "
                    "(threaded designs: %s; hardware designs need "
                    "--mode sim)",
                    options.design.c_str(), threadedDesignNames().c_str());
    }
    return design->make(options.threads,
                        {.seed = options.seed,
                         .topology = options.topology,
                         .sampleInterval = sampleInterval});
}

int
runSim(const Options &options, Workload &workload)
{
    SimConfig config;
    config.numCores = options.cores;
    unsigned width = 1;
    for (unsigned w = 1; w * w <= options.cores; ++w) {
        if (options.cores % w == 0)
            width = w;
    }
    config.meshWidth = options.cores / width;
    if (options.printConfig)
        config.printTable(std::cout);

    SimResult r = simulate(options.design, workload, config,
                           options.seed);
    if (options.csv) {
        std::cout << options.kernel << "," << options.input << ","
                  << options.design << "," << options.cores << ","
                  << r.completionCycles << ","
                  << r.total.tasksProcessed << "," << r.avgDrift << ","
                  << (r.verified ? "ok" : "FAIL") << "\n";
    } else {
        Table table({"metric", "value"});
        table.row().cell("design").cell(options.design);
        table.row().cell("completion (cycles)").cell(
            r.completionCycles);
        table.row().cell("tasks processed").cell(
            r.total.tasksProcessed);
        table.row().cell("sequential tasks").cell(
            workload.sequentialTasks());
        table.row().cell("avg drift (Eq. 1)").cell(r.avgDrift, 2);
        table.row().cell("enqueue share").cell(
            r.total.fraction(Component::Enqueue) * 100.0, 1);
        table.row().cell("dequeue share").cell(
            r.total.fraction(Component::Dequeue) * 100.0, 1);
        table.row().cell("compute share").cell(
            r.total.fraction(Component::Compute) * 100.0, 1);
        table.row().cell("comm share").cell(
            r.total.fraction(Component::Comm) * 100.0, 1);
        table.row().cell("NoC messages").cell(r.noc.messages);
        table.row().cell("verified").cell(r.verified ? "yes" : "NO");
        table.printText(std::cout, options.kernel + " on " +
                                       options.input + " (simulated " +
                                       std::to_string(options.cores) +
                                       " cores)");
        if (!r.verified)
            std::cout << "verification error: " << r.verifyError
                      << "\n";
    }
    return r.verified ? 0 : 1;
}

int
runThreads(const Options &options, Workload &workload)
{
    // Metrics sampling defaults to a tighter interval than the TDF
    // default (2000) so short CLI runs still yield usable series.
    unsigned interval =
        options.metricsInterval > 0 ? options.metricsInterval : 500;
    unsigned sampleInterval = options.metricsOut.empty()
                                  ? HdCpsConfig{}.sampleInterval
                                  : interval;
    auto scheduler = makeThreaded(options, sampleInterval);

    std::unique_ptr<MetricsRegistry> metrics;
    RunOptions runOptions;
    runOptions.numThreads = options.threads;
    runOptions.watchdogMs = options.watchdogMs;
    runOptions.reclaimAfterMs = options.reclaimAfterMs;

    // Straggler injection lives for the run only; the RAII scope keeps
    // the injector installed exactly while workers may pause.
    std::unique_ptr<ScopedStragglerInjection> stragglers;
    if (!options.stragglerSpec.empty()) {
        stragglers = std::make_unique<ScopedStragglerInjection>(
            options.threads, options.seed);
        std::string error;
        if (!stragglers->injector().parseSpec(options.stragglerSpec,
                                              &error))
            hdcps_fatal("--straggler-spec: %s", error.c_str());
    }
    if (!options.metricsOut.empty()) {
        MetricsRegistry::Config config;
        config.sampleInterval = interval;
        metrics =
            std::make_unique<MetricsRegistry>(options.threads, config);
        runOptions.metrics = metrics.get();
        runOptions.driftSampleInterval = interval;
        // The export carries the per-phase series.
        runOptions.recordBreakdown = true;
    }

    RunResult r = run(*scheduler, workload.initialTasks(),
                      workloadProcessFn(workload), runOptions);
    if (!r.ok()) {
        std::cerr << "run failed: " << r.error << "\n";
        return 2;
    }
    std::string why;
    bool verified = workload.verify(&why);

    if (metrics) {
        if (!writeMetricsFile(options.metricsOut, metrics->snapshot()))
            hdcps_fatal("cannot write metrics to '%s'",
                        options.metricsOut.c_str());
        if (!options.csv)
            std::cout << "metrics written to " << options.metricsOut
                      << "\n";
    }
    if (options.csv) {
        std::cout << options.kernel << "," << options.input << ","
                  << options.design << "," << options.threads << ","
                  << r.wallNs << "," << r.total.tasksProcessed << ","
                  << r.avgDrift << "," << (verified ? "ok" : "FAIL")
                  << "\n";
    } else {
        Table table({"metric", "value"});
        table.row().cell("design").cell(std::string(scheduler->name()));
        table.row().cell("wall time (ms)").cell(double(r.wallNs) / 1e6,
                                                2);
        table.row().cell("tasks processed").cell(
            r.total.tasksProcessed);
        table.row().cell("sequential tasks").cell(
            workload.sequentialTasks());
        table.row().cell("avg drift (Eq. 1)").cell(r.avgDrift, 2);
        table.row().cell("verified").cell(verified ? "yes" : "NO");
        table.printText(std::cout, options.kernel + " on " +
                                       options.input + " (" +
                                       std::to_string(options.threads) +
                                       " host threads)");
        if (!verified)
            std::cout << "verification error: " << why << "\n";
    }
    return verified ? 0 : 1;
}

/**
 * Trace-replay job-stream driver: submits --job-stream jobs of the
 * chosen kernel (each from a random source node, sharing the immutable
 * input graph) to a long-lived ExecutorService under a Poisson or
 * bursty arrival process, then reports per-job p50/p99/max latency,
 * throughput, and the admission/retry/deadline tallies. Completed
 * jobs are verified against their sequential oracle.
 */
int
runJobStream(const Options &options, const Graph &graph)
{
    auto scheduler =
        makeThreaded(options, HdCpsConfig{}.sampleInterval);

    std::unique_ptr<ScopedStragglerInjection> stragglers;
    if (!options.stragglerSpec.empty()) {
        stragglers = std::make_unique<ScopedStragglerInjection>(
            options.threads, options.seed);
        std::string error;
        if (!stragglers->injector().parseSpec(options.stragglerSpec,
                                              &error))
            hdcps_fatal("--straggler-spec: %s", error.c_str());
    }

    std::unique_ptr<MetricsRegistry> metrics;
    if (!options.metricsOut.empty()) {
        MetricsRegistry::Config config;
        config.sampleInterval =
            options.metricsInterval > 0 ? options.metricsInterval : 500;
        metrics =
            std::make_unique<MetricsRegistry>(options.threads, config);
    }

    ServiceOptions serviceOptions;
    serviceOptions.numThreads = options.threads;
    serviceOptions.admissionCapacity = options.admitCap;
    serviceOptions.blockWhenFull = options.admitBlock;
    serviceOptions.seed = options.seed;
    serviceOptions.metrics = metrics.get();
    if (options.supervise) {
        serviceOptions.supervisor.enabled = true;
        serviceOptions.supervisor.maxRestarts =
            unsigned(options.maxRestarts);
    }
    // --tenants: pre-register tenants 1..N with their --weights (pad
    // short lists with weight 1) so weighted-fair dispatch applies
    // from the first job.
    for (uint64_t t = 0; t < options.tenants; ++t) {
        TenantQuota quota;
        if (t < options.tenantWeights.size())
            quota.weight = options.tenantWeights[t];
        serviceOptions.tenants[TenantId(t + 1)] = quota;
    }
    ExecutorService svc(*scheduler, serviceOptions);

    // Each job owns its workload (oracle state is per-source); the
    // entry outlives the job because the ProcessFn captures it.
    struct ReplayedJob
    {
        JobHandle handle;
        std::unique_ptr<Workload> workload;
    };
    std::vector<ReplayedJob> jobs;
    jobs.reserve(options.jobStream);

    Rng rng(mix64(options.seed ^ 0x6a6f62ULL)); // "job"
    uint64_t startNs = nowNs();
    for (uint64_t i = 0; i < options.jobStream; ++i) {
        NodeId source = NodeId(rng.below(graph.numNodes()));
        auto workload = makeWorkload(options.kernel, graph, source);
        JobSpec spec;
        spec.name = options.kernel + "#" + std::to_string(i);
        spec.process = workloadProcessFn(*workload);
        spec.initial = workload->initialTasks();
        spec.priority = rng.below(8);
        if (options.tenants > 0)
            spec.tenant = TenantId(1 + i % options.tenants);
        spec.deadlineMs = options.jobDeadlineMs;
        spec.retry.maxAttempts = uint32_t(options.jobRetries);
        spec.retry.deadLetterOnExhaustion = options.deadLetter;
        jobs.push_back(
            ReplayedJob{svc.submit(std::move(spec)),
                        std::move(workload)});

        if (i + 1 == options.jobStream)
            break;
        if (options.arrivals == "poisson") {
            // Exponential inter-arrival with mean 1/rate; uniform() is
            // in [0, 1), so 1-u is in (0, 1] and the log is finite.
            double gapSec = -std::log(1.0 - rng.uniform()) /
                            double(options.rate);
            std::this_thread::sleep_for(std::chrono::microseconds(
                uint64_t(gapSec * 1e6)));
        } else if ((i + 1) % options.burst == 0) {
            // Back-to-back within a burst; mean rate preserved by the
            // inter-burst gap.
            std::this_thread::sleep_for(std::chrono::microseconds(
                options.burst * 1000000 / options.rate));
        }
    }

    uint64_t rejected = 0, deadlineFailed = 0, completed = 0;
    uint64_t verifyFailures = 0, hardFailures = 0, poisonedJobs = 0;
    for (ReplayedJob &job : jobs) {
        JobState got = job.handle.wait();
        if (got == JobState::Rejected) {
            ++rejected;
            continue;
        }
        if (got == JobState::Completed) {
            ++completed;
            // A job that dead-lettered tasks completed by policy, not
            // by finishing its relaxations — its oracle can't hold.
            if (job.handle.poisonedTasks() > 0) {
                ++poisonedJobs;
                continue;
            }
            std::string why;
            if (!job.workload->verify(&why)) {
                ++verifyFailures;
                std::cerr << "verification error: job '"
                          << job.handle.name() << "': " << why << "\n";
            }
            continue;
        }
        bool deadline =
            got == JobState::Failed &&
            job.handle.error().find("deadline") != std::string::npos;
        if (deadline) {
            ++deadlineFailed;
        } else {
            ++hardFailures;
            std::cerr << "job '" << job.handle.name() << "' ended "
                      << jobStateName(got) << ": "
                      << job.handle.error() << "\n";
        }
    }
    uint64_t wallNs = nowNs() - startNs;
    ServiceStats stats = svc.stats();
    std::vector<TenantStats> tenantShares = svc.tenantStats();
    svc.shutdown();

    if (metrics) {
        if (!writeMetricsFile(options.metricsOut, metrics->snapshot()))
            hdcps_fatal("cannot write metrics to '%s'",
                        options.metricsOut.c_str());
        if (!options.csv)
            std::cout << "metrics written to " << options.metricsOut
                      << "\n";
    }

    double wallSec = double(wallNs) / 1e9;
    double throughput = wallSec > 0 ? double(completed) / wallSec : 0;
    if (options.csv) {
        std::cout << options.kernel << "," << options.input << ","
                  << options.design << "," << options.threads << ","
                  << options.jobStream << "," << completed << ","
                  << deadlineFailed << "," << rejected << ","
                  << stats.taskRetries << "," << wallNs << ","
                  << stats.jobLatencyP50Ms << ","
                  << stats.jobLatencyP99Ms << ","
                  << stats.jobLatencyMaxMs << "," << throughput << ","
                  << stats.workerRestarts << ","
                  << stats.poisonedTasks << ","
                  << (verifyFailures + hardFailures == 0 ? "ok"
                                                         : "FAIL")
                  << "\n";
    } else {
        Table table({"metric", "value"});
        table.row().cell("design").cell(std::string(scheduler->name()));
        table.row().cell("arrivals").cell(
            options.arrivals + " @ " + std::to_string(options.rate) +
            "/s");
        table.row().cell("jobs submitted").cell(stats.submitted);
        table.row().cell("jobs completed").cell(completed);
        table.row().cell("jobs rejected (backpressure)").cell(rejected);
        table.row().cell("jobs deadline-expired").cell(deadlineFailed);
        table.row().cell("task retries").cell(stats.taskRetries);
        table.row().cell("tasks drained").cell(stats.tasksDrained);
        if (options.supervise) {
            table.row().cell("worker restarts").cell(
                stats.workerRestarts);
            table.row().cell("health transitions").cell(
                stats.healthTransitions);
            table.row().cell("service escalated").cell(
                stats.escalated ? "YES" : "no");
        }
        if (options.deadLetter) {
            table.row().cell("poisoned tasks (dead-lettered)").cell(
                stats.poisonedTasks);
            table.row().cell("jobs with dead letters").cell(
                poisonedJobs);
        }
        if (options.tenants > 0) {
            // Share of processed tasks per tenant: under saturation
            // this tracks the configured weights (the fairness
            // invariant the ExecutorService tests pin down).
            uint64_t totalProcessed = 0;
            for (const TenantStats &ts : tenantShares)
                totalProcessed += ts.tasksProcessed;
            for (const TenantStats &ts : tenantShares) {
                double share =
                    totalProcessed > 0
                        ? 100.0 * double(ts.tasksProcessed) /
                              double(totalProcessed)
                        : 0.0;
                std::ostringstream label;
                label << "tenant " << ts.tenant << " (weight "
                      << ts.weight << ")";
                std::ostringstream detail;
                detail << ts.jobsCompleted << " jobs, "
                       << ts.rejected << " rejected, " << std::fixed
                       << std::setprecision(1) << share
                       << "% task share";
                table.row().cell(label.str()).cell(detail.str());
            }
        }
        table.row().cell("wall time (ms)").cell(double(wallNs) / 1e6,
                                                2);
        table.row().cell("job latency p50 (ms)").cell(
            stats.jobLatencyP50Ms, 2);
        table.row().cell("job latency p99 (ms)").cell(
            stats.jobLatencyP99Ms, 2);
        table.row().cell("job latency max (ms)").cell(
            stats.jobLatencyMaxMs, 2);
        table.row().cell("throughput (jobs/s)").cell(throughput, 1);
        table.printText(std::cout,
                        "job stream: " +
                            std::to_string(options.jobStream) + " x " +
                            options.kernel + " on " + options.input +
                            " (" + std::to_string(options.threads) +
                            " host threads)");
    }
    if (hardFailures > 0)
        return 2;
    return verifyFailures == 0 ? 0 : 1;
}

/** Print every registered fault site with its description. */
void
printFaultCatalog()
{
    size_t count = 0;
    const FaultSiteInfo *sites = faultSiteCatalog(count);
    size_t width = 0;
    for (size_t i = 0; i < count; ++i)
        width = std::max(width, std::string(sites[i].name).size());
    std::cout << "fault sites (--fault-spec site:mode[:arg][,...], "
                 "modes nth|prob|once|delay):\n";
    for (size_t i = 0; i < count; ++i) {
        std::cout << "  " << sites[i].name
                  << std::string(
                         width - std::string(sites[i].name).size() + 2,
                         ' ')
                  << sites[i].description << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseArgs(argc, argv);
    if (options.faultList) {
        printFaultCatalog();
        return 0;
    }
    if (options.list) {
        size_t count = 0;
        const char *const *kernels = workloadNames(count);
        std::cout << "kernels:";
        for (size_t i = 0; i < count; ++i)
            std::cout << " " << kernels[i];
        std::cout << "\nsim designs:";
        for (const SimDesignEntry &design : simDesigns())
            std::cout << " " << design.name;
        std::cout << "\nthreaded designs: " << threadedDesignNames(" ")
                  << "\n";
        printFaultCatalog();
        return 0;
    }

    // Fault injection is armed before any input or scheduler work so
    // every instrumented path of this process sees the same registry.
    // The registry is static because workers may consult it right up
    // to the end of main.
    static FaultRegistry faults(options.seed);
    if (!options.faultSpec.empty()) {
        std::string error;
        if (!faults.parseSpec(options.faultSpec, &error))
            hdcps_fatal("--fault-spec: %s", error.c_str());
        for (const std::string &site : faults.armedSites()) {
            if (!faultSiteKnown(site)) {
                hdcps_fatal("--fault-spec: unknown fault site '%s' "
                            "(see --list)",
                            site.c_str());
            }
        }
        FaultRegistry::install(&faults);
    }

    Graph graph = loadInput(options);
    if (options.stats) {
        GraphStats s = computeStats(graph);
        std::cout << "nodes " << s.nodes << "\nedges " << s.edges
                  << "\navg-degree " << s.avgDegree << "\nmax-degree "
                  << s.maxDegree << "\nmin-degree " << s.minDegree
                  << "\nmax-weight " << graph.maxWeight()
                  << "\ncoordinates "
                  << (graph.hasCoordinates() ? "yes" : "no") << "\n";
        return 0;
    }
    hdcps_check(options.source < graph.numNodes(),
                "--source out of range");
    auto workload = makeWorkload(options.kernel, graph, options.source);

    if (!options.metricsOut.empty() && options.mode == "sim") {
        // Observability series come from the threaded runtime; the
        // cycle-level simulator reports its own end-of-run statistics.
        if (options.modeExplicit) {
            hdcps_fatal("--metrics-out needs --mode threads "
                        "(the simulator has no metrics hookup)");
        }
        std::cerr << "note: --metrics-out implies --mode threads\n";
        options.mode = "threads";
    }
    if (options.jobStream > 0 && options.mode == "sim") {
        // The service schedules host worker threads; the cycle-level
        // simulator runs one workload to completion.
        if (options.modeExplicit)
            hdcps_fatal("--job-stream needs --mode threads");
        std::cerr << "note: --job-stream implies --mode threads\n";
        options.mode = "threads";
    }
    if ((options.reclaimAfterMs > 0 || !options.stragglerSpec.empty()) &&
        options.mode == "sim") {
        // Both knobs act on host worker threads; the cycle-level
        // simulator has neither heartbeats nor pause points.
        if (options.modeExplicit) {
            hdcps_fatal("--reclaim-after-ms and --straggler-spec need "
                        "--mode threads");
        }
        std::cerr << "note: --reclaim-after-ms/--straggler-spec imply "
                     "--mode threads\n";
        options.mode = "threads";
    }

    if (options.mode == "sim")
        return runSim(options, *workload);
    if (options.jobStream > 0)
        return runJobStream(options, graph);
    if (options.mode == "threads")
        return runThreads(options, *workload);
    hdcps_fatal("unknown --mode '%s' (want sim|threads)",
                options.mode.c_str());
}
