/**
 * @file
 * Shared scaffolding for the figure/table harnesses: the paper's
 * (workload, input) combinations, graph caching, and result helpers.
 *
 * Every harness prints a stable text table with the same rows/series
 * the paper reports. Environment knobs:
 *   HDCPS_BENCH_SCALE       input scale factor (default 1)
 *   HDCPS_BENCH_CORES       simulated core count (default 64, Table I)
 *   HDCPS_BENCH_SEED        generator/scheduler seed (default 1)
 *   HDCPS_BENCH_FAULT_SPEC  fault-injection spec (site:mode[:arg],...
 *                           see support/fault.h) armed for every run
 */

#ifndef HDCPS_BENCH_BENCH_COMMON_H_
#define HDCPS_BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/workload.h"
#include "graph/generators.h"
#include "sim/machine.h"
#include "simsched/runner.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "support/fault.h"

#ifdef HDCPS_BENCH_PROVENANCE
#include "provenance.h"
#endif

namespace hdcps::bench {

/** One (kernel, input) point of the paper's evaluation. */
struct Combo
{
    const char *kernel;
    const char *input;

    std::string
    label() const
    {
        return std::string(kernel) + "-" + input;
    }
};

/** The paper's full evaluation set (Figure 3/8 style). */
inline std::vector<Combo>
fullCombos()
{
    return {
        {"sssp", "cage"},  {"sssp", "usa"},  {"astar", "cage"},
        {"astar", "usa"},  {"bfs", "cage"},  {"bfs", "usa"},
        {"mst", "cage"},   {"mst", "usa"},   {"color", "cage"},
        {"color", "usa"},  {"pagerank", "wg"}, {"pagerank", "lj"},
    };
}

/** Reduced set for parameter sweeps (Figures 7, 13-15 style). */
inline std::vector<Combo>
sweepCombos()
{
    return {
        {"sssp", "cage"},
        {"sssp", "usa"},
        {"bfs", "usa"},
        {"pagerank", "wg"},
    };
}

/** Positive whole number from environment variable `name`, or
 *  `fallback` when it is unset. Anything else — empty, non-numeric,
 *  zero, or above UINT_MAX — exits with a message naming the variable
 *  rather than running with a garbage value (HDCPS_BENCH_REPS=0 would
 *  make simulateMean divide zero by zero). */
inline unsigned
envUnsigned(const char *name, unsigned fallback)
{
    const char *value = std::getenv(name);
    if (!value)
        return fallback;
    bool digits = *value != '\0';
    for (const char *c = value; *c; ++c)
        digits = digits && *c >= '0' && *c <= '9';
    errno = 0;
    unsigned long long parsed =
        digits ? std::strtoull(value, nullptr, 10) : 0;
    if (errno == ERANGE || parsed == 0 ||
        parsed > std::numeric_limits<unsigned>::max()) {
        std::cerr << "FATAL: " << name << "='" << value
                  << "': expected a whole number from 1 to "
                  << std::numeric_limits<unsigned>::max() << "\n";
        std::exit(1);
    }
    return static_cast<unsigned>(parsed);
}

inline unsigned
benchScale()
{
    return envUnsigned("HDCPS_BENCH_SCALE", 1);
}

inline uint64_t
benchSeed()
{
    return envUnsigned("HDCPS_BENCH_SEED", 1);
}

/**
 * Arm fault injection from HDCPS_BENCH_FAULT_SPEC, once per process.
 * Lets any figure harness measure degraded-mode behavior (forced sRQ
 * overflow, hRQ/hPQ spills, NoC delay) without recompiling; every run
 * still goes through requireVerified(), so a spec that breaks
 * exactly-once processing fails the harness loudly.
 */
inline void
armBenchFaults()
{
    static bool once = [] {
        const char *spec = std::getenv("HDCPS_BENCH_FAULT_SPEC");
        if (!spec || !*spec)
            return false;
        static FaultRegistry faults(benchSeed());
        std::string error;
        if (!faults.parseSpec(spec, &error)) {
            std::cerr << "FATAL: HDCPS_BENCH_FAULT_SPEC: " << error
                      << "\n";
            std::exit(1);
        }
        FaultRegistry::install(&faults);
        return true;
    }();
    (void)once;
}

/** Table I machine, with an optional core-count override. */
inline SimConfig
benchConfig()
{
    armBenchFaults();
    SimConfig config;
    unsigned cores = envUnsigned("HDCPS_BENCH_CORES", 64);
    config.numCores = cores;
    // Pick the widest mesh that tiles the core count.
    unsigned width = 1;
    for (unsigned w = 1; w * w <= cores; ++w) {
        if (cores % w == 0)
            width = w;
    }
    config.meshWidth = cores / width >= width ? cores / width : width;
    while (cores % config.meshWidth != 0)
        --config.meshWidth;
    return config;
}

/** Cache of generated inputs, keyed by name (shared across combos). */
class InputCache
{
  public:
    const Graph &
    get(const std::string &name)
    {
        auto it = graphs_.find(name);
        if (it == graphs_.end()) {
            it = graphs_
                     .emplace(name, makePaperInput(name, benchScale(),
                                                   benchSeed()))
                     .first;
        }
        return it->second;
    }

  private:
    std::map<std::string, Graph> graphs_;
};

/** Cache of workloads bound to cached inputs (reset() before reuse). */
class WorkloadCache
{
  public:
    Workload &
    get(const Combo &combo)
    {
        std::string key = combo.label();
        auto it = workloads_.find(key);
        if (it == workloads_.end()) {
            it = workloads_
                     .emplace(key, makeWorkload(combo.kernel,
                                                inputs_.get(combo.input),
                                                0))
                     .first;
        }
        return *it->second;
    }

  private:
    InputCache inputs_;
    std::map<std::string, std::unique_ptr<Workload>> workloads_;
};

/** Abort the harness if a run failed verification. */
inline void
requireVerified(const SimResult &result, const std::string &what)
{
    if (!result.verified) {
        std::cerr << "FATAL: " << what
                  << " failed verification: " << result.verifyError
                  << "\n";
        std::exit(1);
    }
}

/** Repetitions per measurement (adaptive schedulers are seed-
 *  sensitive on small instances; the figures report geomeans over
 *  seeds). Override with HDCPS_BENCH_REPS. */
inline unsigned
benchReps()
{
    return envUnsigned("HDCPS_BENCH_REPS", 3);
}

/**
 * Optional per-rep series dump: when HDCPS_BENCH_METRICS_DIR is set,
 * every simulateMean() measurement appends its per-seed rows
 * (completion cycles, drift, breakdown components, task counts) to
 * `<dir>/<design>.csv` next to the printed table, so harness output
 * can be analyzed as a series over seeds instead of one geomean.
 */
class SeriesDump
{
  public:
    static void
    record(const std::string &design, unsigned rep, uint64_t seed,
           const SimResult &result)
    {
        const char *dir = std::getenv("HDCPS_BENCH_METRICS_DIR");
        if (!dir)
            return;
        std::string path = std::string(dir) + "/" + design + ".csv";
        bool fresh = !std::ifstream(path).good();
        std::ofstream out(path, std::ios::app);
        if (!out) {
            std::cerr << "warning: cannot append bench series to "
                      << path << "\n";
            return;
        }
        if (fresh) {
            out << "rep,seed,completion_cycles,avg_drift,max_drift,"
                   "tasks_processed,enqueue,dequeue,compute,comm\n";
        }
        out << rep << "," << seed << "," << result.completionCycles
            << "," << result.avgDrift << "," << result.maxDrift << ","
            << result.total.tasksProcessed << ","
            << result.total[Component::Enqueue] << ","
            << result.total[Component::Dequeue] << ","
            << result.total[Component::Compute] << ","
            << result.total[Component::Comm] << "\n";
    }
};

/**
 * Run a named design benchReps() times with consecutive seeds and
 * return the last run's statistics with completionCycles replaced by
 * the geometric mean across seeds. Every run is verified.
 */
inline SimResult
simulateMean(const std::string &design, Workload &workload,
             const SimConfig &config)
{
    double logSum = 0.0;
    SimResult last;
    unsigned reps = benchReps();
    for (unsigned rep = 0; rep < reps; ++rep) {
        last = simulate(design, workload, config, benchSeed() + rep);
        requireVerified(last, design);
        SeriesDump::record(design, rep, benchSeed() + rep, last);
        logSum += std::log(double(last.completionCycles));
    }
    last.completionCycles =
        Cycle(std::exp(logSum / double(reps)));
    return last;
}

/** As simulateMean, for a pre-built design object (boot() resets all
 *  design state, so one object serves every rep). */
inline SimResult
simulateMean(SimDesign &design, Workload &workload,
             const SimConfig &config)
{
    double logSum = 0.0;
    SimResult last;
    unsigned reps = benchReps();
    for (unsigned rep = 0; rep < reps; ++rep) {
        last = simulate(design, workload, config, benchSeed() + rep);
        requireVerified(last, design.name());
        SeriesDump::record(design.name(), rep, benchSeed() + rep, last);
        logSum += std::log(double(last.completionCycles));
    }
    last.completionCycles =
        Cycle(std::exp(logSum / double(reps)));
    return last;
}

/** Percentage string for breakdown components. */
inline std::string
percent(double fraction)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.0f%%", fraction * 100.0);
    return buf;
}

// ---------------------------------------------------------------------
// Perf gate: machine-readable microbenchmark results (BENCH_micro.json)
// consumed by tools/bench_compare. Schema "hdcps-bench-micro-v2":
//   { "schema": ..., "git_rev": ..., "git_dirty": ..., "host_cores": N,
//     "benchmarks": [ { "name", "scenario", "layer",
//                       "items_per_second", "real_time_ns",
//                       "iterations", "counters": {...}? }, ... ] }
// "layer" names the stack layer the row prices (PerfGateResult).
// "counters" is optional and carries benchmark-specific quality
// metrics (e.g. quiescent rank-error bounds for relaxed queues);
// bench_compare validates only the required keys and tolerates it.
// ---------------------------------------------------------------------

/** One benchmark measurement destined for the perf-gate JSON. */
struct PerfGateResult
{
    std::string name;
    std::string scenario; ///< coarse grouping, e.g. "remote_heavy"
    /** Stack layer the row prices: pq, local_pq, transfer, sched,
     *  runtime or sim (the simulator's hardware models). */
    std::string layer;
    double itemsPerSecond = 0.0;
    double realTimeNs = 0.0; ///< per iteration
    int64_t iterations = 0;
    /** Extra named metrics (rank errors, occupancy, ...), optional. */
    std::map<std::string, double> counters;
};

/** Git revision baked in at build time (see bench/CMakeLists.txt). */
inline const char *
gitRev()
{
#ifdef HDCPS_BENCH_PROVENANCE
    return HDCPS_E2E_GIT_REV;
#else
    return "unknown";
#endif
}

/** Whether the built tree had uncommitted changes, as a JSON value:
 *  true, false, or null outside a git checkout. */
inline const char *
gitDirtyJson()
{
#ifdef HDCPS_BENCH_PROVENANCE
    const std::string dirty = HDCPS_E2E_GIT_DIRTY;
    return dirty == "0" ? "false" : dirty == "1" ? "true" : "null";
#else
    return "null";
#endif
}

inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Write the perf-gate JSON; false (with a stderr note) on I/O error. */
inline bool
writePerfGateJson(const std::string &path,
                  const std::vector<PerfGateResult> &results)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write perf gate JSON to " << path
                  << "\n";
        return false;
    }
    out << "{\n";
    out << "  \"schema\": \"hdcps-bench-micro-v2\",\n";
    out << "  \"git_rev\": \"" << jsonEscape(gitRev()) << "\",\n";
    out << "  \"git_dirty\": " << gitDirtyJson() << ",\n";
    out << "  \"host_cores\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"benchmarks\": [";
    for (size_t i = 0; i < results.size(); ++i) {
        const PerfGateResult &r = results[i];
        out << (i ? "," : "") << "\n    {\"name\": \""
            << jsonEscape(r.name) << "\", \"scenario\": \""
            << jsonEscape(r.scenario) << "\", \"layer\": \""
            << jsonEscape(r.layer) << "\", \"items_per_second\": "
            << r.itemsPerSecond << ", \"real_time_ns\": " << r.realTimeNs
            << ", \"iterations\": " << r.iterations;
        if (!r.counters.empty()) {
            out << ", \"counters\": {";
            bool first = true;
            for (const auto &[key, value] : r.counters) {
                out << (first ? "" : ", ") << "\"" << jsonEscape(key)
                    << "\": " << value;
                first = false;
            }
            out << "}";
        }
        out << "}";
    }
    out << "\n  ]\n}\n";
    out.flush();
    if (!out) {
        std::cerr << "error: short write of perf gate JSON to " << path
                  << "\n";
        return false;
    }
    return true;
}

} // namespace hdcps::bench

#endif // HDCPS_BENCH_BENCH_COMMON_H_
