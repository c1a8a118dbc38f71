/**
 * @file
 * Convenience entry points for the figure harnesses: construct any
 * named design, run a workload through the simulated machine, and
 * compute the optimized-sequential baseline the speedup figures
 * normalize against.
 */

#ifndef HDCPS_SIMSCHED_RUNNER_H_
#define HDCPS_SIMSCHED_RUNNER_H_

#include <memory>
#include <span>
#include <string>

#include "algos/workload.h"
#include "sim/machine.h"
#include "simsched/sim_hdcps.h"

namespace hdcps {

/** One simulated design: its name and how to build it (the factory
 *  is handed the entry's own name). */
struct SimDesignEntry
{
    const char *name;
    std::unique_ptr<SimDesign> (*make)(const char *name);
};

/** Every simulated design: the comparison designs in figure order,
 *  then the HD-CPS ablation steps, hdcps-hpq, and sequential. */
std::span<const SimDesignEntry> simDesigns();

/** Build the simDesigns() entry called `name` (fatal if unknown). */
std::unique_ptr<SimDesign> makeDesign(const std::string &name);

/** Build an HD-CPS design with an explicit config (for sweeps). */
std::unique_ptr<SimDesign> makeHdCpsDesign(const SimHdCpsConfig &config,
                                           const std::string &name);

/**
 * Run `designName` over `workload` on a machine with `config`.
 * The workload is reset() first so one instance serves many runs.
 */
SimResult simulate(const std::string &designName, Workload &workload,
                   const SimConfig &config, uint64_t seed = 1,
                   unsigned driftInterval = 2000);

/** Run a pre-built design (for swept configs). */
SimResult simulate(SimDesign &design, Workload &workload,
                   const SimConfig &config, uint64_t seed = 1,
                   unsigned driftInterval = 2000);

/**
 * Cycles of the optimized sequential implementation: a single-core
 * machine running tasks in strict priority order with a plain software
 * PQ and no distribution overhead. Denominator of Figures 4 and 8.
 */
Cycle simulateSequentialCycles(Workload &workload,
                               const SimConfig &config,
                               uint64_t seed = 1);

} // namespace hdcps

#endif // HDCPS_SIMSCHED_RUNNER_H_
