/**
 * @file
 * Figure 13: sensitivity of the adaptive TDF heuristic to its three
 * tunables, normalized to PMOD: (A) drift sampling interval — the
 * paper picks 2000 tasks (too large reacts late, too small burns
 * master-core compute); (B) step size — 10% (5% oscillates, 30%
 * overshoots); (C) initial TDF — 50% (barely matters, the heuristic
 * corrects it quickly).
 */

#include <iostream>

#include "bench_common.h"
#include "simsched/sim_hdcps.h"

namespace {

using namespace hdcps;
using namespace hdcps::bench;

void
sweep(const std::string &title, const std::vector<unsigned> &values,
      const std::function<void(SimHdCpsConfig &, unsigned)> &apply,
      WorkloadCache &workloads, const SimConfig &config)
{
    std::vector<std::string> header = {"value"};
    for (const Combo &combo : sweepCombos())
        header.push_back(combo.label());
    header.push_back("geomean");
    Table table(header);

    std::map<std::string, Cycle> pmodCycles;
    for (const Combo &combo : sweepCombos()) {
        SimResult r =
            simulateMean("pmod", workloads.get(combo), config);
        requireVerified(r, combo.label() + "/pmod");
        pmodCycles[combo.label()] = r.completionCycles;
    }

    for (unsigned value : values) {
        table.row().cell(uint64_t(value));
        std::vector<double> perfs;
        for (const Combo &combo : sweepCombos()) {
            SimHdCpsConfig hdcps = SimHdCps::configHw();
            apply(hdcps, value);
            SimHdCps design(hdcps, "tdf-sweep");
            SimResult r =
                simulateMean(design, workloads.get(combo), config);
            requireVerified(r, combo.label() + "/" + title);
            double perf = double(pmodCycles[combo.label()]) /
                          double(r.completionCycles);
            perfs.push_back(perf);
            table.cell(perf, 2);
        }
        table.cell(geomean(perfs), 2);
    }
    table.printText(std::cout, title);
    std::cout << "\n";
}

} // namespace

int
main()
{
    using namespace hdcps;
    using namespace hdcps::bench;

    const SimConfig config = benchConfig();
    WorkloadCache workloads;

    sweep("Figure 13:A — drift sampling interval (tasks), vs PMOD",
          {100, 500, 1000, 2000, 2500, 5000},
          [](SimHdCpsConfig &c, unsigned v) { c.sampleInterval = v; },
          workloads, config);

    sweep("Figure 13:B — TDF step size (%), vs PMOD", {5, 10, 20, 30},
          [](SimHdCpsConfig &c, unsigned v) { c.tdf.step = v; },
          workloads, config);

    sweep("Figure 13:C — initial TDF (%), vs PMOD", {10, 30, 50, 70, 90},
          [](SimHdCpsConfig &c, unsigned v) { c.tdf.initial = v; },
          workloads, config);

    std::cout << "Paper picks: interval 2000, step 10%, initial 50% "
                 "(initial value barely matters).\n";
    return 0;
}
