/**
 * @file
 * Figure 15: the minimum same-priority task count required to create a
 * bag (Algorithm 1 line 6), swept 1..5 and normalized to PMOD. A
 * threshold of 1 means "always bag". Paper shape: workload-dependent,
 * with 3 the best overall — below it, tiny bags waste the metadata
 * machinery; above it, dense inputs lose bagging opportunities.
 */

#include <iostream>

#include "bench_common.h"
#include "simsched/sim_hdcps.h"

int
main()
{
    using namespace hdcps;
    using namespace hdcps::bench;

    const SimConfig config = benchConfig();
    WorkloadCache workloads;

    std::vector<std::string> header = {"min-bag-size"};
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

    for (size_t threshold : {1u, 2u, 3u, 4u, 5u}) {
        table.row().cell(uint64_t(threshold));
        std::vector<double> perfs;
        for (const Combo &combo : sweepCombos()) {
            SimHdCpsConfig hdcps = SimHdCps::configHw();
            if (threshold == 1) {
                hdcps.bags.mode = BagMode::Always;
            } else {
                hdcps.bags.minBagSize = threshold;
            }
            SimHdCps design(hdcps, "bag-threshold");
            SimResult r =
                simulateMean(design, workloads.get(combo), config);
            requireVerified(r, combo.label() + "/threshold");
            double perf = double(pmodCycles[combo.label()]) /
                          double(r.completionCycles);
            perfs.push_back(perf);
            table.cell(perf, 2);
        }
        table.cell(geomean(perfs), 2);
    }
    table.printText(std::cout,
                    "Figure 15: bag-creation threshold sweep, "
                    "performance normalized to PMOD");
    std::cout << "\nPaper picks a threshold of 3 (best overall).\n";
    return 0;
}
