/**
 * @file
 * Figure 3: completion time and priority drift of the software CPS
 * designs — RELD, OBIM, Software Minnow, HD-CPS:SW — normalized to
 * PMOD, per (workload, input) combination, plus geomeans.
 *
 * Paper shapes this harness reproduces: RELD worst (aggressive blind
 * distribution), OBIM hurt where bags under-utilize (sparse USA),
 * PMOD/SW-Minnow in between, HD-CPS:SW best (~1.25x over PMOD and
 * ~1.12x over SW-Minnow in the paper).
 */

#include <iostream>

#include "bench_common.h"

int
main()
{
    using namespace hdcps;
    using namespace hdcps::bench;

    const SimConfig config = benchConfig();
    WorkloadCache workloads;

    const std::vector<std::string> designs = {"reld", "obim", "swminnow",
                                              "hdcps-sw"};
    Table table({"workload", "reld", "obim", "swminnow", "hdcps-sw",
                 "drift:reld", "drift:obim", "drift:swminnow",
                 "drift:hdcps-sw", "drift:pmod"});

    std::map<std::string, std::vector<double>> speedups;
    for (const Combo &combo : fullCombos()) {
        Workload &workload = workloads.get(combo);
        SimResult pmod = simulateMean("pmod", workload, config);
        requireVerified(pmod, combo.label() + "/pmod");

        table.row().cell(combo.label());
        std::vector<double> drifts;
        for (const std::string &design : designs) {
            SimResult r = simulateMean(design, workload, config);
            requireVerified(r, combo.label() + "/" + design);
            // Normalized completion time (>1 = slower than PMOD).
            double normalized = double(r.completionCycles) /
                                double(pmod.completionCycles);
            table.cell(normalized, 2);
            speedups[design].push_back(1.0 / normalized);
            drifts.push_back(r.avgDrift);
        }
        double pmodDrift = pmod.avgDrift > 0 ? pmod.avgDrift : 1.0;
        for (double d : drifts)
            table.cell(d / pmodDrift, 2);
        table.cell(1.0, 2);
    }
    table.row().cell("geomean");
    for (const std::string &design : designs)
        table.cell(1.0 / geomean(speedups[design]), 2);
    for (int i = 0; i < 5; ++i)
        table.cell("-");

    table.printText(std::cout,
                    "Figure 3: completion time (and avg priority "
                    "drift) normalized to PMOD");
    std::cout << "\nPaper shape: RELD > 2x slower; OBIM loses on "
                 "sparse USA; HD-CPS:SW ~0.8 (1.25x faster than "
                 "PMOD).\n";
    return 0;
}
