/**
 * @file
 * Figure 6: completion-time breakdowns of the hardware variants — hRQ
 * alone, then hRQ+hPQ (= HD-CPS:HW) — normalized to HD-CPS:SW.
 * Paper shape: hRQ ~10% improvement from faster task propagation;
 * hRQ+hPQ ~20% total, with the hPQ benefit largest where PQ occupancy
 * is small (sparse inputs fit entirely in the 48 entries).
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

    Table table({"workload", "variant", "norm-time", "enq", "deq", "cmp",
                 "comm"});
    std::map<std::string, std::vector<double>> speedups;

    for (const Combo &combo : fullCombos()) {
        Workload &workload = workloads.get(combo);
        SimResult sw = simulateMean("hdcps-sw", workload, config);
        requireVerified(sw, combo.label() + "/hdcps-sw");

        for (const char *variant : {"hdcps-hrq", "hdcps-hw"}) {
            SimResult r = simulateMean(variant, workload, config);
            requireVerified(r, combo.label() + "/" + variant);
            double normalized = double(r.completionCycles) /
                                double(sw.completionCycles);
            speedups[variant].push_back(1.0 / normalized);
            table.row()
                .cell(combo.label())
                .cell(variant)
                .cell(normalized, 2)
                .cell(percent(r.total.fraction(Component::Enqueue)))
                .cell(percent(r.total.fraction(Component::Dequeue)))
                .cell(percent(r.total.fraction(Component::Compute)))
                .cell(percent(r.total.fraction(Component::Comm)));
        }
    }
    for (const char *variant : {"hdcps-hrq", "hdcps-hw"}) {
        table.row().cell("geomean").cell(variant).cell(
            1.0 / geomean(speedups[variant]), 2);
        for (int i = 0; i < 4; ++i)
            table.cell("-");
    }
    table.printText(std::cout,
                    "Figure 6: HD-CPS:HW variants normalized to "
                    "HD-CPS:SW");
    std::cout << "\nPaper shape: hRQ ~0.9, hRQ+hPQ ~0.8 of "
                 "HD-CPS:SW's completion time.\n";
    return 0;
}
