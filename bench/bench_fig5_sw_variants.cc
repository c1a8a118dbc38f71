/**
 * @file
 * Figure 5: completion-time breakdowns and priority drift of the
 * HD-CPS:SW ablation stack — sRQ, sRQ+TDF, sRQ+TDF+AC, sRQ+TDF+SC —
 * normalized to RELD.
 *
 * Paper shapes: sRQ ~1.3x over RELD; +TDF ~2x; +AC helps only where
 * parents create many children (dense inputs) and *hurts* elsewhere
 * (extra bag creation in enqueue/dequeue); +SC (selective) recovers
 * that, reaching ~2.4x.
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

    const std::vector<std::string> variants = {
        "hdcps-srq", "hdcps-srq-tdf", "hdcps-srq-tdf-ac", "hdcps-sw"};

    Table table({"workload", "variant", "norm-time", "enq", "deq", "cmp",
                 "comm", "drift", "tasks"});
    std::map<std::string, std::vector<double>> speedups;

    for (const Combo &combo : fullCombos()) {
        Workload &workload = workloads.get(combo);
        SimResult reld = simulateMean("reld", workload, config);
        requireVerified(reld, combo.label() + "/reld");
        double reldDrift = reld.avgDrift > 0 ? reld.avgDrift : 1.0;

        for (const std::string &variant : variants) {
            SimResult r = simulateMean(variant, workload, config);
            requireVerified(r, combo.label() + "/" + variant);
            double normalized = double(r.completionCycles) /
                                double(reld.completionCycles);
            speedups[variant].push_back(1.0 / normalized);
            table.row()
                .cell(combo.label())
                .cell(variant)
                .cell(normalized, 2)
                .cell(percent(r.total.fraction(Component::Enqueue)))
                .cell(percent(r.total.fraction(Component::Dequeue)))
                .cell(percent(r.total.fraction(Component::Compute)))
                .cell(percent(r.total.fraction(Component::Comm)))
                .cell(r.avgDrift / reldDrift, 2)
                .cell(r.total.tasksProcessed);
        }
    }
    for (const std::string &variant : variants) {
        table.row().cell("geomean").cell(variant).cell(
            1.0 / geomean(speedups[variant]), 2);
        for (int i = 0; i < 6; ++i)
            table.cell("-");
    }
    table.printText(std::cout,
                    "Figure 5: HD-CPS:SW variants normalized to RELD "
                    "(completion, breakdown fractions, drift)");
    std::cout << "\nPaper shape: sRQ ~1.3x, +TDF ~2x, +AC ~1.9x "
                 "(worse than +TDF), +SC ~2.4x over RELD.\n";
    return 0;
}
