/**
 * @file
 * Figure 14: bag payload transport — push (payload travels over the
 * network with the metadata) vs pull (payload stays with the creator
 * and is fetched with coherent loads on dequeue) — normalized to PMOD.
 * Paper shape: pull wins by ~1.5x because it moves bytes only on
 * demand and exploits payload locality; push merely matches PMOD.
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

    Table table({"workload", "push", "pull"});
    std::map<std::string, std::vector<double>> perfs;
    for (const Combo &combo : fullCombos()) {
        Workload &workload = workloads.get(combo);
        SimResult pmod = simulateMean("pmod", workload, config);
        requireVerified(pmod, combo.label() + "/pmod");

        table.row().cell(combo.label());
        for (BagTransport transport :
             {BagTransport::Push, BagTransport::Pull}) {
            SimHdCpsConfig hdcps = SimHdCps::configHw();
            hdcps.bags.transport = transport;
            SimHdCps design(hdcps, "transport");
            SimResult r = simulateMean(design, workload, config);
            requireVerified(r, combo.label() + "/transport");
            double perf = double(pmod.completionCycles) /
                          double(r.completionCycles);
            const char *name =
                transport == BagTransport::Push ? "push" : "pull";
            perfs[name].push_back(perf);
            table.cell(perf, 2);
        }
    }
    table.row()
        .cell("geomean")
        .cell(geomean(perfs["push"]), 2)
        .cell(geomean(perfs["pull"]), 2);
    table.printText(std::cout,
                    "Figure 14: bag transport methods, performance "
                    "normalized to PMOD (higher is better)");
    std::cout << "\nPaper shape: pull ~1.5x better than push; push "
                 "roughly at par with PMOD.\n";
    return 0;
}
