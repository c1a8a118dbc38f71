/**
 * @file
 * Figure 11: Software Minnow worker/minnow core splits. The paper
 * sweeps 38-2 .. 32-8 on the 40-core Xeon and picks 36-4 (one minnow
 * per nine workers). On the simulated 64-core machine the equivalent
 * splits keep the same ratios. Paper shape: sparse USA likes more
 * minnows (underutilized bags => many prefetches); dense inputs prefer
 * more workers; the geomean optimum sits near the 9:1 ratio.
 */

#include <iostream>

#include "bench_common.h"
#include "simsched/sim_obim.h"

int
main()
{
    using namespace hdcps;
    using namespace hdcps::bench;

    const SimConfig config = benchConfig();
    WorkloadCache workloads;

    const std::vector<unsigned> minnowCounts = {2, 4, 6, 8, 12, 16};
    const std::vector<Combo> combos = {
        {"sssp", "usa"}, {"bfs", "usa"}, {"sssp", "cage"},
        {"pagerank", "wg"}};

    // Baseline for normalization: plain PMOD (no minnows).
    std::map<std::string, Cycle> pmodCycles;
    for (const Combo &combo : combos) {
        SimResult r =
            simulateMean("pmod", workloads.get(combo), config);
        requireVerified(r, combo.label() + "/pmod");
        pmodCycles[combo.label()] = r.completionCycles;
    }

    std::vector<std::string> header = {"config"};
    for (const Combo &combo : combos)
        header.push_back(combo.label());
    header.push_back("geomean");
    Table table(header);

    for (unsigned minnows : minnowCounts) {
        table.row().cell(
            std::to_string(config.numCores - minnows) + "-" +
            std::to_string(minnows));
        std::vector<double> perfs;
        for (const Combo &combo : combos) {
            SimObim design(SimObim::swMinnowConfig(minnows),
                           "swminnow-sweep");
            SimResult r =
                simulateMean(design, workloads.get(combo), config);
            requireVerified(r, combo.label() + "/swminnow");
            double perf = double(pmodCycles[combo.label()]) /
                          double(r.completionCycles);
            perfs.push_back(perf);
            table.cell(perf, 2);
        }
        table.cell(geomean(perfs), 2);
    }
    table.printText(std::cout,
                    "Figure 11: Software-Minnow worker-minnow splits "
                    "(performance vs PMOD, higher is better)");
    std::cout << "\nPaper shape: sparse USA gains with more minnows up "
                 "to a point; dense inputs prefer workers; ~9:1 split "
                 "wins the geomean (36-4 on 40 cores).\n";
    return 0;
}
