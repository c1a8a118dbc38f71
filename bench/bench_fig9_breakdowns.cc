/**
 * @file
 * Figure 9: completion-time breakdowns of Minnow and HD-CPS:HW
 * normalized to Swarm. Paper shape: Swarm's compute component is the
 * smallest (best work efficiency, rollback included); Minnow shows
 * inflated compute+comm from degraded work efficiency on divergent
 * inputs; HD-CPS:HW sits close to Swarm.
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

    Table table({"workload", "design", "norm-time", "enq", "deq", "cmp",
                 "comm", "tasks", "aborts"});

    for (const Combo &combo : fullCombos()) {
        Workload &workload = workloads.get(combo);
        SimResult swarm = simulateMean("swarm", workload, config);
        requireVerified(swarm, combo.label() + "/swarm");

        auto emit = [&](const char *design, const SimResult &r) {
            table.row()
                .cell(combo.label())
                .cell(design)
                .cell(double(r.completionCycles) /
                          double(swarm.completionCycles),
                      2)
                .cell(percent(r.total.fraction(Component::Enqueue)))
                .cell(percent(r.total.fraction(Component::Dequeue)))
                .cell(percent(r.total.fraction(Component::Compute)))
                .cell(percent(r.total.fraction(Component::Comm)))
                .cell(r.total.tasksProcessed)
                .cell(r.total.aborts);
        };
        emit("swarm", swarm);
        SimResult minnow = simulateMean("minnow-hw", workload, config);
        requireVerified(minnow, combo.label() + "/minnow-hw");
        emit("minnow-hw", minnow);
        SimResult hdcps = simulateMean("hdcps-hw", workload, config);
        requireVerified(hdcps, combo.label() + "/hdcps-hw");
        emit("hdcps-hw", hdcps);
    }
    table.printText(std::cout,
                    "Figure 9: breakdowns normalized to Swarm");
    std::cout << "\nPaper shape: Swarm lowest compute (rollback "
                 "included); HD-CPS:HW within ~7%; Minnow ~8% behind "
                 "HD-CPS:HW with inflated compute/comm.\n";
    return 0;
}
