/**
 * @file
 * Road-network navigation: point-to-point A* over a large sparse road
 * grid, comparing every registered threaded CPS design on the same
 * query.
 *
 * This is the workload class the paper's USA-road experiments target:
 * huge diameter, tiny degree, priorities (f = g + h) that drift apart
 * quickly when the scheduler gets sloppy. The example prints, per
 * design, the wall time, the number of tasks executed (work
 * efficiency: less is better — A* expands few nodes when the best
 * frontier is honored) and the measured priority drift.
 */

#include <iostream>
#include <memory>

#include "algos/relaxation.h"
#include "core/designs.h"
#include "graph/generators.h"
#include "runtime/executor.h"
#include "stats/table.h"

int
main()
{
    using namespace hdcps;

    Graph graph = makeRoadGrid(96, 96, {.seed = 7});
    const unsigned threads = 4;

    Table table({"design", "wall-ms", "tasks", "drift", "goal-cost"});
    for (const DesignEntry &design : threadedDesigns()) {
        auto scheduler = design.make(threads, DesignParams{});
        AstarWorkload workload(graph, /*source=*/0);
        RunOptions options;
        options.numThreads = threads;
        options.driftSampleInterval = 500;
        RunResult result =
            run(*scheduler, workload.initialTasks(),
                workloadProcessFn(workload), options);
        std::string why;
        if (!workload.verify(&why)) {
            std::cerr << design.name << " FAILED: " << why << "\n";
            return 1;
        }
        table.row()
            .cell(design.name)
            .cell(double(result.wallNs) / 1e6, 1)
            .cell(result.total.tasksProcessed)
            .cell(result.avgDrift, 1)
            .cell(workload.goalCost());
    }
    table.printText(std::cout,
                    "A* on a 96x96 road grid, 4 threads (all designs "
                    "verified against sequential A*)");
    std::cout
        << "\nFewer tasks = better work efficiency. Note: push-style "
           "designs (reld, hdcps-sw) rely on destination cores "
           "consuming tasks concurrently, so on hosts with fewer "
           "physical cores than threads they show inflated task "
           "counts; pull-style designs (obim/pmod) are insensitive to "
           "oversubscription. The paper-scale comparison runs on the "
           "simulated 64-core machine (see bench/).\n";
    return 0;
}
