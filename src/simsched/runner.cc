#include "simsched/runner.h"

#include "pq/dary_heap.h"
#include "simsched/common.h"
#include "simsched/sim_minnow.h"
#include "simsched/sim_multiqueue.h"
#include "simsched/sim_obim.h"
#include "simsched/sim_reld.h"
#include "simsched/sim_swarm.h"
#include "support/logging.h"

namespace hdcps {

namespace {

/** Single-core strict-priority-order execution (the "optimized
 *  sequential implementation" of the paper's speedup baselines). */
class SimSequential : public SimDesign
{
  public:
    const char *name() const override { return "sequential"; }

    void
    boot(SimMachine &m, const std::vector<Task> &initial) override
    {
        (void)m;
        pq_.clear();
        for (const Task &task : initial)
            pq_.push(task);
    }

    bool
    step(SimMachine &m, unsigned core) override
    {
        if (pq_.empty())
            return false;
        const SimConfig &config = m.config();
        m.advance(core, swPqOpCost(config, pq_.size()),
                  Component::Dequeue);
        Task task = pq_.pop();
        m.notePopped(core, task.priority);
        children_.clear();
        m.processTask(core, task, children_);
        m.taskCreated(children_.size());
        for (const Task &child : children_) {
            m.advance(core, swPqOpCost(config, pq_.size()),
                      Component::Enqueue);
            pq_.push(child);
        }
        m.taskRetired();
        return true;
    }

  private:
    DAryHeap<Task, TaskOrder> pq_;
    std::vector<Task> children_;
};

using Built = std::unique_ptr<SimDesign>;

template <class Design>
Built
plain(const char *)
{
    return std::make_unique<Design>();
}

template <SimHdCpsConfig (*Preset)()>
Built
hdcps(const char *name)
{
    return std::make_unique<SimHdCps>(Preset(), name);
}

constexpr SimDesignEntry kSimDesigns[] = {
    // The comparison designs, in figure order.
    {"reld", plain<SimReld>},
    {"multiqueue", plain<SimMultiQueue>},
    {"obim",
     [](const char *name) -> Built {
         return std::make_unique<SimObim>(SimObim::obimConfig(), name);
     }},
    {"pmod",
     [](const char *name) -> Built {
         return std::make_unique<SimObim>(SimObim::pmodConfig(), name);
     }},
    // 64 cores split ~9:1 like the paper's best 36-4 Xeon split.
    {"swminnow",
     [](const char *name) -> Built {
         return std::make_unique<SimObim>(SimObim::swMinnowConfig(6), name);
     }},
    {"hdcps-sw", hdcps<SimHdCps::configSw>},
    {"hdcps-hrq", hdcps<SimHdCps::configHrqOnly>},
    {"hdcps-hw", hdcps<SimHdCps::configHw>},
    {"minnow-hw", plain<SimMinnowHw>},
    {"swarm", plain<SimSwarm>},
    // The HD-CPS:SW ablation steps and the hPQ-only hardware variant.
    {"hdcps-srq", hdcps<SimHdCps::configSrq>},
    {"hdcps-srq-tdf", hdcps<SimHdCps::configSrqTdf>},
    {"hdcps-srq-tdf-ac", hdcps<SimHdCps::configSrqTdfAc>},
    {"hdcps-hpq", hdcps<SimHdCps::configHpqOnly>},
    {"sequential", plain<SimSequential>},
};

} // namespace

std::span<const SimDesignEntry>
simDesigns()
{
    return kSimDesigns;
}

std::unique_ptr<SimDesign>
makeDesign(const std::string &name)
{
    for (const SimDesignEntry &design : kSimDesigns) {
        if (name == design.name)
            return design.make(design.name);
    }
    hdcps_fatal("unknown design '%s'", name.c_str());
}

std::unique_ptr<SimDesign>
makeHdCpsDesign(const SimHdCpsConfig &config, const std::string &name)
{
    return std::make_unique<SimHdCps>(config, name);
}

SimResult
simulate(SimDesign &design, Workload &workload, const SimConfig &config,
         uint64_t seed, unsigned driftInterval)
{
    workload.reset();
    SimMachine machine(config, workload, seed);
    return machine.run(design, driftInterval);
}

SimResult
simulate(const std::string &designName, Workload &workload,
         const SimConfig &config, uint64_t seed, unsigned driftInterval)
{
    auto design = makeDesign(designName);
    return simulate(*design, workload, config, seed, driftInterval);
}

Cycle
simulateSequentialCycles(Workload &workload, const SimConfig &config,
                         uint64_t seed)
{
    SimConfig sequential = config;
    sequential.numCores = 1;
    sequential.meshWidth = 1;
    SimSequential design;
    SimResult result = simulate(design, workload, sequential, seed);
    hdcps_check(result.verified, "sequential baseline failed to verify: %s",
                result.verifyError.c_str());
    return result.completionCycles;
}

} // namespace hdcps
