#include "core/designs.h"

#include "cps/multiqueue.h"
#include "cps/obim.h"
#include "cps/pmod.h"
#include "cps/reld.h"
#include "cps/swminnow.h"

namespace hdcps {

namespace {

using Built = std::unique_ptr<Scheduler>;

/** Designs that draw no random numbers and have no placement. */
template <class Design>
Built
plain(unsigned workers, const DesignParams &)
{
    return std::make_unique<Design>(workers);
}

template <class HdCps, HdCpsConfig (*Preset)()>
Built
hdcps(unsigned workers, const DesignParams &params)
{
    HdCpsConfig config = Preset();
    config.seed = params.seed;
    config.topology = params.topology;
    config.sampleInterval = params.sampleInterval;
    return std::make_unique<HdCps>(workers, config);
}

constexpr DesignEntry kDesigns[] = {
    {"hdcps-sw", 0, hdcps<HdCpsScheduler, HdCpsScheduler::configSw>},
    {"hdcps-srq", 0, hdcps<HdCpsScheduler, HdCpsScheduler::configSrq>},
    // HD-CPS:SW mechanisms over the relaxed MultiQueue local PQ.
    {"hdcps-mq", 64, hdcps<HdCpsMqScheduler, HdCpsMqScheduler::configSw>},
    {"reld", 0,
     [](unsigned n, const DesignParams &p) -> Built {
         return std::make_unique<ReldScheduler>(n, p.seed);
     }},
    {"multiqueue", 72,
     [](unsigned n, const DesignParams &p) -> Built {
         return std::make_unique<MultiQueueScheduler>(
             n, MultiQueueConfig{.seed = p.seed});
     }},
    {"obim", 0, plain<ObimScheduler>},
    {"pmod", 0, plain<PmodScheduler>},
    {"swminnow", 96, plain<SwMinnowScheduler>},
};

} // namespace

std::span<const DesignEntry>
threadedDesigns()
{
    return kDesigns;
}

const DesignEntry *
findThreadedDesign(std::string_view name)
{
    for (const DesignEntry &design : kDesigns) {
        if (name == design.name)
            return &design;
    }
    return nullptr;
}

std::string
threadedDesignNames(const char *separator)
{
    std::string out;
    for (const DesignEntry &design : kDesigns) {
        if (!out.empty())
            out += separator;
        out += design.name;
    }
    return out;
}

} // namespace hdcps
