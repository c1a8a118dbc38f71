#include "support/fault.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "support/logging.h"
#include "support/rng.h"

namespace hdcps {

std::atomic<FaultRegistry *> FaultRegistry::active_{nullptr};

namespace {

const FaultSiteInfo siteCatalog[] = {
    {faultsite::SrqPushFull,
     "sRQ tryPush reports full: forces the overflow spill path"},
    {faultsite::SrqPopFail,
     "sRQ tryPop spurious failure: owner sees an empty queue"},
    {faultsite::HdcpsOverflowSpill,
     "HD-CPS remote deliver skips the sRQ and spills to overflow"},
    {faultsite::DriftPublishDelay,
     "delay (ns) before a drift mailbox publish lands"},
    {faultsite::ExecPopFail,
     "executor-level spurious tryPop failure: worker idles one round"},
    {faultsite::ExecProcessThrow,
     "ProcessFn throws FaultInjectedError: drives run-failure handling"},
    {faultsite::ExecHelperDelay,
     "delay (ns) a resident run() helper sleeps before it enters its "
     "worker body: drives the late-helper hand-off"},
    {faultsite::SimHrqFull,
     "simulated hRQ reports full: arrival spills to the software sRQ"},
    {faultsite::SimHpqEvict,
     "simulated hPQ insert evicts to the software PQ as if full"},
    {faultsite::SimNocDelay,
     "extra cycles added to every simulated NoC transfer"},
    {faultsite::SvcAdmitFull,
     "service admission pretends the queue is full: forces rejection"},
    {faultsite::SvcJobFail,
     "service task processing throws: drives retry/backoff then "
     "per-job failure"},
    {faultsite::SvcCancelRace,
     "delay (ns) inside JobHandle::cancel between the drain latch "
     "and its publication: widens the cancel/complete race"},
    {faultsite::SvcWorkerWedge,
     "delay (ns) a service worker stalls mid-loop without heartbeats: "
     "drives Suspect/Wedged detection and quarantine"},
    {faultsite::SvcWorkerDie,
     "service worker exits its loop as if crashed: drives the exit "
     "latch, queue reclamation, and the slot's re-arm"},
    {faultsite::SvcTaskPoison,
     "service task processing throws on every attempt: drives the "
     "dead-letter (poison quarantine) path"},
};

/** Per-invocation uniform double in [0, 1), deterministic in
 *  (seed, site, invocation index). */
double
hashUniform(uint64_t seed, uint64_t siteHash, uint64_t invocation)
{
    uint64_t h = mix64(seed ^ siteHash ^ mix64(invocation + 0x51ed));
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

const FaultSiteInfo *
faultSiteCatalog(size_t &count)
{
    count = sizeof(siteCatalog) / sizeof(siteCatalog[0]);
    return siteCatalog;
}

bool
faultSiteKnown(const std::string &name)
{
    for (const FaultSiteInfo &info : siteCatalog) {
        if (name == info.name)
            return true;
    }
    return false;
}

void
FaultRegistry::arm(const std::string &site, FaultMode mode, double arg)
{
    hdcps_check(!site.empty(), "fault site name must not be empty");
    std::unique_ptr<Site> fresh;
    Site *entry = nullptr;
    for (auto &s : sites_) {
        if (s->name == site)
            entry = s.get();
    }
    if (!entry) {
        fresh = std::make_unique<Site>();
        fresh->name = site;
        entry = fresh.get();
    }
    entry->mode = mode;
    entry->hash = mix64(std::hash<std::string>{}(site));
    entry->n = 1;
    entry->probability = 0.0;
    entry->delay = 0;
    switch (mode) {
      case FaultMode::EveryNth:
      case FaultMode::OneShot:
        hdcps_check(arg >= 1.0, "fault '%s': N must be >= 1",
                    site.c_str());
        entry->n = static_cast<uint64_t>(arg);
        break;
      case FaultMode::Probability:
        hdcps_check(arg >= 0.0 && arg <= 1.0,
                    "fault '%s': probability must be in [0, 1]",
                    site.c_str());
        entry->probability = arg;
        break;
      case FaultMode::Delay:
        hdcps_check(arg >= 0.0, "fault '%s': delay must be >= 0",
                    site.c_str());
        entry->delay = static_cast<uint64_t>(arg);
        break;
    }
    entry->invocations.store(0, std::memory_order_relaxed);
    entry->fired.store(0, std::memory_order_relaxed);
    if (fresh)
        sites_.push_back(std::move(fresh));
}

bool
FaultRegistry::parseSpec(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    std::vector<std::string> seen;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty())
            continue;

        size_t firstColon = entry.find(':');
        if (firstColon == std::string::npos || firstColon == 0)
            return fail("'" + entry + "': want site:mode[:arg]");
        std::string site = entry.substr(0, firstColon);
        // Duplicate sites within one spec are almost always a typo'd
        // edit of the wrong entry; silently letting the last one win
        // (arm() re-arm semantics) hid that, so name the offender.
        if (std::find(seen.begin(), seen.end(), site) != seen.end()) {
            return fail("'" + entry + "': duplicate site '" + site +
                        "' (each site may appear once per spec)");
        }
        seen.push_back(site);
        size_t secondColon = entry.find(':', firstColon + 1);
        std::string mode = entry.substr(
            firstColon + 1, secondColon == std::string::npos
                                ? std::string::npos
                                : secondColon - firstColon - 1);
        std::string arg = secondColon == std::string::npos
                              ? std::string()
                              : entry.substr(secondColon + 1);

        double value = 0.0;
        bool haveValue = false;
        if (!arg.empty()) {
            char *argEnd = nullptr;
            value = std::strtod(arg.c_str(), &argEnd);
            if (argEnd == arg.c_str() || *argEnd != '\0')
                return fail("'" + entry + "': bad numeric arg '" + arg +
                            "'");
            haveValue = true;
        }

        if (mode == "nth") {
            if (!haveValue || value < 1.0)
                return fail("'" + entry + "': nth needs N >= 1");
            arm(site, FaultMode::EveryNth, value);
        } else if (mode == "prob") {
            if (!haveValue || value < 0.0 || value > 1.0)
                return fail("'" + entry + "': prob needs P in [0, 1]");
            arm(site, FaultMode::Probability, value);
        } else if (mode == "once") {
            if (haveValue && value < 1.0)
                return fail("'" + entry + "': once needs N >= 1");
            arm(site, FaultMode::OneShot, haveValue ? value : 1.0);
        } else if (mode == "delay") {
            if (!haveValue || value < 0.0)
                return fail("'" + entry + "': delay needs AMOUNT >= 0");
            arm(site, FaultMode::Delay, value);
        } else {
            return fail("'" + entry + "': unknown mode '" + mode +
                        "' (want nth|prob|once|delay)");
        }
    }
    return true;
}

std::vector<std::string>
FaultRegistry::armedSites() const
{
    std::vector<std::string> names;
    names.reserve(sites_.size());
    for (const auto &s : sites_)
        names.push_back(s->name);
    return names;
}

FaultRegistry::Site *
FaultRegistry::find(const char *site)
{
    for (auto &s : sites_) {
        if (std::strcmp(s->name.c_str(), site) == 0)
            return s.get();
    }
    return nullptr;
}

const FaultRegistry::Site *
FaultRegistry::find(const char *site) const
{
    for (const auto &s : sites_) {
        if (std::strcmp(s->name.c_str(), site) == 0)
            return s.get();
    }
    return nullptr;
}

bool
FaultRegistry::fire(const char *site)
{
    Site *entry = find(site);
    if (!entry)
        return false;
    // 1-based invocation index; fetch_add assigns each concurrent
    // caller a distinct index, so triggers stay exactly-N under races.
    uint64_t index =
        entry->invocations.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fires = false;
    switch (entry->mode) {
      case FaultMode::EveryNth:
        fires = index % entry->n == 0;
        break;
      case FaultMode::Probability:
        fires = hashUniform(seed_, entry->hash, index) <
                entry->probability;
        break;
      case FaultMode::OneShot:
        fires = index == entry->n;
        break;
      case FaultMode::Delay:
        fires = true;
        break;
    }
    if (fires)
        entry->fired.fetch_add(1, std::memory_order_relaxed);
    return fires;
}

uint64_t
FaultRegistry::amount(const char *site)
{
    Site *entry = find(site);
    if (!entry)
        return 0;
    return fire(site) ? entry->delay : 0;
}

uint64_t
FaultRegistry::invocations(const char *site) const
{
    const Site *entry = find(site);
    return entry ? entry->invocations.load(std::memory_order_relaxed)
                 : 0;
}

uint64_t
FaultRegistry::fireCount(const char *site) const
{
    const Site *entry = find(site);
    return entry ? entry->fired.load(std::memory_order_relaxed) : 0;
}

void
FaultRegistry::install(FaultRegistry *registry)
{
    active_.store(registry, std::memory_order_release);
}

namespace detail {

void
faultSleepSlow(const char *site)
{
    uint64_t ns = faultAmount(site);
    if (ns > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

} // namespace detail

} // namespace hdcps
