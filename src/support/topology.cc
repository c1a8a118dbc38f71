#include "support/topology.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "support/logging.h"

namespace hdcps {

namespace {

/**
 * Parse a sysfs cpulist ("0-3,8,10-11") into CPU ids. Returns false on
 * anything unexpected — detection treats that as "no topology" rather
 * than guessing.
 */
bool
parseCpuList(const std::string &text, std::vector<unsigned> *out)
{
    out->clear();
    size_t i = 0;
    const size_t n = text.size();
    auto parseNum = [&](unsigned *value) {
        if (i >= n || !std::isdigit(static_cast<unsigned char>(text[i])))
            return false;
        unsigned long parsed = 0;
        while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) {
            parsed = parsed * 10 + unsigned(text[i] - '0');
            if (parsed > 1u << 20)
                return false; // not a plausible CPU id
            ++i;
        }
        *value = static_cast<unsigned>(parsed);
        return true;
    };
    while (i < n && (text[i] == '\n' || text[i] == ' '))
        ++i;
    if (i >= n)
        return true; // empty list (memory-only node)
    for (;;) {
        unsigned first = 0;
        if (!parseNum(&first))
            return false;
        unsigned last = first;
        if (i < n && text[i] == '-') {
            ++i;
            if (!parseNum(&last) || last < first)
                return false;
        }
        for (unsigned cpu = first; cpu <= last; ++cpu)
            out->push_back(cpu);
        while (i < n && (text[i] == '\n' || text[i] == ' '))
            ++i;
        if (i >= n)
            return true;
        if (text[i] != ',')
            return false;
        ++i;
    }
}

} // namespace

Topology::Topology()
{
    nodes_.resize(1);
}

Topology
Topology::synthetic(unsigned nodes, unsigned coresPerNode)
{
    hdcps_check(nodes >= 1, "synthetic topology needs >= 1 node");
    hdcps_check(coresPerNode >= 1,
                "synthetic topology needs >= 1 core per node");
    Topology t;
    t.nodes_.assign(nodes, Node{});
    for (Node &node : t.nodes_)
        node.cores = coresPerNode;
    t.synthetic_ = true;
    return t;
}

Topology
Topology::detect()
{
    Topology t;
    std::vector<Node> found;
    // Node ids are dense in practice but not guaranteed; probe a
    // generous range and stop at the first long run of gaps.
    unsigned misses = 0;
    for (unsigned id = 0; id < 4096 && misses < 64; ++id) {
        std::ifstream in("/sys/devices/system/node/node" +
                         std::to_string(id) + "/cpulist");
        if (!in) {
            ++misses;
            continue;
        }
        misses = 0;
        std::stringstream buffer;
        buffer << in.rdbuf();
        Node node;
        if (!parseCpuList(buffer.str(), &node.cpus))
            return Topology(); // malformed sysfs: no topology claimed
        if (node.cpus.empty())
            continue; // memory-only node: no worker can live there
        node.cores = static_cast<unsigned>(node.cpus.size());
        found.push_back(std::move(node));
    }
    if (found.empty())
        return Topology();
    t.nodes_ = std::move(found);
    t.pinnable_ = true;
    return t;
}

bool
Topology::parseSpec(const std::string &spec, Topology *out,
                    std::string *error)
{
    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return false;
    };
    // Trim surrounding whitespace — "  2x4\n" arrives from config
    // files and shell pipelines. *Inner* whitespace ("2 x 4") stays
    // malformed: the digit scan below rejects it.
    size_t begin = spec.find_first_not_of(" \t\r\n");
    std::string s =
        begin == std::string::npos
            ? std::string()
            : spec.substr(begin,
                          spec.find_last_not_of(" \t\r\n") - begin + 1);
    if (s.empty() || s == "flat") {
        *out = Topology();
        return true;
    }
    if (s == "auto") {
        *out = detect();
        return true;
    }
    size_t x = s.find('x');
    if (x == std::string::npos || x == 0 || x + 1 >= s.size())
        return fail("want 'flat', 'auto', or NxM (e.g. 2x4), got '" +
                    s + "'");
    for (size_t i = 0; i < s.size(); ++i) {
        if (i != x && !std::isdigit(static_cast<unsigned char>(s[i])))
            return fail("want 'flat', 'auto', or NxM (e.g. 2x4), got '" +
                        s + "'");
    }
    unsigned long nodes = std::strtoul(s.c_str(), nullptr, 10);
    unsigned long cores = std::strtoul(s.c_str() + x + 1, nullptr, 10);
    if (nodes == 0 || cores == 0)
        return fail("topology '" + s +
                    "' needs at least 1 node and 1 core per node");
    // Bound each factor before multiplying: strtoul saturates overlong
    // digit strings at ULONG_MAX, and the product of two in-range
    // unsigned longs can wrap right back under the limit.
    if (nodes > 4096 || cores > 4096 || nodes * cores > 4096)
        return fail("topology '" + s +
                    "' out of range (1 <= NxM <= 4096)");
    *out = synthetic(static_cast<unsigned>(nodes),
                     static_cast<unsigned>(cores));
    return true;
}

const std::vector<unsigned> &
Topology::cpusOfNode(unsigned node) const
{
    hdcps_check(node < nodes_.size(), "node %u out of range", node);
    return nodes_[node].cpus;
}

unsigned
Topology::coresOfNode(unsigned node) const
{
    hdcps_check(node < nodes_.size(), "node %u out of range", node);
    return nodes_[node].cores;
}

unsigned
Topology::nodeOfWorker(unsigned tid, unsigned numWorkers) const
{
    hdcps_check(numWorkers >= 1, "need at least one worker");
    hdcps_check(tid < numWorkers, "worker %u out of range (%u workers)",
                tid, numWorkers);
    // Contiguous even blocks: floor(tid * nodes / workers) assigns the
    // first ceil-sized blocks to the low nodes without ever leaving a
    // node empty while workers remain (for numWorkers >= numNodes).
    return static_cast<unsigned>(uint64_t(tid) * nodes_.size() /
                                 numWorkers);
}

bool
Topology::pinThreadToNode(unsigned node) const
{
    hdcps_check(node < nodes_.size(), "node %u out of range", node);
    const std::vector<unsigned> &cpus = nodes_[node].cpus;
    // Synthetic/flat nodes carry no CPU list: routing only, no affinity.
    return !cpus.empty() && setThreadCpus(cpus);
}

std::vector<unsigned>
threadCpus()
{
    std::vector<unsigned> cpus;
#ifdef __linux__
    cpu_set_t set;
    if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
        for (unsigned cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
#endif
    return cpus;
}

bool
setThreadCpus(const std::vector<unsigned> &cpus)
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    bool any = false;
    for (unsigned cpu : cpus) {
        if (cpu < CPU_SETSIZE) {
            CPU_SET(cpu, &set);
            any = true;
        }
    }
    return any &&
           pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
    (void)cpus;
    return false;
#endif
}

bool
pinThreadToCpu(unsigned cpu)
{
    return setThreadCpus({cpu});
}

std::vector<unsigned>
planSlotCpus(unsigned numSlots, unsigned skip)
{
    const std::vector<unsigned> cpus = threadCpus();
    if (cpus.size() < 2 || numSlots > cpus.size())
        return {};
    size_t first = 0;
#ifdef __linux__
    const int here = sched_getcpu();
    const auto it = std::find(cpus.begin(), cpus.end(), unsigned(here));
    if (here >= 0 && it != cpus.end())
        first = size_t(it - cpus.begin());
#endif
    std::vector<unsigned> plan(numSlots);
    for (unsigned tid = 0; tid < numSlots; ++tid)
        plan[tid] = cpus[(first + skip + tid) % cpus.size()];
    return plan;
}

std::string
Topology::describe() const
{
    if (synthetic_) {
        return std::to_string(nodes_.size()) + "x" +
               std::to_string(nodes_[0].cores) + " (synthetic)";
    }
    if (!pinnable_)
        return "flat";
    unsigned cpus = 0;
    for (const Node &node : nodes_)
        cpus += node.cores;
    return std::to_string(nodes_.size()) + " nodes, " +
           std::to_string(cpus) + " cpus (detected)";
}

} // namespace hdcps
