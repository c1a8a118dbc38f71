/**
 * @file
 * Machine topology: NUMA nodes and their CPUs, for worker placement.
 *
 * HD-CPS's chooseDest treats every remote core as equidistant, but on
 * multi-socket hosts a cross-node sRQ push costs several times a
 * same-node one — the software analogue of the hop-distance cost the
 * paper's hardware NoC model charges. This class gives the runtime the
 * three facts it needs to exploit that gap:
 *
 *  - how many NUMA nodes the machine has and which CPUs belong to each
 *    (`detect()`, read from sysfs);
 *  - a deterministic worker→node assignment (`nodeOfWorker`): workers
 *    are split into contiguous blocks, one block per node, so worker
 *    groups match how the runtime numbers threads;
 *  - an affinity primitive (`pinThreadToNode`) so a worker thread — and
 *    the construction-time placement threads that first-touch its
 *    buffers — runs on the node its queues live on.
 *
 * Next to it sit the per-thread primitives the runtimes place their
 * worker slots with, one CPU per slot (DESIGN.md §16.5): read and set
 * the calling thread's CPU mask (`threadCpus`, `setThreadCpus`), pin it
 * to one CPU (`pinThreadToCpu`), and plan a CPU per slot from the
 * starting thread's mask (`planSlotCpus`).
 *
 * **Synthetic topologies.** `synthetic(nodes, coresPerNode)` (CLI spec
 * "NxM") describes a machine that need not exist: it partitions workers
 * into node groups and drives the hierarchical routing exactly like a
 * detected topology, but carries no CPU lists, so `pinThreadToNode` is
 * a no-op. Every topology test runs on a synthetic spec — deterministic
 * on single-node CI machines, no real NUMA hardware required.
 *
 * Detection uses sysfs + pthread affinity only (no libnuma), so the
 * fallback path — no /sys/devices/system/node, containers, non-Linux —
 * degrades to a single pinless node, which disables the hierarchical
 * paths and leaves the flat design untouched.
 */

#ifndef HDCPS_SUPPORT_TOPOLOGY_H_
#define HDCPS_SUPPORT_TOPOLOGY_H_

#include <string>
#include <vector>

namespace hdcps {

/** NUMA node/CPU layout (value type; default = one pinless node). */
class Topology
{
  public:
    /** Flat topology: a single node, unknown CPUs, no pinning. */
    Topology();

    /**
     * A made-up `nodes` x `coresPerNode` machine for tests and CLI
     * overrides: real node groups and routing behavior, but no CPU
     * lists, so pinning is a no-op and results are host-independent.
     */
    static Topology synthetic(unsigned nodes, unsigned coresPerNode);

    /**
     * The host's layout from /sys/devices/system/node/node<k>/cpulist.
     * Nodes without CPUs (CXL/HBM memory-only nodes) are skipped. Any
     * failure — no sysfs, unparsable files — returns the flat default.
     */
    static Topology detect();

    /**
     * Parse a CLI topology spec: "flat" (or "") = single node,
     * "auto" = detect(), "NxM" = synthetic(N, M). Returns false and
     * sets *error (if non-null) on a malformed spec; *out is written
     * only on success.
     */
    static bool parseSpec(const std::string &spec, Topology *out,
                          std::string *error);

    unsigned numNodes() const
    {
        return static_cast<unsigned>(nodes_.size());
    }

    /** CPUs of `node` (empty for synthetic/flat topologies). */
    const std::vector<unsigned> &cpusOfNode(unsigned node) const;

    /** Logical cores on `node` (CPU-list size, or the synthetic
     *  per-node core count). Advisory — worker counts may exceed it. */
    unsigned coresOfNode(unsigned node) const;

    /** True when at least one node carries a real CPU list (detected
     *  topologies), i.e. pinThreadToNode can take effect. */
    bool canPin() const { return pinnable_; }

    /**
     * Deterministic worker→node assignment: `numWorkers` workers are
     * split into contiguous blocks, one per node, sized as evenly as
     * possible (e.g. 8 workers on 2 nodes: tids 0-3 → node 0, 4-7 →
     * node 1; 3 workers on 2 nodes: 0,1 → node 0, 2 → node 1).
     * Requires tid < numWorkers and numWorkers >= 1.
     */
    unsigned nodeOfWorker(unsigned tid, unsigned numWorkers) const;

    /**
     * Restrict the *calling* thread to `node`'s CPUs. Returns true on
     * success; false — with no side effect — when the node carries no
     * CPU list (synthetic/flat) or the affinity syscall fails.
     */
    bool pinThreadToNode(unsigned node) const;

    /** Human-readable summary, e.g. "2x4 (synthetic)" or
     *  "2 nodes, 64 cpus (detected)" or "flat". */
    std::string describe() const;

  private:
    struct Node
    {
        std::vector<unsigned> cpus; ///< empty for synthetic nodes
        unsigned cores = 0;         ///< |cpus|, or the synthetic count
    };

    std::vector<Node> nodes_;
    bool pinnable_ = false;
    bool synthetic_ = false;
};

/** The calling thread's CPU mask as ascending CPU ids; empty where
 *  affinity is unsupported or the call fails. */
std::vector<unsigned> threadCpus();

/**
 * Restrict the calling thread to `cpus` (CPU ids, as threadCpus
 * returns them). Returns true on success; false — with no side effect
 * — when no id is usable or the affinity call fails.
 */
bool setThreadCpus(const std::vector<unsigned> &cpus);

/** Restrict the calling thread to the one CPU `cpu`: one worker per
 *  core, as the paper's per-core scheduler assumes. Same contract as
 *  setThreadCpus. */
bool pinThreadToCpu(unsigned cpu);

/**
 * One CPU per worker slot for a runtime of `numSlots` slots that the
 * calling thread starts: the CPUs of the caller's mask in ascending
 * order, starting `skip` CPUs after the one the caller runs on and
 * wrapping around, so slot `tid` gets element `tid`. run() passes 0
 * (the caller is worker 0 and keeps its CPU); the service passes 1
 * (its owner keeps a CPU to itself while the slots fit beside it).
 * Empty — pin nothing — when the slots outnumber the mask's CPUs, when
 * the mask holds one CPU (for instance inside a pinned worker), or
 * where affinity is unsupported.
 */
std::vector<unsigned> planSlotCpus(unsigned numSlots, unsigned skip);

} // namespace hdcps

#endif // HDCPS_SUPPORT_TOPOLOGY_H_
