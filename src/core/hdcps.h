/**
 * @file
 * HD-CPS:SW — the paper's software scheduler (Sections III-A..III-C).
 *
 * Push-style distributed scheduler derived from RELD, with the three
 * software mechanisms of the paper stacked as configuration:
 *
 *  - **sRQ**: a per-core software receive queue decouples task transfer
 *    from processing; the per-core priority queue becomes private to
 *    its owner, so no PQ operation ever takes a lock.
 *  - **TDF**: the fraction of children sent to random remote cores.
 *    The threaded design routes at a fixed percentage (kHdCpsTdf for
 *    the TDF presets) and keeps the drift samples published every
 *    `sampleInterval` tasks (Algorithm 3) as a series; the paper's
 *    Algorithm 2 hill-climber (core/tdf.h) runs in the simulated HD-CPS
 *    only (DESIGN.md §6.1 says why).
 *  - **Bags**: children with equal priorities are bundled (Algorithm 1)
 *    either always ("AC") or selectively within the size window ("SC",
 *    the shipping configuration).
 *
 * The paper's named configurations map to the factories below:
 * sRQ, sRQ+TDF, sRQ+TDF+AC, sRQ+TDF+SC (== HD-CPS:SW).
 *
 * **Straggler resilience (sRQ reclamation).** The sRQ design's weak
 * spot is a stalled owner: remote enqueues keep landing in its receive
 * queue, and every task parked there (and in its private PQ) is
 * stranded until the owner runs again. The scheduler itself never
 * looks for stalls: a runtime monitor (the WorkerSupervisor behind
 * run() and the ExecutorService) detects one and calls quarantine()
 * and reclaimWorker(), which drain the stalled worker's sRQ, overflow
 * spill, active bag and private PQ into its live peers. While a
 * monitor may reclaim (setReclaimAfterMs > 0), every owner holds its
 * own reclaimLock around each access to its local queues, so the
 * drain is race-free; with it off (the default) the original
 * lock-free paths run unchanged. See DESIGN.md §10.
 */

#ifndef HDCPS_CORE_HDCPS_H_
#define HDCPS_CORE_HDCPS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/bag_policy.h"
#include "core/bag_pool.h"
#include "core/drift.h"
#include "core/local_pq.h"
#include "core/recv_queue.h"
#include "cps/scheduler.h"
#include "pq/locked_pq.h"
#include "support/compiler.h"
#include "support/rng.h"
#include "support/topology.h"

namespace hdcps {

/** HdCpsConfig::crossNodePct sentinel: tie the cross-node share of
 *  remote sends to the TDF in use, so a wider distribution also has a
 *  wider reach (see chooseDest). */
inline constexpr unsigned kCrossNodeFollowTdf = 255;

/** The TDF of the three TDF presets. On the 3-worker benchmark host
 *  5-10% is the best fixed TDF for run() solves and service jobs
 *  (EXPERIMENTS.md, "Threaded TDF oracle and the payoff controller");
 *  DESIGN.md §6.1 says why no controller adapts it. Above 0 on
 *  purpose: at 0% a solve stays on the worker that holds its seed. */
inline constexpr unsigned kHdCpsTdf = 5;

/** The sRQ-only design's distribution % (configSrq): with no TDF it
 *  sprays children like RELD, nearly all to random remote workers. A
 *  design that keeps more children local is named "-tdf". */
inline constexpr unsigned kSrqTdf = 98;

/** All HD-CPS:SW tunables (paper defaults). */
struct HdCpsConfig
{
    size_t rqCapacity = 256;        ///< sRQ entries per core
    unsigned tdf = kSrqTdf;         ///< % of children sent remote
    unsigned sampleInterval = 2000; ///< tasks per drift sample (Alg. 3)
    BagPolicy bags{BagMode::None, BagTransport::Pull, 3, 10};
    uint64_t seed = 1;
    /**
     * Worker placement across NUMA nodes. The default (one flat node)
     * keeps chooseDest's original single-draw routing and changes
     * nothing. With >= 2 nodes, workers split into contiguous per-node
     * groups (Topology::nodeOfWorker), each worker's buffers are
     * first-touched from a thread pinned to its node, and chooseDest
     * routes hierarchically (same-node first, cross-node as TDF
     * rises). Synthetic topologies give the same grouping/routing
     * without CPU affinity, so tests are host-independent.
     */
    Topology topology{};
    /**
     * Percentage of *remote* sends allowed to cross node boundaries
     * (multi-node topologies only). The default, kCrossNodeFollowTdf,
     * makes the effective share equal the current TDF, so a low TDF
     * keeps remote traffic mostly on-node. Fixed values 0..100 pin the
     * share for experiments.
     */
    unsigned crossNodePct = kCrossNodeFollowTdf;
};

/**
 * The HD-CPS software scheduler, parameterized over its local-PQ
 * backend (the owner-private per-worker priority queue behind the
 * sRQ/bag layer — see core/local_pq.h for the seam's contract and the
 * available backends). Use the `HdCpsScheduler` (exact DAry heap) and
 * `HdCpsMqScheduler` (relaxed sequential MultiQueue) aliases below.
 */
template <template <typename, typename> class LocalPqT>
class BasicHdCpsScheduler : public Scheduler
{
  public:
    BasicHdCpsScheduler(unsigned numWorkers,
                        const HdCpsConfig &config = {});
    ~BasicHdCpsScheduler() override;

    void push(unsigned tid, const Task &task) override;
    void pushBatch(unsigned tid, const Task *tasks, size_t count) override;
    bool tryPop(unsigned tid, Task &out) override;
    const char *name() const override { return name_.c_str(); }

    /** Tasks visible in the cross-thread-safe buffers (sRQs + overflow
     *  queues) plus each owner's self-published private-PQ estimate
     *  (may lag by one operation). See Scheduler. */
    size_t sizeApprox() const override;

    /** Arm the owner-side guard (`ms` > 0: a monitor may call
     *  reclaimWorker) or disarm it (0, the default). Must not race
     *  with push/tryPop. */
    void setReclaimAfterMs(uint64_t ms) override;

    /** Pin the calling worker thread to its slot's NUMA node (no-op on
     *  flat/synthetic topologies) and count the bind, so a healed
     *  slot's thread re-pins to its node group when it resumes. See
     *  Scheduler::onWorkerStart. */
    void onWorkerStart(unsigned tid) override;

    /** Mask worker `tid` out of chooseDest so no new remote work routes
     *  toward its sRQ (supervision; see Scheduler::quarantine). */
    void quarantine(unsigned tid) override;

    /** Lift a quarantine(): `tid` becomes a routing destination again. */
    void reinstate(unsigned tid) override;

    /**
     * Monitor-initiated drain of worker `victim`'s buffered tasks —
     * sRQ, overflow, active bag, private PQ — redistributed into the
     * *other* workers' sRQs (overflow on full), starting the
     * round-robin at `reclaimer` (same-node peers first on a
     * multi-node topology). It pops the victim's owner-private pq and
     * activeBag under the victim's reclaimLock, so it is safe from any
     * thread while the victim runs only if the guard is armed
     * (setReclaimAfterMs > 0); disarmed, the victim's thread must be
     * out of push/tryPop. Returns tasks moved.
     */
    size_t reclaimWorker(unsigned reclaimer, unsigned victim) override;

    /** True while `tid` is masked out of chooseDest (tests). */
    bool isQuarantined(unsigned tid) const;

    /** True while the owner-side guard is armed (tests). */
    bool reclaimGuarded() const
    {
        return guarded_.load(std::memory_order_relaxed);
    }

    /** Paper configuration factories. */
    static HdCpsConfig configSrq();
    static HdCpsConfig configSrqTdf();
    static HdCpsConfig configSrqTdfAc();
    static HdCpsConfig configSw(); ///< sRQ + TDF + SC == HD-CPS:SW

    /** The TDF percentage routing uses (HdCpsConfig::tdf). */
    unsigned currentTdf() const { return config_.tdf; }

    /** Drift tracker (exposed for tests and the figure harnesses). */
    const DriftTracker &driftTracker() const { return drift_; }

    /** Average of the drift samples worker 0 took (Eq. 1 series). */
    double averageDrift() const;

    uint64_t bagsCreated() const
    {
        return sumStat(&WorkerState::Stats::bagsCreated);
    }

    uint64_t tasksInBags() const
    {
        return sumStat(&WorkerState::Stats::tasksInBags);
    }

    uint64_t remoteEnqueues() const
    {
        return sumStat(&WorkerState::Stats::remoteEnqueues);
    }

    uint64_t localEnqueues() const
    {
        return sumStat(&WorkerState::Stats::localEnqueues);
    }

    /** sRQ overflow fallbacks (diagnostic; should be rare). */
    uint64_t overflowPushes() const
    {
        return sumStat(&WorkerState::Stats::overflowPushes);
    }

    /** Tasks reclaimWorker moved out of stalled workers' queues. */
    uint64_t reclaimedTasks() const
    {
        return reclaimedTasks_.load(std::memory_order_relaxed);
    }

    /** The NUMA node worker `tid`'s buffers live on (0 when flat). */
    unsigned nodeOfWorker(unsigned tid) const;

    /** Times a thread entered worker `tid`'s slot via onWorkerStart —
     *  1 after a normal start, +1 per heal of the slot (tests). */
    uint64_t workerBinds(unsigned tid) const;

    /** Remote sends routed across node boundaries (multi-node only). */
    uint64_t crossNodeEnqueues() const
    {
        return sumStat(&WorkerState::Stats::crossNodeEnqueues);
    }

    /** Remote sends kept within the sender's node (multi-node only). */
    uint64_t sameNodeEnqueues() const
    {
        return sumStat(&WorkerState::Stats::sameNodeEnqueues);
    }

    /** sRQ claims made by remote sends. Every remote send claims one
     *  slot of its destination's sRQ (or spills), so this equals
     *  remoteEnqueues(). */
    uint64_t srqBatchFlushes() const { return remoteEnqueues(); }

    /** Bag envelopes served from the pool instead of the allocator. */
    uint64_t poolRecycled() const { return pool_.recycled(); }

    /** Bag envelopes that did hit the allocator (pool misses). */
    uint64_t poolAllocations() const { return pool_.allocations(); }

    const HdCpsConfig &config() const { return config_; }

  private:
    /** A PQ entry is either a single task or bag metadata.
     *  Invariant: when bag != nullptr, task is a metadata stub with
     *  task.priority == bag->priority and task.node == 0 (so ordering
     *  never chases the bag pointer) — build entries with makeEntry.
     *  32 bytes (a 24-byte Task and a pointer); the exact backend keeps
     *  it in its slab and moves only a 16-byte key through the heap. */
    struct PqEntry
    {
        Task task;       ///< the task, or the bag's metadata stub
        Bag *bag = nullptr;
    };

    static PqEntry
    makeEntry(const Task &task, Bag *bag)
    {
        return PqEntry{task, bag};
    }

    struct PqEntryOrder
    {
        /** The entry's (priority, node) pair: TaskOrder's, from which
         *  DAryLocalPq packs its 128-bit heap key. */
        static OrderKey
        key(const PqEntry &e)
        {
            return TaskOrder::key(e.task);
        }

        bool
        operator()(const PqEntry &a, const PqEntry &b) const
        {
            // The same (priority, node) order as key(), for the
            // backends that compare whole entries (RelaxedMqLocalPq's
            // DAryHeaps). Branch-free: bitwise &/| instead of
            // short-circuit &&/|| so the compiler emits setcc/and/or
            // instead of data-dependent branches that mispredict ~half
            // the time on randomly ordered priorities. The full 64-bit
            // priority is compared: SSSP/A* tentative distances exceed
            // 32 bits on large-weight graphs, so a (priority << 32) |
            // node packed key would truncate and silently invert heap
            // order. An earlier 96-bit packed key stored in the entry
            // measured slower than this form, because alignof(__int128)
            // == 16 grew every heap element to 48 bytes; DAryLocalPq
            // avoids that by keeping only the 16-byte key in its heap
            // and the entry in a side slab.
            return static_cast<bool>(
                uint32_t(a.task.priority < b.task.priority) |
                (uint32_t(a.task.priority == b.task.priority) &
                 uint32_t(a.task.node < b.task.node)));
        }
    };

    /** The pluggable owner-private backend, bound to the entry type. */
    using LocalPq = LocalPqT<PqEntry, PqEntryOrder>;

    /** What travels through the receive queue. */
    struct Envelope
    {
        Task task;
        Bag *bag = nullptr;
    };

    struct alignas(cacheLineBytes) WorkerState
    {
        LocalPq pq; ///< private to the owner (see core/local_pq.h)
        std::unique_ptr<ReceiveQueue<Envelope>> rq;
        LockedTaskPq overflow; ///< spill path when the sRQ is full
        std::vector<Task> activeBag; ///< tasks of the bag being drained
        Rng rng;
        uint64_t popsSinceSample = 0;

        /** This worker's NUMA node (Topology::nodeOfWorker, fixed at
         *  construction) and its routing peer lists: every non-self
         *  worker, split by node. Read-only after the ctor. */
        unsigned node = 0;
        std::vector<unsigned> sameNodePeers;
        std::vector<unsigned> crossNodePeers;
        /** Entries into this slot via onWorkerStart (startup + one per
         *  heal); written by the slot's own thread. */
        std::atomic<uint64_t> binds{0};
        /** High-water marks of stats.{cross,same}NodeEnqueues already
         *  folded into the metrics registry (lazy sync in sampleNow).
         *  Owned by the slot's acting thread, like the stats. */
        uint64_t syncedCrossNodeEnqueues = 0;
        uint64_t syncedSameNodeEnqueues = 0;

        /**
         * Reclamation lock guarding pq/activeBag and the consume side
         * of rq/overflow. With the guard off nobody touches it; with
         * it on, the owner holds it across every local queue access and
         * reclaimWorker holds it while it drains this worker. Nobody
         * holding it takes another reclaimLock, so it cannot deadlock.
         */
        std::atomic<uint32_t> reclaimLock{0};
        /** Owner-published |pq| + |activeBag| estimate: lets other
         *  threads (sizeApprox) see private buffered work without
         *  racing it. */
        std::atomic<size_t> localBuffered{0};
        /** Supervision flag: nonzero while chooseDest must avoid this
         *  worker (wedged/dead, backlog being reclaimed). */
        std::atomic<uint32_t> quarantined{0};

        /** Reused pushBatch buffer for planRanges (no per-batch copy). */
        std::vector<Task> planScratch;
        /** Reused drainIncoming buffer feeding LocalPq::pushBulk. */
        std::vector<PqEntry> drainScratch;

        /**
         * Hot-path statistics, distributed per worker exactly like the
         * executor's created/completed counters: the acting worker is
         * the only writer, so increments are single-writer load+store
         * pairs (no RMW — a shared-counter `lock xadd` per task is one
         * of the coordination costs this design exists to remove), and
         * the public accessors sum across workers with relaxed loads.
         */
        struct Stats
        {
            std::atomic<uint64_t> localEnqueues{0};
            std::atomic<uint64_t> remoteEnqueues{0};
            std::atomic<uint64_t> overflowPushes{0};
            std::atomic<uint64_t> bagsCreated{0};
            std::atomic<uint64_t> tasksInBags{0};
            std::atomic<uint64_t> crossNodeEnqueues{0};
            std::atomic<uint64_t> sameNodeEnqueues{0};
        };
        Stats stats;
    };

    /** Single-writer increment for the distributed counters above. */
    static void
    bumpCounter(std::atomic<uint64_t> &counter, uint64_t n = 1)
    {
        counter.store(counter.load(std::memory_order_relaxed) + n,
                      std::memory_order_relaxed);
    }

    /** Sum one distributed per-worker counter (relaxed). */
    uint64_t
    sumStat(std::atomic<uint64_t> WorkerState::Stats::*member) const
    {
        uint64_t total = 0;
        for (const auto &w : workers_)
            total += (w->stats.*member).load(std::memory_order_relaxed);
        return total;
    }

    /** First-touch allocation of one worker's buffers (sRQ ring, bag
     *  pool prewarm). Called from a thread pinned to the worker's node
     *  when the topology is multi-node and pinnable; inline in the ctor
     *  otherwise. */
    void placeWorkerBuffers(unsigned tid);
    unsigned chooseDest(unsigned tid, unsigned tdf);
    /** Local enqueue straight into the private PQ (caller holds the
     *  owner's reclaimLock when the guard is armed). */
    void enqueueLocal(unsigned tid, WorkerState &w,
                      const Envelope &envelope);
    /** Remote enqueue: one tryPush into dest's sRQ, or a spill to its
     *  overflow queue when the ring is full. Counts against `from`,
     *  the acting thread (see MetricsRegistry attribution contract). */
    void sendRemote(unsigned from, unsigned dest,
                    const Envelope &envelope);
    void drainIncoming(WorkerState &w);
    /** Per-pop sampling gate, inlined so the common (non-sampling) pop
     *  pays one increment and compare, not an out-of-line call. */
    void
    maybeSample(unsigned tid, WorkerState &w, Priority poppedPriority)
    {
        if (++w.popsSinceSample < config_.sampleInterval)
            return;
        w.popsSinceSample = 0;
        sampleNow(tid, poppedPriority);
    }
    /** Algorithm 3 report at tid's sample boundary; worker 0's also
     *  closes a drift sample. */
    void sampleNow(unsigned tid, Priority poppedPriority);
    /** The original tryPop body: activeBag, drain, private PQ. Caller
     *  holds w.reclaimLock when the guard is armed. */
    bool popLocal(unsigned tid, WorkerState &w, Task &out);

    HdCpsConfig config_;
    std::string name_;
    /** True when the topology has >= 2 nodes: chooseDest routes via the
     *  per-worker peer lists instead of the flat single draw. */
    bool hierarchical_ = false;
    std::vector<std::unique_ptr<WorkerState>> workers_;
    DriftTracker drift_;
    DriftSeries driftSeries_; ///< written by worker 0 only
    /** Number of currently quarantined workers: one relaxed load gates
     *  the chooseDest mask check, so the routing hot path is unchanged
     *  while supervision is idle (the overwhelmingly common case). */
    std::atomic<unsigned> quarantineCount_{0};
    /** The owner-side guard (setReclaimAfterMs): true while a monitor
     *  may call reclaimWorker. */
    std::atomic<bool> guarded_{false};
    /** Shared atomic: it only moves on the rare reclaim path. */
    std::atomic<uint64_t> reclaimedTasks_{0};
    BagPool pool_;
};

/** HD-CPS:SW as the paper ships it: exact 4-ary heap local PQ. */
using HdCpsScheduler = BasicHdCpsScheduler<DAryLocalPq>;
/** HD-CPS over a relaxed MultiQueue local PQ (design "hdcps-mq"). */
using HdCpsMqScheduler = BasicHdCpsScheduler<RelaxedMqLocalPq>;

// Both backends are explicitly instantiated in hdcps.cc.
extern template class BasicHdCpsScheduler<DAryLocalPq>;
extern template class BasicHdCpsScheduler<RelaxedMqLocalPq>;

} // namespace hdcps

#endif // HDCPS_CORE_HDCPS_H_
