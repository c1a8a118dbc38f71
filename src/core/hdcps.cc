#include "core/hdcps.h"

#include <algorithm>
#include <thread>

#include "support/timer.h"

namespace hdcps {

namespace {

/**
 * The per-worker reclamation lock: a tiny spinlock. Owners block-spin
 * (their critical sections only contend with a reclaimer mid-drain,
 * which is short and rare); reclaimers must use the try variant so the
 * only blocking acquire anyone performs is on their *own* lock —
 * cross-worker acquisition never waits, hence never deadlocks.
 */
inline bool
tryLockReclaim(std::atomic<uint32_t> &lock)
{
    uint32_t expected = 0;
    return lock.compare_exchange_strong(expected, 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

inline void
lockReclaim(std::atomic<uint32_t> &lock)
{
    unsigned spins = 0;
    while (!tryLockReclaim(lock)) {
        if (++spins > 64) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

inline void
unlockReclaim(std::atomic<uint32_t> &lock)
{
    lock.store(0, std::memory_order_release);
}

/** Bag envelopes pre-placed per worker during buffer placement —
 *  enough to cover the in-flight bag churn before the first consumer
 *  returns start refilling the free list. */
constexpr size_t kBagPoolPrewarm = 4;

/** Internal heaps per worker for the relaxed local-PQ backend
 *  (RelaxedMqLocalPq ways; ignored by the exact DAry backend). */
constexpr unsigned kLocalPqWays = 4;

} // namespace

template <template <typename, typename> class LocalPqT>
BasicHdCpsScheduler<LocalPqT>::BasicHdCpsScheduler(unsigned numWorkers,
                                                   const HdCpsConfig &config)
    : Scheduler(numWorkers), config_(config), drift_(numWorkers),
      pool_(numWorkers)
{
    hdcps_check(numWorkers >= 1, "need at least one worker");
    hdcps_check(config.sampleInterval >= 1, "sample interval must be >= 1");
    hdcps_check(config.tdf <= 100, "tdf is a percentage");
    hdcps_check(config.crossNodePct <= 100 ||
                    config.crossNodePct == kCrossNodeFollowTdf,
                "crossNodePct is a percentage (or kCrossNodeFollowTdf)");

    // The design-name stem comes from the local backend ("hdcps-srq"
    // for the exact heap, "hdcps-mq" for the relaxed MultiQueue); the
    // mechanism suffixes stack on top as before.
    name_ = LocalPq::kBaseName;
    if (config_.tdf < kSrqTdf)
        name_ += "-tdf";
    if (config_.bags.mode == BagMode::Always)
        name_ += "-ac";
    else if (config_.bags.mode == BagMode::Selective)
        name_ += "-sc";

    // Hierarchical routing needs at least two node groups to tell
    // apart; a flat (or single-node-detected) topology keeps the
    // original single-draw chooseDest byte for byte.
    hierarchical_ =
        config_.topology.numNodes() >= 2 && numWorkers >= 2;

    workers_.reserve(numWorkers);
    const uint64_t now = nowNs();
    for (unsigned i = 0; i < numWorkers; ++i) {
        auto w = std::make_unique<WorkerState>();
        // Worker index mixed *into* the seed word (not added to the
        // mixed output) so adjacent workers never get correlated
        // xoshiro streams — same fix as the MultiQueue's.
        w->rng.reseed(
            mix64(config.seed ^ (uint64_t(i) * 0x9e3779b97f4a7c15ULL)));
        w->pq.configure(
            kLocalPqWays,
            mix64((config.seed + 0x5851f42d) ^
                  (uint64_t(i) * 0x9e3779b97f4a7c15ULL)));
        w->heartbeatNs.store(now, std::memory_order_relaxed);
        w->node = hierarchical_
                      ? config_.topology.nodeOfWorker(i, numWorkers)
                      : 0;
        workers_.push_back(std::move(w));
    }
    if (hierarchical_) {
        for (unsigned i = 0; i < numWorkers; ++i) {
            WorkerState &w = *workers_[i];
            for (unsigned p = 0; p < numWorkers; ++p) {
                if (p == i)
                    continue;
                (workers_[p]->node == w.node ? w.sameNodePeers
                                             : w.crossNodePeers)
                    .push_back(p);
            }
        }
    }

    // Buffer placement. The kernel's first-touch policy puts a page on
    // the node of the thread that first writes it, so on a pinnable
    // multi-node topology each worker's sRQ ring and bag pool are
    // allocated+touched by a short-lived thread pinned to that worker's
    // node. This happens here, before any traffic exists, because
    // swapping buffers later (e.g. in onWorkerStart) would race
    // concurrent producers already delivering into the ring. Synthetic
    // and flat topologies allocate inline — same buffers, no threads.
    if (hierarchical_ && config_.topology.canPin()) {
        std::vector<std::thread> placers;
        placers.reserve(numWorkers);
        for (unsigned i = 0; i < numWorkers; ++i) {
            placers.emplace_back([this, i] {
                config_.topology.pinThreadToNode(workers_[i]->node);
                placeWorkerBuffers(i);
            });
        }
        for (std::thread &t : placers)
            t.join();
    } else {
        for (unsigned i = 0; i < numWorkers; ++i)
            placeWorkerBuffers(i);
    }
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::placeWorkerBuffers(unsigned tid)
{
    // Everything here allocates *and writes* on the calling thread —
    // the ring constructor initializes every slot's sequence number — so
    // first-touch placement follows the caller's pinning.
    WorkerState &w = *workers_[tid];
    w.rq = std::make_unique<ReceiveQueue<Envelope>>(config_.rqCapacity);
    // Bag envelopes follow the same first-touch policy as the ring:
    // prewarm a handful of pool nodes on the owning thread so the
    // envelopes this worker forms bags from start out homed on its
    // node instead of wherever the first demand miss ran.
    if (config_.bags.mode != BagMode::None)
        pool_.placeSlot(tid, kBagPoolPrewarm);
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::onWorkerStart(unsigned tid)
{
    WorkerState &w = *workers_[tid];
    // Best-effort: synthetic/flat topologies carry no CPU lists, so the
    // pin is a no-op and tests stay host-independent. Called by the
    // slot's own thread — at startup and again by every healed
    // replacement, which is exactly how a replacement rejoins its
    // slot's node group.
    if (hierarchical_ && config_.topology.canPin())
        config_.topology.pinThreadToNode(w.node);
    w.binds.fetch_add(1, std::memory_order_relaxed);
}

template <template <typename, typename> class LocalPqT>
unsigned
BasicHdCpsScheduler<LocalPqT>::nodeOfWorker(unsigned tid) const
{
    return workers_[tid]->node;
}

template <template <typename, typename> class LocalPqT>
uint64_t
BasicHdCpsScheduler<LocalPqT>::workerBinds(unsigned tid) const
{
    return workers_[tid]->binds.load(std::memory_order_relaxed);
}

template <template <typename, typename> class LocalPqT>
BasicHdCpsScheduler<LocalPqT>::~BasicHdCpsScheduler()
{
    // Return any bags still in flight to the pool (runs cut short by
    // tests); the pool frees the backing nodes when it destructs. The
    // drain uses drainPop, not tryPop: with the srq.pop.fail drill
    // still armed, tryPop reports empty while entries remain, and a
    // destructor that believes it would strand their pooled bags past
    // the pool's release-before-destruction contract.
    for (unsigned tid = 0; tid < numWorkers(); ++tid) {
        WorkerState &w = *workers_[tid];
        Envelope envelope;
        while (w.rq->drainPop(envelope)) {
            if (envelope.bag)
                pool_.release(tid, envelope.bag);
        }
        while (!w.pq.empty()) {
            PqEntry entry = w.pq.pop();
            if (entry.bag)
                pool_.release(tid, entry.bag);
        }
    }
}

template <template <typename, typename> class LocalPqT>
HdCpsConfig
BasicHdCpsScheduler<LocalPqT>::configSrq()
{
    HdCpsConfig config;
    config.bags.mode = BagMode::None;
    return config;
}

template <template <typename, typename> class LocalPqT>
HdCpsConfig
BasicHdCpsScheduler<LocalPqT>::configSrqTdf()
{
    HdCpsConfig config;
    config.tdf = kHdCpsTdf;
    config.bags.mode = BagMode::None;
    return config;
}

template <template <typename, typename> class LocalPqT>
HdCpsConfig
BasicHdCpsScheduler<LocalPqT>::configSrqTdfAc()
{
    HdCpsConfig config;
    config.tdf = kHdCpsTdf;
    config.bags.mode = BagMode::Always;
    return config;
}

template <template <typename, typename> class LocalPqT>
HdCpsConfig
BasicHdCpsScheduler<LocalPqT>::configSw()
{
    HdCpsConfig config;
    config.tdf = kHdCpsTdf;
    config.bags.mode = BagMode::Selective;
    return config;
}

template <template <typename, typename> class LocalPqT>
double
BasicHdCpsScheduler<LocalPqT>::averageDrift() const
{
    return driftSeries_.average();
}

template <template <typename, typename> class LocalPqT>
size_t
BasicHdCpsScheduler<LocalPqT>::sizeApprox() const
{
    // Only race-free state is read: sRQ pointers are atomics, the
    // overflow queue locks, and the private PQ + active bag are covered
    // by the owner's self-published localBuffered estimate (which can
    // lag by one operation). Good enough for the watchdog's stall dump
    // and the reclaimers' is-anything-stranded pre-check.
    size_t total = 0;
    for (const auto &w : workers_) {
        total += w->rq->sizeApprox() + w->overflow.size() +
                 w->localBuffered.load(std::memory_order_relaxed);
    }
    return total;
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::setReclaimAfterMs(uint64_t ms)
{
    reclaimAfterNs_.store(ms * 1000000, std::memory_order_relaxed);
    // Fresh heartbeats: the time a scheduler sat configured-but-idle
    // before the run must not count toward anyone's staleness.
    const uint64_t now = nowNs();
    for (auto &w : workers_) {
        w->heartbeatNs.store(now, std::memory_order_relaxed);
        w->reclaimBackoffNs = 0;
        w->reclaimBackoffUntilNs = 0;
    }
}

template <template <typename, typename> class LocalPqT>
uint64_t
BasicHdCpsScheduler<LocalPqT>::heartbeatPops(unsigned tid) const
{
    return workers_[tid]->heartbeatPops.load(std::memory_order_relaxed);
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::quarantine(unsigned tid)
{
    uint32_t was =
        workers_[tid]->quarantined.exchange(1, std::memory_order_relaxed);
    if (was == 0)
        quarantineCount_.fetch_add(1, std::memory_order_relaxed);
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::reinstate(unsigned tid)
{
    uint32_t was =
        workers_[tid]->quarantined.exchange(0, std::memory_order_relaxed);
    if (was != 0)
        quarantineCount_.fetch_sub(1, std::memory_order_relaxed);
}

template <template <typename, typename> class LocalPqT>
bool
BasicHdCpsScheduler<LocalPqT>::isQuarantined(unsigned tid) const
{
    return workers_[tid]->quarantined.load(std::memory_order_relaxed) !=
           0;
}

template <template <typename, typename> class LocalPqT>
size_t
BasicHdCpsScheduler<LocalPqT>::reclaimWorker(unsigned reclaimer,
                                             unsigned victim)
{
    const unsigned n = numWorkers();
    if (n <= 1)
        return 0;
    WorkerState &v = *workers_[victim];
    // Serialize against opportunistic peer reclaimers (who try-lock and
    // give up) and against a concurrent supervisor call. The victim's
    // own thread is out of push/tryPop by contract, so a blocking
    // acquire here only ever waits for a short peer drain to finish.
    lockReclaim(v.reclaimLock);

    // Everything the victim buffered, re-enveloped for redistribution.
    std::vector<Envelope> moved;
    Envelope envelope;
    while (v.rq->drainPop(envelope))
        moved.push_back(envelope);
    Task task;
    while (v.overflow.tryPop(task))
        moved.push_back(Envelope{task, nullptr});
    for (const Task &t : v.activeBag)
        moved.push_back(Envelope{t, nullptr});
    v.activeBag.clear();
    while (!v.pq.empty()) {
        PqEntry entry = v.pq.pop();
        moved.push_back(Envelope{entry.task, entry.bag});
    }
    v.localBuffered.store(0, std::memory_order_relaxed);
    unlockReclaim(v.reclaimLock);

    // Redistribute round-robin into the *other* live workers' sRQs —
    // multi-producer-safe from any thread — spilling to their locked
    // overflow queues when full. Never into a private PQ: the peers'
    // owner threads are running and their PQs are theirs alone.
    //
    // With a multi-node topology the victim's *same-node* peers are
    // preferred: its tasks carry priorities from that node's region of
    // the problem, and keeping them there preserves the locality the
    // hierarchical chooseDest built up. Cross-node peers only take over
    // when every same-node peer is quarantined too.
    size_t tasksMoved = 0;
    std::vector<unsigned> flatOrder;
    if (!hierarchical_) {
        flatOrder.reserve(n - 1);
        for (unsigned k = 0; k < n; ++k) {
            unsigned candidate = (reclaimer + k) % n;
            if (candidate != victim)
                flatOrder.push_back(candidate);
        }
    }
    const std::vector<unsigned> &primary =
        hierarchical_ ? v.sameNodePeers : flatOrder;
    const std::vector<unsigned> &secondary =
        hierarchical_ ? v.crossNodePeers : flatOrder;
    size_t primaryCursor = 0;
    size_t secondaryCursor = 0;
    auto pickLive = [this](const std::vector<unsigned> &cands,
                           size_t *cursor) -> unsigned {
        for (size_t t = 0; t < cands.size(); ++t) {
            unsigned c = cands[(*cursor + t) % cands.size()];
            if (workers_[c]->quarantined.load(
                    std::memory_order_relaxed) == 0) {
                *cursor = (*cursor + t + 1) % cands.size();
                return c;
            }
        }
        return numWorkers();
    };
    for (const Envelope &e : moved) {
        unsigned dest = pickLive(primary, &primaryCursor);
        if (dest == n && hierarchical_)
            dest = pickLive(secondary, &secondaryCursor);
        if (dest == n) {
            // Every peer is quarantined too (pathological): park the
            // tasks back in the victim's overflow so nothing is lost —
            // the replacement worker drains it.
            if (e.bag) {
                for (const Task &t : e.bag->tasks)
                    v.overflow.push(t);
                pool_.release(victim, e.bag);
            } else {
                v.overflow.push(e.task);
            }
            continue;
        }
        tasksMoved += e.bag ? e.bag->tasks.size() : size_t(1);
        if (!workers_[dest]->rq->tryPush(e)) {
            if (e.bag) {
                for (const Task &t : e.bag->tasks)
                    workers_[dest]->overflow.push(t);
                pool_.release(victim, e.bag);
            } else {
                workers_[dest]->overflow.push(e.task);
            }
        }
    }
    reclaimedTasks_.fetch_add(tasksMoved, std::memory_order_relaxed);
    return tasksMoved;
}

template <template <typename, typename> class LocalPqT>
unsigned
BasicHdCpsScheduler<LocalPqT>::chooseDest(unsigned tid, unsigned tdf)
{
    WorkerState &w = *workers_[tid];
    const unsigned n = numWorkers();
    if (n == 1)
        return tid;
    if (!hierarchical_) {
        // One draw decides both: the bound factorizes as 100 * (n - 1),
        // so r % 100 (the TDF roll) and r / 100 (the remote pick,
        // uniform over the other workers) are independent uniforms —
        // half the generator cost of two separate draws on the hottest
        // routing path.
        const uint64_t r = w.rng.below(uint64_t(100) * (n - 1));
        if (static_cast<unsigned>(r % 100) >= tdf)
            return tid;
        unsigned dest = static_cast<unsigned>(r / 100);
        if (dest >= tid)
            ++dest;
        // Supervision mask: while any worker is quarantined (rare — one
        // relaxed load says so), remote picks that land on it fall back
        // to self-enqueue, so no new work routes toward queues being
        // reclaimed. Re-rolling instead would bias the distribution
        // toward re-checking; self is always safe and the quarantine is
        // short.
        if (__builtin_expect(
                quarantineCount_.load(std::memory_order_relaxed) != 0,
                0) &&
            workers_[dest]->quarantined.load(std::memory_order_relaxed) !=
                0)
            return tid;
        return dest;
    }
    // Hierarchical (multi-node) routing: the flat single draw splits in
    // two levels. The same factorized-draw trick supplies both rolls —
    // r % 100 is the TDF roll exactly as before, r / 100 decides
    // whether this remote send may cross node boundaries. The effective
    // cross-node share either tracks the TDF (the default
    // kCrossNodeFollowTdf: a low TDF keeps remote traffic mostly
    // on-node, a high one widens its reach along with its rate) or is
    // pinned by config for experiments. The destination itself is a
    // third draw, uniform within the chosen peer group.
    const uint64_t r = w.rng.below(uint64_t(100) * 100);
    if (static_cast<unsigned>(r % 100) >= tdf)
        return tid;
    const unsigned crossPct = config_.crossNodePct == kCrossNodeFollowTdf
                                  ? tdf
                                  : config_.crossNodePct;
    const bool wantCross = static_cast<unsigned>(r / 100) < crossPct;
    // Workers alone on their node have no same-node peers and always
    // send cross-node; the converse (no cross-node peers) cannot happen
    // with >= 2 occupied nodes, but the fallback keeps this total.
    // Which list the draw lands in already says whether the pick
    // crosses nodes (every cross-node peer is off-node by
    // construction), so `crossed` costs no destination dereference.
    const std::vector<unsigned> *peers;
    bool crossed;
    if (wantCross || w.sameNodePeers.empty()) {
        crossed = !w.crossNodePeers.empty();
        peers = crossed ? &w.crossNodePeers : &w.sameNodePeers;
    } else {
        crossed = false;
        peers = &w.sameNodePeers;
    }
    if (peers->empty())
        return tid;
    const unsigned dest =
        (*peers)[static_cast<size_t>(w.rng.below(peers->size()))];
    if (__builtin_expect(
            quarantineCount_.load(std::memory_order_relaxed) != 0, 0) &&
        workers_[dest]->quarantined.load(std::memory_order_relaxed) != 0)
        return tid;
    // Only the distributed single-writer stat is bumped here; the
    // registry's CrossNode/SameNodeEnqueues counters sync from it in
    // sampleNow (paced, one amortized fetch_add per interval) so the
    // hottest routing path never pays a registry RMW.
    bumpCounter(crossed ? w.stats.crossNodeEnqueues
                        : w.stats.sameNodeEnqueues);
    return dest;
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::enqueueLocal(unsigned tid, WorkerState &w,
                             const Envelope &envelope)
{
    // Local enqueue goes straight into the private PQ — no receive
    // queue hop needed (Figure 2, path 1a). Incoming remote work is
    // NOT drained here: popLocal integrates it before every dequeue
    // decision, which is the only place ordering depends on it.
    // Caller holds the owner's reclaimLock when reclamation is armed.
    w.pq.push(makeEntry(envelope.task, envelope.bag));
    w.localBuffered.store(w.pq.size() + w.activeBag.size(),
                          std::memory_order_relaxed);
    bumpCounter(w.stats.localEnqueues);
    if (metrics_)
        metrics_->add(tid, WorkerCounter::LocalEnqueues);
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::sendRemote(unsigned from, unsigned dest,
                                          const Envelope &envelope)
{
    bumpCounter(workers_[from]->stats.remoteEnqueues);
    if (metrics_)
        metrics_->add(from, WorkerCounter::RemoteEnqueues);
    // The fault site forces the spill without consuming sRQ slots, so
    // the overflow path is testable independent of queue capacity.
    if (!faultFires(faultsite::HdcpsOverflowSpill) &&
        workers_[dest]->rq->tryPush(envelope)) {
        return;
    }
    // sRQ full (or fault-forced): spill to the destination's locked
    // overflow queue. Bags are unpacked here — the overflow path is the
    // slow path anyway — and their envelopes go back to the pool.
    // Counters attribute to `from`: the *acting* thread, so the
    // registry's relaxed-write contract holds and per-worker numbers
    // answer "who spilled", not "who was spilled onto".
    bumpCounter(workers_[from]->stats.overflowPushes);
    if (metrics_)
        metrics_->add(from, WorkerCounter::OverflowPushes);
    if (envelope.bag) {
        for (const Task &t : envelope.bag->tasks)
            workers_[dest]->overflow.push(t);
        pool_.release(from, envelope.bag);
    } else {
        workers_[dest]->overflow.push(envelope.task);
    }
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::push(unsigned tid, const Task &task)
{
    Envelope envelope;
    envelope.task = task;
    const unsigned dest = chooseDest(tid, currentTdf());
    if (dest != tid) {
        sendRemote(tid, dest, envelope);
        return;
    }
    // With reclamation on, the PQ is no longer owner-exclusive, so take
    // our own lock.
    WorkerState &w = *workers_[tid];
    const bool guarded =
        reclaimAfterNs_.load(std::memory_order_relaxed) != 0;
    if (guarded)
        lockReclaim(w.reclaimLock);
    enqueueLocal(tid, w, envelope);
    if (guarded)
        unlockReclaim(w.reclaimLock);
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::pushBatch(unsigned tid, const Task *tasks, size_t count)
{
    if (count == 0)
        return;
    WorkerState &w = *workers_[tid];
    // One TDF read per batch: it is fixed for the scheduler's lifetime.
    const unsigned tdf = currentTdf();
    const bool guarded =
        reclaimAfterNs_.load(std::memory_order_relaxed) != 0;
    // The owner's lock is held across the whole batch when reclamation
    // is armed: the local PQ inserts need it, and one acquire per batch
    // is cheaper than one per local child.
    if (guarded)
        lockReclaim(w.reclaimLock);

    auto route = [&](const Task &task, Bag *bag) {
        Envelope envelope;
        envelope.task = task;
        envelope.bag = bag;
        unsigned dest = chooseDest(tid, tdf);
        if (dest == tid)
            enqueueLocal(tid, w, envelope);
        else
            sendRemote(tid, dest, envelope);
    };

    if (count < config_.bags.smallestBag()) {
        // Too few children to bag (every child of a BagMode::None
        // design): skip planRanges' copy and sort.
        for (size_t i = 0; i < count; ++i)
            route(tasks[i], nullptr);
    } else {
        // planRanges sorts a reused per-worker scratch copy in place —
        // no fresh vector per batch — and bag payloads land in pooled
        // envelopes whose vectors keep their recycled capacity.
        std::vector<Task> &scratch = w.planScratch;
        scratch.assign(tasks, tasks + count);
        config_.bags.planRanges(
            scratch, [&](const Task &t) { route(t, nullptr); },
            [&](const Task *first, const Task *last, Priority priority) {
                bool recycled = false;
                Bag *bag = pool_.acquire(tid, &recycled);
                bag->priority = priority;
                bag->tasks.assign(first, last);
                bumpCounter(w.stats.bagsCreated);
                bumpCounter(w.stats.tasksInBags,
                            uint64_t(last - first));
                if (metrics_) {
                    metrics_->add(tid, WorkerCounter::BagsCreated);
                    metrics_->add(tid, WorkerCounter::TasksInBags,
                                  size_t(last - first));
                    if (recycled)
                        metrics_->add(tid, WorkerCounter::PoolRecycled);
                }
                Task meta;
                meta.priority = priority;
                route(meta, bag);
            });
    }

    if (guarded)
        unlockReclaim(w.reclaimLock);
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::drainIncoming(WorkerState &w)
{
    // Move everything the sRQ and the overflow spill hold into the
    // private PQ. Incoming work is handled "with high priority"
    // (Section III-A) — i.e. before the next dequeue decision. The
    // batch goes through pushBulk, so a large drain pays Floyd's O(n)
    // heapify instead of n sift-ups.
    std::vector<PqEntry> &batch = w.drainScratch;
    batch.clear();
    // Bulk-consume the sRQ in runs: one readPtr advance (and one fault
    // check) per run instead of per entry.
    Envelope run[32];
    size_t n;
    while ((n = w.rq->tryPopN(run, 32)) != 0) {
        for (size_t i = 0; i < n; ++i)
            batch.push_back(makeEntry(run[i].task, run[i].bag));
    }
    Task task;
    while (w.overflow.tryPop(task))
        batch.push_back(makeEntry(task, nullptr));
    if (!batch.empty())
        w.pq.pushBulk(batch.begin(), batch.end());
}

template <template <typename, typename> class LocalPqT>
bool
BasicHdCpsScheduler<LocalPqT>::tryPop(unsigned tid, Task &out)
{
    WorkerState &w = *workers_[tid];
    const uint64_t staleNs = reclaimAfterNs_.load(std::memory_order_relaxed);
    if (staleNs == 0)
        return popLocal(tid, w, out); // original lock-free fast path

    // Heartbeat first: a worker that reaches here is alive even if it
    // finds nothing, and publishing before the lock keeps a long drain
    // from making *us* look stale to everyone else.
    w.heartbeatNs.store(nowNs(), std::memory_order_relaxed);
    lockReclaim(w.reclaimLock);
    bool got = popLocal(tid, w, out);
    if (!got)
        got = reclaimFromStraggler(tid, staleNs, out);
    unlockReclaim(w.reclaimLock);
    if (got)
        w.heartbeatPops.fetch_add(1, std::memory_order_relaxed);
    return got;
}

template <template <typename, typename> class LocalPqT>
bool
BasicHdCpsScheduler<LocalPqT>::popLocal(unsigned tid, WorkerState &w, Task &out)
{
    // A dequeued bag binds the core until its tasks are done
    // (Section III-B) — serve the active bag first.
    if (!w.activeBag.empty()) {
        out = w.activeBag.back();
        w.activeBag.pop_back();
        w.localBuffered.store(w.pq.size() + w.activeBag.size(),
                              std::memory_order_relaxed);
        maybeSample(tid, w, out.priority);
        return true;
    }

    // Integrate incoming work before the dequeue decision (Section
    // III-A: handled "with high priority"). The drain call is gated on
    // two cheap probes — most pops find both queues empty, and paying
    // a full drain pass (scratch reset, pop loop, heap build check)
    // per pop is measurable on the hot path.
    if (!w.rq->emptyApprox() || w.overflow.sizeApprox() != 0)
        drainIncoming(w);

    if (w.pq.empty()) {
        w.localBuffered.store(0, std::memory_order_relaxed);
        return false;
    }

    PqEntry entry = w.pq.pop();
    if (entry.bag) {
        // Swap instead of move: the bag leaves with activeBag's spent
        // vector (and its capacity) and returns to the pool, so a
        // warmed-up pool never reallocates either buffer.
        w.activeBag.swap(entry.bag->tasks);
        pool_.release(tid, entry.bag);
        hdcps_check(!w.activeBag.empty(), "dequeued an empty bag");
        out = w.activeBag.back();
        w.activeBag.pop_back();
    } else {
        out = entry.task;
    }
    w.localBuffered.store(w.pq.size() + w.activeBag.size(),
                          std::memory_order_relaxed);
    maybeSample(tid, w, out.priority);
    return true;
}

template <template <typename, typename> class LocalPqT>
bool
BasicHdCpsScheduler<LocalPqT>::reclaimFromStraggler(unsigned tid, uint64_t staleNs,
                                     Task &out)
{
    WorkerState &me = *workers_[tid];
    const uint64_t now = nowNs();
    if (now < me.reclaimBackoffUntilNs)
        return false;

    bool sawStale = false;
    size_t moved = 0;
    const unsigned n = numWorkers();
    auto tryVictim = [&](unsigned vid) {
        WorkerState &victim = *workers_[vid];
        uint64_t hb = victim.heartbeatNs.load(std::memory_order_relaxed);
        if (hb <= now && now - hb < staleNs)
            return; // fresh heartbeat: not a straggler
        // Lock-free pre-check: a stale-but-empty peer strands nothing.
        if (victim.rq->sizeApprox() == 0 && victim.overflow.size() == 0 &&
            victim.localBuffered.load(std::memory_order_relaxed) == 0) {
            return;
        }
        sawStale = true;
        if (!tryLockReclaim(victim.reclaimLock)) {
            // Either the owner woke up or another reclaimer beat us —
            // both resolve the stall, so just record the race and move
            // on. Never block here (deadlock-freedom, see header).
            reclaimRaces_.fetch_add(1, std::memory_order_relaxed);
            if (metrics_)
                metrics_->add(tid, WorkerCounter::ReclaimRaces);
            return;
        }
        // Drain *everything* the victim buffered — sRQ, overflow spill,
        // active bag and its private PQ.
        Envelope envelope;
        while (victim.rq->tryPop(envelope)) {
            moved += envelope.bag ? envelope.bag->tasks.size() : 1;
            me.pq.push(makeEntry(envelope.task, envelope.bag));
        }
        Task task;
        while (victim.overflow.tryPop(task)) {
            ++moved;
            me.pq.push(makeEntry(task, nullptr));
        }
        for (const Task &t : victim.activeBag) {
            ++moved;
            me.pq.push(makeEntry(t, nullptr));
        }
        victim.activeBag.clear();
        while (!victim.pq.empty()) {
            PqEntry entry = victim.pq.pop();
            moved += entry.bag ? entry.bag->tasks.size() : 1;
            me.pq.push(entry);
        }
        victim.localBuffered.store(0, std::memory_order_relaxed);
        unlockReclaim(victim.reclaimLock);
    };
    // Victim scan order: same-node stragglers before cross-node ones.
    // Reclaimed tasks land in the reclaimer's private PQ, so draining a
    // same-node victim keeps the stranded work (and its first-touch
    // pages) on the node that owns it; cross-node peers stay reachable
    // as the fallback so no straggler is ever stranded. A flat (or
    // single-node) topology keeps the original modular scan.
    if (hierarchical_) {
        for (unsigned vid : me.sameNodePeers) {
            if (moved != 0)
                break;
            tryVictim(vid);
        }
        for (unsigned vid : me.crossNodePeers) {
            if (moved != 0)
                break;
            tryVictim(vid);
        }
    } else {
        for (unsigned k = 1; k < n && moved == 0; ++k)
            tryVictim((tid + k) % n);
    }

    if (moved == 0) {
        if (sawStale) {
            // Contended or raced-away straggler: back off exponentially
            // so a pack of idle workers doesn't spin on one victim.
            const uint64_t base =
                std::max<uint64_t>(staleNs / 16, 50 * 1000);
            me.reclaimBackoffNs =
                me.reclaimBackoffNs == 0
                    ? base
                    : std::min(me.reclaimBackoffNs * 2, staleNs);
            me.reclaimBackoffUntilNs = now + me.reclaimBackoffNs;
        }
        return false;
    }

    me.reclaimBackoffNs = 0;
    me.reclaimBackoffUntilNs = 0;
    reclaimedTasks_.fetch_add(moved, std::memory_order_relaxed);
    if (metrics_)
        metrics_->add(tid, WorkerCounter::ReclaimedTasks, moved);
    return popLocal(tid, me, out);
}

template <template <typename, typename> class LocalPqT>
void
BasicHdCpsScheduler<LocalPqT>::sampleNow(unsigned tid, Priority poppedPriority)
{
    WorkerState &w = *workers_[tid];
    // Algorithm 3: report the latest processed priority to the master.
    drift_.publish(tid, poppedPriority);
    if (metrics_) {
        metrics_->record(tid, WorkerSeries::SrqOccupancy,
                         static_cast<double>(w.rq->sizeApprox()));
        if (hierarchical_) {
            // Lazy registry sync for the node-locality counters:
            // chooseDest only bumps the worker's own distributed stat,
            // and this paced path folds the delta into the registry in
            // one amortized add. The registry can lag the scheduler's
            // own crossNodeEnqueues()/sameNodeEnqueues() totals by up
            // to one sample interval; those totals are authoritative.
            const uint64_t cross =
                w.stats.crossNodeEnqueues.load(std::memory_order_relaxed);
            if (cross != w.syncedCrossNodeEnqueues) {
                metrics_->add(tid, WorkerCounter::CrossNodeEnqueues,
                              cross - w.syncedCrossNodeEnqueues);
                w.syncedCrossNodeEnqueues = cross;
            }
            const uint64_t same =
                w.stats.sameNodeEnqueues.load(std::memory_order_relaxed);
            if (same != w.syncedSameNodeEnqueues) {
                metrics_->add(tid, WorkerCounter::SameNodeEnqueues,
                              same - w.syncedSameNodeEnqueues);
                w.syncedSameNodeEnqueues = same;
            }
        }
    }
    if (tid != 0)
        return;

    // Worker 0 closes a drift sample at its own sample boundary — the
    // rule run() uses for its Eq. 1 series. One writer, so the drift
    // series and the global series below need no lock.
    const double drift = drift_.computeDrift();
    driftSeries_.record(drift);
    if (metrics_) {
        metrics_->recordGlobal(GlobalSeries::TdfDrift, drift);
        if (hierarchical_) {
            // Cumulative cross-node share of remote sends so far, the
            // observable output of the hierarchical split.
            const uint64_t cross = crossNodeEnqueues();
            const uint64_t total = cross + sameNodeEnqueues();
            if (total != 0) {
                metrics_->recordGlobal(GlobalSeries::CrossNodePct,
                                       100.0 * double(cross) /
                                           double(total));
            }
        }
    }
}

// The two shipped backends (see core/local_pq.h). Keeping the member
// definitions here and instantiating explicitly preserves the old
// single-TU codegen for the exact-heap scheduler.
template class BasicHdCpsScheduler<DAryLocalPq>;
template class BasicHdCpsScheduler<RelaxedMqLocalPq>;

} // namespace hdcps
