/**
 * @file
 * MultiQueue: relaxed concurrent priority queue, modernized from the
 * SPAA'15 sketch of Rihani, Sanders and Dementiev to the recipe of
 * "Engineering MultiQueues" (Williams, Sanders, Dementiev, ESA'21),
 * which Postnikova et al. argue makes MQs state-of-the-art relaxed
 * priority schedulers.
 *
 * The classic core is unchanged: c queues per worker, pops sample two
 * queues and take the better top, expected rank error O(P). On top of
 * that this implementation adds the three engineering mechanisms the
 * paper shows dominate MQ throughput:
 *
 *  - **Stickiness**: a worker reuses its chosen queue (for pushes) and
 *    queue pair (for pops) for S consecutive operations before
 *    redrawing, amortizing both the RNG draws and the cache misses of
 *    touching fresh queues.
 *  - **Insertion buffers**: pushes stage into a worker-private sorted
 *    buffer and flush to the sticky queue in one batched lock
 *    acquisition (heap pushBulk), instead of one lock per task.
 *  - **Deletion buffers**: a pop refill takes up to D best tasks from
 *    the chosen queue under one lock; subsequent pops serve the buffer
 *    lock-free. Each pop considers both the deletion buffer head and
 *    the insertion buffer minimum, so freshly created high-priority
 *    work is never invisible to its creator.
 *  - **Lock-free cached tops**: every queue publishes its top priority
 *    as a single atomic, updated under the queue lock on every
 *    mutation, so power-of-two-choices peeks never take a mutex. The
 *    old peek/lock/pop race (both peeked tops pop out from under the
 *    chooser, silently serving a much worse task) is closed by
 *    re-validating the winner's real top under its lock against the
 *    loser's published top and redrawing on failure.
 *
 * Worker-private buffers relax the "any worker can pop any task" shape
 * of the original: a task staged in worker w's buffers is only
 * returned by w's own tryPop. The runtime's termination detection
 * tolerates this (workers poll tryPop until the global in-flight count
 * hits zero, so every owner drains its own staging), and failed runs
 * may strand buffered tasks exactly like HD-CPS's private PQs.
 *
 * Queue ownership for metric attribution is explicit: the constructor
 * lays out c = 2 consecutive queues per worker (the classic "c"
 * parameter), so queue q belongs to worker q / c. A push is counted
 * local when its sticky destination queue is owned by the pushing
 * worker. Pushes from threads outside the worker set (seeding or test
 * drivers with tid >= numWorkers) take a bound-checked external path
 * instead of indexing per-worker state out of bounds.
 */

#ifndef HDCPS_CPS_MULTIQUEUE_H_
#define HDCPS_CPS_MULTIQUEUE_H_

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "cps/scheduler.h"
#include "pq/dary_heap.h"
#include "support/compiler.h"
#include "support/rng.h"

namespace hdcps {

/** Engineering-MultiQueues tunables (defaults follow the paper's
 *  moderate-relaxation configuration). */
struct MultiQueueConfig
{
    /** Operations before a worker redraws its sticky queues (1 =
     *  classic fully-random MultiQueue behavior). */
    unsigned stickiness = 8;
    size_t insertionBufferCap = 16; ///< staged pushes per flush
    size_t deletionBufferCap = 8;   ///< tasks per batched pop refill
    uint64_t seed = 1;
};

/** Relaxed multi-queue scheduler (buffered power-of-two-choices). */
class MultiQueueScheduler : public Scheduler
{
  public:
    explicit MultiQueueScheduler(unsigned numWorkers,
                                 const MultiQueueConfig &config = {});

    void push(unsigned tid, const Task &task) override;
    bool tryPop(unsigned tid, Task &out) override;
    const char *name() const override { return "multiqueue"; }

    /** Queue-count + published worker-buffer occupancy (lock-free). */
    size_t sizeApprox() const override;

    /**
     * Per-worker RNG stream seed. Public so tests can assert stream
     * independence: the worker index is mixed *into* the seed word
     * (golden-ratio stride, then SplitMix64) rather than added to the
     * mixed output, so adjacent workers never run correlated xoshiro
     * states offset by 1.
     */
    static uint64_t
    workerStreamSeed(uint64_t seed, unsigned worker)
    {
        return mix64(seed ^ (uint64_t(worker) * 0x9e3779b97f4a7c15ULL));
    }

  private:
    /** Cached-top sentinel for "probably empty". A real task may carry
     *  this priority; the sentinel only biases the lock-free peek, and
     *  the locked scan fallback still finds such tasks. */
    static constexpr Priority kEmptyTop =
        std::numeric_limits<Priority>::max();

    /** One internal queue: locked heap + atomically-published top. */
    struct alignas(cacheLineBytes) MqQueue
    {
        std::mutex mutex;
        DAryHeap<Task, TaskOrder> heap;
        /** heap.top().priority (kEmptyTop when empty), stored under
         *  the mutex after every mutation; peeks read it lock-free. */
        std::atomic<Priority> cachedTop{kEmptyTop};
        std::atomic<size_t> count{0};

        /** Batched insert: one lock, bulk heap build, top republish. */
        void pushN(const Task *tasks, size_t n);
        /**
         * Batched pop of up to maxN best tasks (ascending) into out.
         * Fails without popping when empty, or when the real top
         * turned out worse than `bound` (the losing queue's published
         * top) — the peek/lock/pop re-validation. Republishes the top.
         */
        bool popBatch(Priority bound, size_t maxN,
                      std::vector<Task> &out);

        /** Republish cachedTop/count; caller holds mutex. */
        void publish();
    };

    struct alignas(cacheLineBytes) WorkerState
    {
        Rng rng;
        /** Sticky insertion queue and remaining ops before redraw. */
        unsigned insQueue = 0;
        unsigned insOpsLeft = 0;
        /** Sticky pop pair and remaining ops before redraw. */
        unsigned popA = 0;
        unsigned popB = 0;
        unsigned popOpsLeft = 0;
        /** Staged pushes, sorted descending (minimum at the back). */
        std::vector<Task> insertionBuffer;
        /** Refilled pops, ascending; served from deletionPos. */
        std::vector<Task> deletionBuffer;
        size_t deletionPos = 0;
        /** Owner-published buffer occupancy for sizeApprox. */
        std::atomic<size_t> buffered{0};
    };

    void flushInsertion(unsigned tid, WorkerState &w);
    /** Two-choice batched refill of the deletion buffer; false when
     *  the sampled queues came up empty or kept failing validation. */
    bool refillDeletion(WorkerState &w);
    /** Locked scan of every queue — the no-task-stranded guarantee
     *  when cached tops are stale or sampling is unlucky. */
    bool scanRefill(WorkerState &w);
    void publishBuffered(WorkerState &w);
    /** Bound-checked path for pushes from non-worker threads. */
    void externalPush(const Task &task);
    bool externalPop(Task &out);

    MultiQueueConfig config_;
    std::vector<std::unique_ptr<MqQueue>> queues_;
    std::vector<std::unique_ptr<WorkerState>> workers_;
    /** Guards externalRng_ (external pushes may race each other). */
    std::mutex externalMutex_;
    Rng externalRng_;
};

} // namespace hdcps

#endif // HDCPS_CPS_MULTIQUEUE_H_
