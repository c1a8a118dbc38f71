/**
 * @file
 * OBIM: the Galois "ordered by integer metric" scheduler, and the shared
 * machinery its PMOD variant builds on.
 *
 * Pull-style, relax-ordered, coarse-grain: tasks whose priorities fall
 * in the same 2^delta range are merged into one unordered *bag*; bag
 * metadata lives in a global ordered map. A worker out of work scans the
 * map for the highest-priority (lowest-key) non-empty bag and processes
 * tasks from it in chunks. The fixed delta is OBIM's weakness the paper
 * leans on: under-utilized bags (sparse inputs) cause priority drift.
 *
 * Bags are keyed by their priority-range *base* (bucket << delta) rather
 * than the bucket index so that keys stay comparable when PMOD changes
 * delta at runtime.
 */

#ifndef HDCPS_CPS_OBIM_H_
#define HDCPS_CPS_OBIM_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "cps/scheduler.h"
#include "support/compiler.h"

namespace hdcps {

/** One unordered bag of same-priority-range tasks. */
class ObimBag
{
  public:
    explicit ObimBag(Priority base) : base_(base) {}

    Priority base() const { return base_; }

    void
    push(const Task &task)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(task);
    }

    /** Move up to maxCount tasks into out; returns how many were taken. */
    size_t
    popChunk(std::vector<Task> &out, size_t maxCount)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        size_t take = std::min(maxCount, tasks_.size());
        for (size_t i = 0; i < take; ++i) {
            out.push_back(tasks_.back());
            tasks_.pop_back();
        }
        return take;
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return tasks_.size();
    }

    bool empty() const { return size() == 0; }

  private:
    mutable std::mutex mutex_;
    std::vector<Task> tasks_;
    Priority base_;
};

/**
 * Shared base for OBIM-family schedulers: the global bag map plus the
 * per-worker chunk cache. Subclasses control the delta policy.
 */
class ObimBase : public Scheduler
{
  public:
    explicit ObimBase(unsigned numWorkers);

    void push(unsigned tid, const Task &task) override;
    bool tryPop(unsigned tid, Task &out) override;

    /** Current delta (PMOD mutates it at runtime). */
    unsigned currentDelta() const
    {
        return delta_.load(std::memory_order_relaxed);
    }

    /** Number of distinct bags ever created (diagnostic). */
    size_t numBags() const;

  protected:
    /** Hook invoked when a worker abandons a bag after draining
     *  tasksTaken tasks from it; PMOD's adaptivity lives here. */
    virtual void onBagExhausted(size_t tasksTaken) { (void)tasksTaken; }

    /**
     * Claim up to maxCount tasks from the current best bag, bypassing
     * per-worker chunk state. Used by Software-Minnow helper threads to
     * prefetch on behalf of workers. Returns the number claimed.
     */
    size_t claimChunk(std::vector<Task> &out, size_t maxCount);

    /**
     * Return a previously claimed task to the bag map *without* metric
     * attribution. For helper threads (Software-Minnow) spilling back
     * tasks that did not fit their staging buffer: the task was already
     * counted as an enqueue when it first entered the map, and a helper
     * must never write a worker's registry slots — counters attribute
     * to the acting thread, and a helper has no worker slot (it keeps
     * its own aggregate instead).
     */
    void repushClaimed(const Task &task);

    /**
     * Base key of the best (lowest-base) non-empty bag, or false when
     * the map holds no work. Read-only: lets staging frontends
     * (Software-Minnow) validate a claimed task's rank at serve time
     * without touching per-worker chunk state.
     */
    bool bestNonEmptyBase(Priority &base) const;

    void setDelta(unsigned delta) { delta_.store(delta,
                                                 std::memory_order_relaxed); }

  private:
    struct alignas(cacheLineBytes) WorkerState
    {
        std::vector<Task> chunk;  ///< locally claimed tasks
        ObimBag *currentBag = nullptr;
        size_t takenFromCurrent = 0;
    };

    ObimBag *findOrCreateBag(Priority base, bool &created);
    ObimBag *findBestBag();
    void sampleOccupancy(unsigned tid, WorkerState &w);

    mutable std::shared_mutex mapMutex_;
    std::map<Priority, std::unique_ptr<ObimBag>> bags_;
    std::atomic<unsigned> delta_;
    std::vector<std::unique_ptr<WorkerState>> workers_;
};

/** OBIM proper: fixed delta. */
class ObimScheduler : public ObimBase
{
  public:
    explicit ObimScheduler(unsigned numWorkers) : ObimBase(numWorkers) {}

    const char *name() const override { return "obim"; }
};

} // namespace hdcps

#endif // HDCPS_CPS_OBIM_H_
