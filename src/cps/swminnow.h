/**
 * @file
 * Software Minnow: OBIM with dedicated prefetch helper threads.
 *
 * Minnow (Zhang et al., ASPLOS'18) pairs workers with helper engines
 * that keep the next bag of work staged so workers never stall on the
 * shared work-list. The paper's software variant (Section IV-A) models
 * this on a real machine by partitioning cores into worker and minnow
 * groups — e.g. 36 workers + 4 minnows on the 40-core Xeon, each minnow
 * serving 9 workers. Here, minnow helpers are internal std::threads that
 * drain the global bag map into per-worker SPSC staging buffers; workers
 * consume their buffer and only fall back to the global map when the
 * helper lags. Because helpers stage whatever was best *at claim time*,
 * workers re-check a staged task's bag against the map's current best at
 * serve time and return stale stages to the map, which bounds the
 * scheduler's priority drift to the work hidden in staging buffers
 * instead of the whole priority domain. The cost of losing minnow cores' compute shows up
 * naturally (on real multicores) because the helpers occupy hardware
 * threads.
 */

#ifndef HDCPS_CPS_SWMINNOW_H_
#define HDCPS_CPS_SWMINNOW_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cps/obim.h"
#include "support/spsc_ring.h"

namespace hdcps {

/** OBIM + software prefetch helpers ("minnow threads"). */
class SwMinnowScheduler : public ObimBase
{
  public:
    struct MinnowConfig
    {
        unsigned numMinnows = 1;    ///< helper threads
        size_t bufferCapacity = 64; ///< per-worker staging ring slots
        size_t prefetchChunk = 16;  ///< tasks staged per helper visit
    };

    SwMinnowScheduler(unsigned numWorkers, const MinnowConfig &config);
    explicit SwMinnowScheduler(unsigned numWorkers)
        : SwMinnowScheduler(numWorkers, MinnowConfig{})
    {}
    ~SwMinnowScheduler() override;

    bool tryPop(unsigned tid, Task &out) override;
    const char *name() const override { return "swminnow"; }

    /** Claimed tasks spilled back to the map because the staging ring
     *  was full (helper-thread aggregate — helpers own no registry
     *  slot, so this is their attribution sink). */
    uint64_t spilledTasks() const
    {
        return spilled_.load(std::memory_order_relaxed);
    }

  private:
    /** Serve a staged task (with the serve-time rank re-check), else
     *  fall back to the bag map. */
    bool popVisible(unsigned tid, Task &out);
    void minnowLoop(unsigned minnowId);

    MinnowConfig minnowConfig_;
    std::vector<std::unique_ptr<SpscRing<Task>>> staging_;
    std::vector<std::thread> minnows_;
    std::atomic<bool> stop_{false};
    std::atomic<uint64_t> spilled_{0};
    /** Per helper: odd while a claimed chunk is between the map and a
     *  ring, so an empty-handed worker can wait out the claim. */
    std::vector<std::atomic<uint64_t>> claimSeq_;
};

} // namespace hdcps

#endif // HDCPS_CPS_SWMINNOW_H_
