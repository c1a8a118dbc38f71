/**
 * @file
 * The Task Distribution Factor controller — Algorithm 2 of the paper,
 * as the simulated HD-CPS (SimHdCps) runs it. The threaded HD-CPS
 * routes at a fixed TDF instead (kHdCpsTdf in core/hdcps.h).
 *
 * TDF is the percentage of a core's enqueues that go to random remote
 * cores (75% TDF = three of every four children leave the core). The
 * feedback heuristic compares the current interval's measured priority
 * drift against the previous interval's and hill-climbs:
 *
 *   - drift worsened after a TDF increase  -> decrease (communication
 *     wasn't helping);
 *   - drift worsened after a TDF decrease  -> increase (starved the
 *     task flow);
 *   - drift improved                        -> continue in the last
 *     direction (the move is working).
 *
 * The improved case is where the paper's Algorithm 2 pseudocode
 * ("TDF - 1") and its prose ("the TDF is always increased") disagree;
 * each matches "continue" for exactly one prior direction, so we
 * implement the classic reverse-on-worsening / continue-on-improving
 * hill climber that is consistent with both where they agree. (The
 * literal pseudocode has a downward bias that collapses TDF to its
 * floor and starves remote cores on push-heavy workloads.)
 * The step size (default 10%), initial value (default 50%) and bounds
 * are the tunables swept in Figure 13.
 */

#ifndef HDCPS_CORE_TDF_H_
#define HDCPS_CORE_TDF_H_

#include <atomic>
#include <cstdint>

#include "support/logging.h"

namespace hdcps {

/** Feedback controller for the task distribution factor. */
class TdfController
{
  public:
    struct Config
    {
        unsigned initial = 50;  ///< first interval's TDF, percent
        unsigned step = 10;     ///< percent change per decision
        unsigned minTdf = 10;   ///< keep some distribution for balance
        unsigned maxTdf = 100;
    };

    TdfController() : TdfController(Config{}) {}

    explicit TdfController(const Config &config) : config_(config)
    {
        hdcps_check(config.initial >= config.minTdf &&
                        config.initial <= config.maxTdf,
                    "initial TDF outside [min, max]");
        hdcps_check(config.step >= 1 && config.step <= 100,
                    "TDF step out of range");
        hdcps_check(config.minTdf <= config.maxTdf, "bad TDF bounds");
        tdf_.store(config.initial, std::memory_order_relaxed);
    }

    /** Reinitialize to a fresh state with a (possibly new) config. */
    void
    reset(const Config &config)
    {
        config_ = config;
        tdf_.store(config.initial, std::memory_order_relaxed);
        prevDrift_ = 0.0;
        havePrev_ = false;
        lastDecision_ = Decision::Increase;
        decisions_ = 0;
    }

    /** Current TDF in percent; read by all cores (non-blocking). */
    unsigned
    current() const
    {
        return tdf_.load(std::memory_order_relaxed);
    }

    /**
     * Algorithm 2: one decision, fed with this interval's average
     * drift. Returns the new TDF. Called by the master core only.
     */
    unsigned
    update(double drift)
    {
        unsigned tdf = tdf_.load(std::memory_order_relaxed);
        if (!havePrev_) {
            // First interval: nothing to compare against yet.
            havePrev_ = true;
            prevDrift_ = drift;
            return tdf;
        }

        if (drift >= prevDrift_) {
            // Worsened (or flat): reverse the previous move.
            if (lastDecision_ == Decision::Increase) {
                tdf = decrease(tdf);
                lastDecision_ = Decision::Decrease;
            } else {
                tdf = increase(tdf);
                lastDecision_ = Decision::Increase;
            }
        } else {
            // Improved: keep moving the same way.
            if (lastDecision_ == Decision::Increase)
                tdf = increase(tdf);
            else
                tdf = decrease(tdf);
        }
        prevDrift_ = drift;
        tdf_.store(tdf, std::memory_order_relaxed);
        ++decisions_;
        return tdf;
    }

    uint64_t decisions() const { return decisions_; }

    /** Last decision direction (test hook). */
    bool lastWasIncrease() const
    {
        return lastDecision_ == Decision::Increase;
    }

  private:
    enum class Decision { Increase, Decrease };

    unsigned
    increase(unsigned tdf) const
    {
        unsigned next = tdf + config_.step;
        return next > config_.maxTdf ? config_.maxTdf : next;
    }

    unsigned
    decrease(unsigned tdf) const
    {
        return tdf < config_.minTdf + config_.step ? config_.minTdf
                                                   : tdf - config_.step;
    }

    Config config_;
    std::atomic<unsigned> tdf_;
    // Master-core-only state below (no synchronization needed).
    double prevDrift_ = 0.0;
    bool havePrev_ = false;
    Decision lastDecision_ = Decision::Increase;
    uint64_t decisions_ = 0;
};

} // namespace hdcps

#endif // HDCPS_CORE_TDF_H_
