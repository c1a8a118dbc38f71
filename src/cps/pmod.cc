#include "cps/pmod.h"

namespace hdcps {

namespace {

constexpr uint64_t kWindow = 32;    ///< bag retirements per decision
constexpr uint64_t kLowYield = 2;   ///< window avg below => merge
constexpr uint64_t kHighYield = 64; ///< window avg above => split
constexpr unsigned kMinDelta = 0;
constexpr unsigned kMaxDelta = 8;

} // namespace

void
PmodScheduler::onBagExhausted(size_t tasksTaken)
{
    retiredTasks_.fetch_add(tasksTaken, std::memory_order_relaxed);
    uint64_t retired =
        retiredBags_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (retired % kWindow != 0)
        return;

    // Decision point: average tasks drained per retired bag over the
    // *last window only* — a cumulative average would keep reacting to
    // start-up behaviour long after the application changed phase.
    uint64_t tasks =
        retiredTasks_.exchange(0, std::memory_order_relaxed);
    uint64_t avgYield = tasks / kWindow;
    unsigned delta = currentDelta();
    if (avgYield < kLowYield && delta < kMaxDelta)
        setDelta(delta + 1);
    else if (avgYield > kHighYield && delta > kMinDelta)
        setDelta(delta - 1);
}

} // namespace hdcps
