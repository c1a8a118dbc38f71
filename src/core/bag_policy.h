/**
 * @file
 * Bags of tasks and the selective bagging heuristic — Algorithm 1.
 *
 * HD-CPS bundles same-priority children of one parent task into a bag
 * when doing so is profitable: the bag's metadata is a single PQ entry
 * at the destination, so one enqueue/dequeue covers many tasks. The
 * heuristic (Algorithm 1 line 6) creates a bag only when the number of
 * equal-priority children lies in [minBagSize, maxBagSize): below the
 * window individual sends are cheaper; above it, an upper bound stops a
 * core from binding itself to a huge bag while higher-priority work
 * waits. Transport of the payload is either *push* (payload travels
 * with the metadata message) or *pull* (payload stays at the creator
 * and is fetched with coherent loads on dequeue — the faster option the
 * paper selects, Figure 14).
 */

#ifndef HDCPS_CORE_BAG_POLICY_H_
#define HDCPS_CORE_BAG_POLICY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cps/task.h"
#include "support/logging.h"

namespace hdcps {

/** How bag payload bytes reach the consuming core. */
enum class BagTransport {
    Pull, ///< payload stays with the creator; coherent loads on dequeue
    Push, ///< payload travels with the metadata over the network
};

/** When to create bags at all. */
enum class BagMode {
    None,      ///< never bag (sRQ / sRQ+TDF configurations)
    Always,    ///< bag every priority group (the paper's "AC" variant)
    Selective, ///< Algorithm 1's window heuristic (the "SC" variant)
};

/** A bag: shared priority plus the task payload. */
struct Bag
{
    Priority priority = 0;
    std::vector<Task> tasks;
};

/** Output of grouping one parent's children (Algorithm 1 lines 4-10). */
struct BagPlan
{
    std::vector<Task> singles; ///< tasks distributed individually
    std::vector<Bag> bags;     ///< bags to distribute as one unit each
};

/** Tunables for Algorithm 1. */
struct BagPolicy
{
    BagMode mode = BagMode::Selective;
    BagTransport transport = BagTransport::Pull;
    size_t minBagSize = 3;  ///< ">= 3 ... tasks used in this paper"
    size_t maxBagSize = 10; ///< "... but < 10"; also the split bound

    /** Fewest tasks that can form a bag under this mode: a batch with
     *  fewer children than this is all singles, so callers may skip
     *  planning it. */
    size_t
    smallestBag() const
    {
        if (mode == BagMode::None)
            return SIZE_MAX;
        return mode == BagMode::Always ? 2 : minBagSize;
    }

    /**
     * Allocation-free planning core: group `children` in place and hand
     * each decision to a callback instead of materializing a BagPlan.
     * `single(const Task &)` fires for every individually-distributed
     * task; `bagRange(const Task *first, const Task *last, Priority)`
     * fires for every bag-sized chunk, with [first, last) pointing into
     * the (sorted) `children` buffer. Children are grouped by exact
     * priority (COUNT_PRIORITY in Algorithm 1); each group is bagged
     * when the mode and the size window say so, and groups larger than
     * maxBagSize are split into multiple bags so no single dequeue
     * monopolizes a core. Callers that reuse `children` across batches
     * pay no allocation at all.
     */
    template <typename SingleFn, typename BagRangeFn>
    void
    planRanges(std::vector<Task> &children, SingleFn &&single,
               BagRangeFn &&bagRange) const
    {
        if (children.empty())
            return;
        if (mode == BagMode::None) {
            for (const Task &t : children)
                single(t);
            return;
        }
        hdcps_check(minBagSize >= 1 && minBagSize < maxBagSize,
                    "bag size window must satisfy 1 <= min < max");

        std::sort(children.begin(), children.end(),
                  [](const Task &a, const Task &b) {
                      return a.priority < b.priority;
                  });

        size_t start = 0;
        while (start < children.size()) {
            size_t end = start + 1;
            while (end < children.size() &&
                   children[end].priority == children[start].priority) {
                ++end;
            }
            size_t count = end - start;
            bool bagIt = mode == BagMode::Always
                             ? count >= 2
                             : (count >= minBagSize && count < maxBagSize);
            if (bagIt) {
                // Split oversized groups (Always mode can exceed the
                // bound) so each bag stays under maxBagSize.
                size_t pos = start;
                while (pos < end) {
                    size_t take = std::min(maxBagSize - 1, end - pos);
                    if (take < 2) {
                        // A 1-task remainder is cheaper as a single.
                        single(children[pos]);
                        ++pos;
                        continue;
                    }
                    bagRange(children.data() + pos,
                             children.data() + pos + take,
                             children[start].priority);
                    pos += take;
                }
            } else {
                for (size_t i = start; i < end; ++i)
                    single(children[i]);
            }
            start = end;
        }
    }

    /**
     * Partition children into singles and bags (materialized variant of
     * planRanges, kept for harnesses that want the plan as data).
     */
    BagPlan
    plan(std::vector<Task> children) const
    {
        BagPlan out;
        if (mode == BagMode::None || children.empty()) {
            out.singles = std::move(children);
            return out;
        }
        planRanges(
            children,
            [&out](const Task &t) { out.singles.push_back(t); },
            [&out](const Task *first, const Task *last,
                   Priority priority) {
                Bag bag;
                bag.priority = priority;
                bag.tasks.assign(first, last);
                out.bags.push_back(std::move(bag));
            });
        return out;
    }
};

} // namespace hdcps

#endif // HDCPS_CORE_BAG_POLICY_H_
