/**
 * @file
 * Pluggable local-PQ backends for the HD-CPS scheduler.
 *
 * The sRQ mechanism makes each worker's priority queue private to its
 * owner — no PQ operation ever synchronizes — which turns the local PQ
 * into a swappable policy: anything with push/pushBulk/pop/empty/size
 * and owner-thread-only semantics can sit behind the sRQ/bag layer.
 * `BasicHdCpsScheduler` (core/hdcps.h) is parameterized over that seam,
 * and this header provides the two backends it instantiates:
 *
 *  - DAryLocalPq: the exact backend (HD-CPS:SW as shipped), a 4-ary
 *    heap of 16-byte integer keys standing in for the paper's hPQ. The
 *    heap holds only `(priority << 64) | (node << 32) | slot`, compared
 *    as one unsigned 128-bit integer; the element itself sits in an
 *    owner slab at `slot` and moves only on push and pop.
 *  - RelaxedMqLocalPq: a *sequential* MultiQueue — k small heaps,
 *    pushes spray to a random heap, pops take the better of two random
 *    tops. Because the owner is the only toucher there are no locks,
 *    no buffers, no cached tops: this isolates the MultiQueue's
 *    *ordering relaxation* (cheaper rebalancing, relaxed pop order)
 *    from its concurrency machinery, giving the
 *    drift-aware-TDF-on-relaxed-local-PQ combination the source papers
 *    never tried. Pops are relaxed by design: expected rank error
 *    O(k), traded for shallower heaps and fewer element moves.
 *
 * Backends are owner-private: callers guarantee single-threaded access
 * (the scheduler's reclaim lock covers the straggler-drain exception).
 */

#ifndef HDCPS_CORE_LOCAL_PQ_H_
#define HDCPS_CORE_LOCAL_PQ_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cps/task.h"
#include "pq/dary_heap.h"
#include "support/logging.h"
#include "support/rng.h"

namespace hdcps {

/** DAryLocalPq's heap entry: an unsigned 128-bit integer. */
using LocalPqKey = unsigned __int128;

/**
 * The exact backend: a 4-ary min-heap of LocalPqKey over an owner slab.
 *
 * `Compare` must expose `static OrderKey key(const T &)`, the
 * (priority, node) pair its comparison sorts by (TaskOrder does). The
 * heap key packs that pair above the element's slab slot, so integer
 * order on keys is Compare's order, with the slot breaking exact ties.
 * The full 64-bit priority fills the key's high half: SSSP/A* distances
 * pass 2^32, and a truncated priority would invert heap order.
 *
 * The slab reuses slots through a LIFO free list, so it never holds
 * more slots than the most elements ever live at once (at most 2^32,
 * the slot's width), and a slot just freed by a pop is the next push's
 * (still in cache).
 */
template <typename T, typename Compare>
class DAryLocalPq
{
  public:
    /** Design-name stem for schedulers built on this backend. */
    static constexpr const char *kBaseName = "hdcps-srq";

    /** Backend tuning hook; the exact heap has nothing to tune. */
    void configure(unsigned /*ways*/, uint64_t /*seed*/) {}

    bool empty() const { return keys_.empty(); }
    size_t size() const { return keys_.size(); }

    void
    push(T value)
    {
        keys_.push_back(stash(std::move(value)));
        siftUp(keys_.size() - 1);
    }

    /**
     * Append a run of elements in one go. Large batches (at least half
     * the existing occupancy) rebuild the heap bottom-up with Floyd's
     * O(n) heapify instead of paying O(k log n) sift-ups — the case
     * drainIncoming hits when senders have filled an sRQ between two
     * of its owner's pops. Small batches sift up per element.
     */
    template <typename InputIt>
    void
    pushBulk(InputIt first, InputIt last)
    {
        const size_t oldSize = keys_.size();
        for (; first != last; ++first)
            keys_.push_back(stash(*first));
        const size_t added = keys_.size() - oldSize;
        if (added >= 2 && added >= oldSize / 2) {
            for (size_t i = (keys_.size() - 2) / kArity + 1; i-- > 0;)
                siftDown(i, keys_[i]);
        } else {
            for (size_t i = oldSize; i < keys_.size(); ++i)
                siftUp(i);
        }
    }

    /** Precondition: !empty(). */
    T
    pop()
    {
        hdcps_check(!keys_.empty(), "pop() on an empty local PQ");
        const uint32_t slot = uint32_t(keys_.front());
        T result = std::move(slab_[slot]);
        free_.push_back(slot);
        const LocalPqKey last = keys_.back();
        keys_.pop_back();
        if (!keys_.empty())
            siftDown(0, last);
        return result;
    }

    /** The heap key of `value` parked at `slot`: the one place the
     *  key's layout is defined. */
    static LocalPqKey
    keyOf(const T &value, uint32_t slot)
    {
        const OrderKey order = Compare::key(value);
        return (LocalPqKey(order.priority) << 64) |
               (LocalPqKey(order.node) << 32) | slot;
    }

    /** Slots the slab has ever handed out; test hook. */
    size_t slabSlots() const { return slab_.size(); }

  private:
    static constexpr size_t kArity = 4;

    /** Park `value` in a free slab slot and return its heap key. */
    LocalPqKey
    stash(T value)
    {
        uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            slab_[slot] = std::move(value);
        } else {
            slot = uint32_t(slab_.size());
            slab_.push_back(std::move(value));
        }
        return keyOf(slab_[slot], slot);
    }

    void
    siftUp(size_t idx)
    {
        LocalPqKey *keys = keys_.data();
        const LocalPqKey moved = keys[idx];
        while (idx > 0) {
            const size_t parent = (idx - 1) / kArity;
            if (!(moved < keys[parent]))
                break;
            keys[idx] = keys[parent];
            idx = parent;
        }
        keys[idx] = moved;
    }

    /** Fill the hole at `idx` with `moved`: a plain top-down sift that
     *  stops as soon as the smallest child is not below `moved`. */
    void
    siftDown(size_t idx, LocalPqKey moved)
    {
        LocalPqKey *keys = keys_.data();
        const size_t count = keys_.size();
        while (true) {
            const size_t first = idx * kArity + 1;
            size_t best;
            if (first + kArity <= count) {
                // All four children: the smaller of each pair, then
                // the smaller of the two winners, as flag arithmetic
                // and a conditional move rather than branches.
                const size_t a = first + (keys[first + 1] < keys[first]);
                const size_t b =
                    first + 2 + (keys[first + 3] < keys[first + 2]);
                best = keys[b] < keys[a] ? b : a;
            } else if (first < count) {
                best = first;
                for (size_t child = first + 1; child < count; ++child) {
                    if (keys[child] < keys[best])
                        best = child;
                }
            } else {
                break;
            }
            if (!(keys[best] < moved))
                break;
            keys[idx] = keys[best];
            idx = best;
        }
        keys[idx] = moved;
    }

    std::vector<LocalPqKey> keys_;
    std::vector<T> slab_;
    std::vector<uint32_t> free_;
};

/** The relaxed backend: a sequential owner-private MultiQueue. */
template <typename T, typename Compare>
class RelaxedMqLocalPq
{
  public:
    static constexpr const char *kBaseName = "hdcps-mq";

    RelaxedMqLocalPq() { configure(4, 1); }

    /** Set the number of internal heaps ("ways") and the spray RNG
     *  seed. Only valid while empty (the scheduler configures each
     *  worker's backend once, at construction). */
    void
    configure(unsigned ways, uint64_t seed)
    {
        ways_ = std::max(2u, ways);
        heaps_.clear();
        heaps_.resize(ways_);
        rng_.reseed(seed);
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    void
    push(T value)
    {
        heaps_[rng_.below(ways_)].push(std::move(value));
        ++size_;
    }

    /** Bulk insert sprays per element: spreading a drained sRQ batch
     *  across the ways is what keeps the individual heaps shallow. */
    template <typename InputIt>
    void
    pushBulk(InputIt first, InputIt last)
    {
        for (; first != last; ++first)
            push(*first);
    }

    /** Power-of-two-choices pop: the better of two random non-empty
     *  tops; falls back to a best-of-all scan when random draws keep
     *  landing on empty ways (so the relaxation never strands work).
     *  Precondition: !empty(). */
    T
    pop()
    {
        const size_t kNone = ways_;
        size_t a = kNone;
        for (int t = 0; t < 4 && a == kNone; ++t) {
            size_t i = rng_.below(ways_);
            if (!heaps_[i].empty())
                a = i;
        }
        if (a == kNone) {
            for (size_t i = 0; i < ways_; ++i) {
                if (!heaps_[i].empty() &&
                    (a == kNone || cmp_(heaps_[i].top(), heaps_[a].top())))
                    a = i;
            }
        } else {
            size_t b = kNone;
            for (int t = 0; t < 4 && b == kNone; ++t) {
                size_t i = rng_.below(ways_);
                if (i != a && !heaps_[i].empty())
                    b = i;
            }
            if (b != kNone && cmp_(heaps_[b].top(), heaps_[a].top()))
                a = b;
        }
        --size_;
        return heaps_[a].pop();
    }

  private:
    std::vector<DAryHeap<T, Compare>> heaps_;
    Compare cmp_;
    Rng rng_;
    unsigned ways_ = 2;
    size_t size_ = 0;
};

} // namespace hdcps

#endif // HDCPS_CORE_LOCAL_PQ_H_
