/**
 * @file
 * Sequential d-ary min-heap.
 *
 * The workhorse priority queue behind the per-core software PQs of RELD
 * and HD-CPS, and behind the simulator's software-PQ cost model. A 4-ary
 * layout is the default: it halves tree depth versus a binary heap and
 * keeps children of a node within one cache line for 8/16-byte elements,
 * which matters because PQ rebalancing is precisely the overhead the
 * paper's hPQ exists to hide.
 */

#ifndef HDCPS_PQ_DARY_HEAP_H_
#define HDCPS_PQ_DARY_HEAP_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "support/logging.h"

namespace hdcps {

/**
 * Min-heap with configurable arity. Compare(a, b) returning true means
 * "a orders before b" (for a min-heap, a has the smaller key).
 */
template <typename T, typename Compare = std::less<T>, unsigned Arity = 4>
class DAryHeap
{
    static_assert(Arity >= 2, "heap arity must be >= 2");

  public:
    DAryHeap() = default;
    explicit DAryHeap(Compare cmp) : cmp_(std::move(cmp)) {}

    bool empty() const { return elems_.empty(); }
    size_t size() const { return elems_.size(); }

    void reserve(size_t n) { elems_.reserve(n); }

    /** Number of element moves performed since construction/reset.
     *  The simulator charges PQ cycles proportional to this. */
    uint64_t movesPerformed() const { return moves_; }
    void resetMoveCounter() { moves_ = 0; }

    const T &
    top() const
    {
        hdcps_check(!elems_.empty(), "top() on empty heap");
        return elems_.front();
    }

    void
    push(T value)
    {
        elems_.push_back(std::move(value));
        siftUp(elems_.size() - 1);
    }

    T
    pop()
    {
        hdcps_check(!elems_.empty(), "pop() on empty heap");
        T result = std::move(elems_.front());
        elems_.front() = std::move(elems_.back());
        elems_.pop_back();
        if (!elems_.empty())
            siftDown(0);
        return result;
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
        const size_t oldSize = elems_.size();
        elems_.insert(elems_.end(), first, last);
        const size_t added = elems_.size() - oldSize;
        if (added == 0)
            return;
        if (added >= 2 && added >= oldSize / 2) {
            for (size_t i = (elems_.size() - 2) / Arity + 1; i-- > 0;)
                siftDown(i);
        } else {
            for (size_t i = oldSize; i < elems_.size(); ++i)
                siftUp(i);
        }
    }

    void
    clear()
    {
        elems_.clear();
    }

    /** Validate the heap property; test hook, O(n). */
    bool
    isValidHeap() const
    {
        for (size_t i = 1; i < elems_.size(); ++i) {
            size_t parent = (i - 1) / Arity;
            if (cmp_(elems_[i], elems_[parent]))
                return false;
        }
        return true;
    }

  private:
    void
    siftUp(size_t idx)
    {
        T value = std::move(elems_[idx]);
        while (idx > 0) {
            size_t parent = (idx - 1) / Arity;
            if (!cmp_(value, elems_[parent]))
                break;
            elems_[idx] = std::move(elems_[parent]);
            ++moves_;
            idx = parent;
        }
        elems_[idx] = std::move(value);
        ++moves_;
    }

    void
    siftDown(size_t idx)
    {
        const size_t count = elems_.size();
        T value = std::move(elems_[idx]);
        while (true) {
            size_t first = idx * Arity + 1;
            if (first >= count)
                break;
            size_t last = std::min(first + Arity, count);
            size_t best = first;
            for (size_t child = first + 1; child < last; ++child) {
                if (cmp_(elems_[child], elems_[best]))
                    best = child;
            }
            if (!cmp_(elems_[best], value))
                break;
            elems_[idx] = std::move(elems_[best]);
            ++moves_;
            idx = best;
        }
        elems_[idx] = std::move(value);
        ++moves_;
    }

    std::vector<T> elems_;
    Compare cmp_;
    uint64_t moves_ = 0;
};

} // namespace hdcps

#endif // HDCPS_PQ_DARY_HEAP_H_
