/**
 * @file
 * Per-worker pooled allocation for bag envelopes.
 *
 * HD-CPS's bag transport is producer-allocates/consumer-frees: the
 * creating core heap-allocates a Bag, ships its pointer through the
 * sRQ, and whichever core dequeues it frees it. Under load that turns
 * the allocator into a cross-thread contention point (every bag is a
 * malloc on one thread and a free on another) and throws away the
 * task-vector capacity with every bag. This pool removes both costs:
 *
 *  - **acquire** is owner-only and serves from a per-worker free list
 *    (no synchronization at all on the fast path);
 *  - **release** from the owning worker is a plain list push; release
 *    from any other thread CAS-pushes the node onto the *home*
 *    worker's lock-free return stack (multi-producer Treiber push,
 *    owner-only pop-all via exchange — no ABA window);
 *  - recycled bags keep their std::vector capacity, so a warmed-up
 *    scheduler creates bags without touching the allocator again.
 *
 * Nodes are only ever freed by the pool destructor; callers must
 * release every acquired bag before destroying the pool (the scheduler
 * destructor drains its queues into the pool first).
 */

#ifndef HDCPS_CORE_BAG_POOL_H_
#define HDCPS_CORE_BAG_POOL_H_

#include <atomic>
#include <memory>
#include <vector>

#include "core/bag_policy.h"
#include "support/compiler.h"
#include "support/logging.h"

namespace hdcps {

/** Free-list pool of Bag envelopes with cross-thread returns. */
class BagPool
{
  public:
    explicit BagPool(unsigned numWorkers)
    {
        hdcps_check(numWorkers >= 1, "need at least one worker");
        slots_.reserve(numWorkers);
        for (unsigned i = 0; i < numWorkers; ++i)
            slots_.push_back(std::make_unique<Slot>());
    }

    ~BagPool()
    {
        for (auto &slot : slots_) {
            freeChain(slot->freeList);
            freeChain(slot->returnStack.load(std::memory_order_acquire));
        }
    }

    BagPool(const BagPool &) = delete;
    BagPool &operator=(const BagPool &) = delete;

    /**
     * Hand out a cleared bag for worker `tid` (owner-only). The bag's
     * task vector keeps its recycled capacity. When `recycled` is
     * non-null it reports whether the bag came from the pool rather
     * than a fresh allocation.
     */
    Bag *
    acquire(unsigned tid, bool *recycled = nullptr)
    {
        Slot &slot = *slots_[tid];
        if (!slot.freeList) {
            // Take the whole cross-thread return stack in one exchange
            // (the acquire pairs with releasers' CAS-push releases).
            slot.freeList =
                slot.returnStack.exchange(nullptr,
                                          std::memory_order_acquire);
        }
        Node *node = slot.freeList;
        if (node) {
            slot.freeList = node->next;
            node->tasks.clear(); // keeps capacity
            node->priority = 0;
            slot.recycles.fetch_add(1, std::memory_order_relaxed);
            if (recycled)
                *recycled = true;
            return node;
        }
        node = new Node;
        node->home = tid;
        slot.allocations.fetch_add(1, std::memory_order_relaxed);
        if (recycled)
            *recycled = false;
        return node;
    }

    /**
     * Return a pool-acquired bag from worker `tid` (any thread driving
     * that worker id). Same-worker returns go straight onto the local
     * free list; cross-thread returns CAS-push onto the home worker's
     * return stack.
     */
    void
    release(unsigned tid, Bag *bag)
    {
        Node *node = static_cast<Node *>(bag);
        Slot &home = *slots_[node->home];
        if (node->home == tid) {
            node->next = home.freeList;
            home.freeList = node;
            return;
        }
        Node *head = home.returnStack.load(std::memory_order_relaxed);
        do {
            node->next = head;
        } while (!home.returnStack.compare_exchange_weak(
            head, node, std::memory_order_release,
            std::memory_order_relaxed));
    }

    /**
     * First-touch placement: pre-populate worker `tid`'s free list
     * with `count` envelopes allocated (and fully written) on the
     * calling thread. The scheduler's buffer-placement phase calls
     * this with the caller pinned to the worker's node, so the
     * kernel's first-touch policy homes pooled envelopes on the node
     * that owns them — exactly like the sRQ ring.
     * Owner-context only (plain free-list pushes, like acquire).
     * Prewarmed envelopes are placement, not demand misses: they
     * count in prewarmed(), never in allocations().
     */
    void
    placeSlot(unsigned tid, size_t count)
    {
        Slot &slot = *slots_[tid];
        for (size_t i = 0; i < count; ++i) {
            Node *node = new Node;
            node->home = tid;
            node->next = slot.freeList;
            slot.freeList = node;
        }
        slot.prewarmed.fetch_add(count, std::memory_order_relaxed);
    }

    /** Fresh heap allocations performed (diagnostic). */
    uint64_t
    allocations() const
    {
        uint64_t total = 0;
        for (const auto &slot : slots_)
            total += slot->allocations.load(std::memory_order_relaxed);
        return total;
    }

    /** Acquires served from the free lists instead of the allocator. */
    uint64_t
    recycled() const
    {
        uint64_t total = 0;
        for (const auto &slot : slots_)
            total += slot->recycles.load(std::memory_order_relaxed);
        return total;
    }

    /** Envelopes pre-placed onto free lists by placeSlot. */
    uint64_t
    prewarmed() const
    {
        uint64_t total = 0;
        for (const auto &slot : slots_)
            total += slot->prewarmed.load(std::memory_order_relaxed);
        return total;
    }

  private:
    /** A pooled bag: the Bag payload plus intrusive pool linkage. All
     *  bags handed out by acquire() are Nodes, so release() may
     *  downcast safely. */
    struct Node : Bag
    {
        Node *next = nullptr;
        unsigned home = 0;
    };

    struct alignas(cacheLineBytes) Slot
    {
        Node *freeList = nullptr; ///< owner-only
        std::atomic<Node *> returnStack{nullptr};
        std::atomic<uint64_t> allocations{0};
        std::atomic<uint64_t> recycles{0};
        std::atomic<uint64_t> prewarmed{0};
    };

    static void
    freeChain(Node *node)
    {
        while (node) {
            Node *next = node->next;
            delete node;
            node = next;
        }
    }

    std::vector<std::unique_ptr<Slot>> slots_;
};

} // namespace hdcps

#endif // HDCPS_CORE_BAG_POOL_H_
