/**
 * @file
 * The per-core software receive queue (sRQ) — HD-CPS Section III-A.
 *
 * HD-CPS decouples task *transfer* from task *processing*: remote cores
 * never touch the owner's priority queue; they deposit tasks into this
 * bounded multi-producer/single-consumer ring instead, and the owner
 * drains it into its private PQ at its own pace. The paper describes the
 * slot protocol directly: "a sending core atomically increments the
 * corresponding receive queue's write pointer in the destination core,
 * then places its data into the slot and sets the flag." That is the
 * classic bounded sequence-number queue (Vyukov), implemented here with
 * per-slot sequence counters standing in for the flags.
 */

#ifndef HDCPS_CORE_RECV_QUEUE_H_
#define HDCPS_CORE_RECV_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "support/compiler.h"
#include "support/fault.h"
#include "support/logging.h"

namespace hdcps {

/**
 * Bounded MPSC queue with per-slot sequence flags. tryPush is safe from
 * any thread; tryPop must only be called by the owning (consumer) core.
 */
template <typename T>
class ReceiveQueue
{
  public:
    explicit ReceiveQueue(size_t capacity)
        : slots_(new Slot[capacity]), mask_(capacity - 1)
    {
        hdcps_check(isPowerOf2(capacity) && capacity >= 2,
                    "receive queue capacity must be a power of two >= 2");
        for (size_t i = 0; i < capacity; ++i)
            slots_[i].seq.store(i, std::memory_order_relaxed);
    }

    /**
     * Deposit a task from a (possibly remote) producer. Returns false
     * when the queue is full — the caller falls back to the software
     * overflow path, mirroring the hRQ-spills-to-sRQ design in hardware.
     */
    bool
    tryPush(const T &value)
    {
        // Fault drill: report full without touching the ring, so tests
        // can force the overflow spill path at will.
        if (faultFires(faultsite::SrqPushFull))
            return false;
        size_t pos = writePtr_.load(std::memory_order_relaxed);
        while (true) {
            Slot &slot = slots_[pos & mask_];
            size_t seq = slot.seq.load(std::memory_order_acquire);
            intptr_t diff =
                static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
            if (diff == 0) {
                // Slot free at this ticket: claim it by advancing the
                // write pointer (the paper's atomic increment).
                if (writePtr_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    slot.value = value;
                    // Publishing seq = pos+1 is the paper's "set the
                    // flag" step that makes the slot visible.
                    slot.seq.store(pos + 1, std::memory_order_release);
                    return true;
                }
            } else if (diff < 0) {
                return false; // full
            } else {
                pos = writePtr_.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Deposit up to `count` values with a single write-pointer claim.
     * Returns how many were enqueued (0..count): one successful CAS
     * advances the write pointer by n and claims n contiguous slots,
     * one coordination round-trip for the whole batch instead of one
     * per task. When the ring lacks room for the full batch the
     * largest claimable prefix is taken. HdCpsScheduler sends one
     * envelope at a time (tryPush); bench/e2e's sRQ replay still
     * prices the ring with batched claims.
     *
     * Correctness of the contiguous claim: the single consumer frees
     * slots in ticket order, so if the slot for ticket pos+n-1 is free
     * then every slot for tickets pos..pos+n-2 is free too — probing
     * the *last* slot of a candidate batch suffices.
     */
    size_t
    tryPushN(const T *values, size_t count)
    {
        if (count == 0)
            return 0;
        // Same fault drill as tryPush: the whole batch reports full.
        if (faultFires(faultsite::SrqPushFull))
            return 0;
        size_t pos = writePtr_.load(std::memory_order_relaxed);
        while (true) {
            size_t n = count < capacity() ? count : capacity();
            bool stale = false;
            while (n > 0) {
                Slot &slot = slots_[(pos + n - 1) & mask_];
                size_t seq = slot.seq.load(std::memory_order_acquire);
                intptr_t diff = static_cast<intptr_t>(seq) -
                                static_cast<intptr_t>(pos + n - 1);
                if (diff == 0)
                    break; // last slot free ⇒ the whole prefix is
                if (diff > 0) {
                    stale = true; // another producer claimed past pos
                    break;
                }
                --n; // ring full at this depth: try a shorter claim
            }
            if (stale) {
                pos = writePtr_.load(std::memory_order_relaxed);
                continue;
            }
            if (n == 0)
                return 0;
            // One CAS claims all n tickets (the paper's atomic
            // increment, amortized over the batch).
            if (!writePtr_.compare_exchange_weak(
                    pos, pos + n, std::memory_order_relaxed)) {
                continue; // pos was reloaded by the failed CAS
            }
            for (size_t i = 0; i < n; ++i) {
                Slot &slot = slots_[(pos + i) & mask_];
                slot.value = values[i];
                slot.seq.store(pos + i + 1, std::memory_order_release);
            }
            return n;
        }
    }

    /** Owner-only: take the oldest deposited task. */
    bool
    tryPop(T &out)
    {
        // Fault drill: spurious emptiness. The deposited entries stay
        // in place, so no task is lost — the owner just retries later.
        if (faultFires(faultsite::SrqPopFail))
            return false;
        return drainPop(out);
    }

    /**
     * Owner-only tryPop that bypasses the SrqPopFail fault drill.
     * Teardown drains must observe the real ring state: a destructor
     * that stops on an injected "empty" while entries remain would
     * leak any pooled payloads still in those slots (the drill's
     * entries-stay-put contract assumes the owner retries later, which
     * a destructor never does). Not for use on scheduling paths —
     * those go through tryPop so the drill stays effective.
     */
    bool
    drainPop(T &out)
    {
        // Only the owner writes readPtr_, so relaxed loads/stores keep
        // the owner path as cheap as the old plain field while letting
        // sizeApprox() read it from any thread without a data race.
        size_t read = readPtr_.load(std::memory_order_relaxed);
        Slot &slot = slots_[read & mask_];
        size_t seq = slot.seq.load(std::memory_order_acquire);
        if (static_cast<intptr_t>(seq) -
                static_cast<intptr_t>(read + 1) != 0) {
            return false; // empty (or producer mid-write)
        }
        out = slot.value;
        slot.seq.store(read + mask_ + 1, std::memory_order_release);
        readPtr_.store(read + 1, std::memory_order_relaxed);
        return true;
    }

    /**
     * Owner-only: pop up to `count` published entries into `out`.
     * Returns how many were taken (0..count). The run stops at the
     * first unpublished slot, exactly like repeated tryPop, but pays
     * one fault check and one readPtr_ advance for the whole run
     * instead of one per entry. Per-slot seq releases stay — each
     * freed ticket must be individually visible to producers probing
     * that slot after wraparound.
     */
    size_t
    tryPopN(T *out, size_t count)
    {
        if (count == 0)
            return 0;
        // Fault drill: the whole run reports empty; entries stay put.
        if (faultFires(faultsite::SrqPopFail))
            return 0;
        size_t read = readPtr_.load(std::memory_order_relaxed);
        size_t n = 0;
        while (n < count) {
            Slot &slot = slots_[(read + n) & mask_];
            size_t seq = slot.seq.load(std::memory_order_acquire);
            if (static_cast<intptr_t>(seq) -
                    static_cast<intptr_t>(read + n + 1) != 0)
                break; // empty (or producer mid-write)
            out[n] = slot.value;
            slot.seq.store(read + n + mask_ + 1,
                           std::memory_order_release);
            ++n;
        }
        if (n != 0)
            readPtr_.store(read + n, std::memory_order_relaxed);
        return n;
    }

    /** Owner-only fast emptiness probe: true when the next slot holds
     *  no published entry. One acquire load — callers use it to gate a
     *  full drain pass, which is where the fault drill (SrqPopFail)
     *  still applies. */
    bool
    emptyApprox() const
    {
        size_t read = readPtr_.load(std::memory_order_relaxed);
        const Slot &slot = slots_[read & mask_];
        size_t seq = slot.seq.load(std::memory_order_acquire);
        return static_cast<intptr_t>(seq) -
                   static_cast<intptr_t>(read + 1) !=
               0;
    }

    /** Approximate occupancy (exact for the owner when quiescent).
     *  Safe from any thread — both pointers are atomics. Loading
     *  readPtr_ first keeps the difference non-negative (readPtr_ is
     *  monotonic and never passes writePtr_); the clamp bounds the
     *  overshoot a racing pop can add. */
    size_t
    sizeApprox() const
    {
        size_t r = readPtr_.load(std::memory_order_relaxed);
        size_t w = writePtr_.load(std::memory_order_acquire);
        size_t n = w - r;
        return n > capacity() ? capacity() : n;
    }

    size_t capacity() const { return mask_ + 1; }

  private:
    struct Slot
    {
        std::atomic<size_t> seq;
        T value;
    };

    std::unique_ptr<Slot[]> slots_;
    size_t mask_;
    alignas(cacheLineBytes) std::atomic<size_t> writePtr_{0};
    /** Owner-advanced; atomic so non-owner sizeApprox() reads are not
     *  UB (TSan-clean). */
    alignas(cacheLineBytes) std::atomic<size_t> readPtr_{0};
};

} // namespace hdcps

#endif // HDCPS_CORE_RECV_QUEUE_H_
