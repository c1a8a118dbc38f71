#include "cps/swminnow.h"

namespace hdcps {

SwMinnowScheduler::SwMinnowScheduler(unsigned numWorkers,
                                     const MinnowConfig &config)
    : ObimBase(numWorkers), minnowConfig_(config),
      claimSeq_(config.numMinnows)
{
    hdcps_check(config.numMinnows >= 1, "need at least one minnow thread");
    hdcps_check(isPowerOf2(config.bufferCapacity),
                "staging buffer capacity must be a power of two");
    staging_.reserve(numWorkers);
    for (unsigned i = 0; i < numWorkers; ++i) {
        staging_.push_back(
            std::make_unique<SpscRing<Task>>(config.bufferCapacity));
    }
    minnows_.reserve(config.numMinnows);
    for (unsigned i = 0; i < config.numMinnows; ++i)
        minnows_.emplace_back([this, i] { minnowLoop(i); });
}

SwMinnowScheduler::~SwMinnowScheduler()
{
    stop_.store(true, std::memory_order_release);
    for (auto &t : minnows_)
        t.join();
}

bool
SwMinnowScheduler::tryPop(unsigned tid, Task &out)
{
    if (popVisible(tid, out))
        return true;
    // Nothing visible, but a helper may hold claimed tasks between the
    // map and a ring. Wait out every claim in flight, then look once
    // more: whatever those claims took is now staged or back in the map,
    // so a lone worker never reports empty while work remains.
    for (unsigned m = 0; m < minnowConfig_.numMinnows; ++m) {
        const uint64_t seq = claimSeq_[m].load(std::memory_order_acquire);
        if (seq & 1) {
            while (claimSeq_[m].load(std::memory_order_acquire) == seq)
                std::this_thread::yield();
        }
    }
    return popVisible(tid, out);
}

bool
SwMinnowScheduler::popVisible(unsigned tid, Task &out)
{
    // Staged work first: this is the decoupling benefit — the worker
    // avoids touching the shared map while its helper keeps up.
    if (staging_[tid]->tryPop(out)) {
        // Serve-time rank re-check: the helper staged whatever was
        // best *at claim time*, and pushes since then may have opened
        // strictly better bags. Serving the stale stage anyway would
        // reintroduce near-domain-width priority drift, so a staged
        // task whose bag trails the map's current best goes back
        // (attribution-free — the helper claimed it, its enqueue is
        // already counted) and the worker falls through to the map.
        const unsigned delta = currentDelta();
        const Priority stagedBase = (out.priority >> delta) << delta;
        Priority mapBest = 0;
        if (bestNonEmptyBase(mapBest) && mapBest < stagedBase) {
            repushClaimed(out);
            return ObimBase::tryPop(tid, out);
        }
        if (metrics_ && metrics_->tick(tid)) {
            metrics_->record(
                tid, WorkerSeries::QueueOccupancy,
                static_cast<double>(staging_[tid]->sizeApprox()));
        }
        return true;
    }
    // Fall back to the plain OBIM path so a lagging helper can never
    // starve a worker or strand tasks.
    return ObimBase::tryPop(tid, out);
}

void
SwMinnowScheduler::minnowLoop(unsigned minnowId)
{
    // Static partition: minnow m serves workers with
    // tid % numMinnows == m (the paper's 36-4 split gives 9 each).
    const unsigned stride = minnowConfig_.numMinnows;
    std::atomic<uint64_t> &seq = claimSeq_[minnowId];
    std::vector<Task> chunk;
    while (!stop_.load(std::memory_order_acquire)) {
        bool didWork = false;
        for (unsigned w = minnowId; w < numWorkers(); w += stride) {
            SpscRing<Task> &ring = *staging_[w];
            if (ring.sizeApprox() > ring.capacity() / 2)
                continue;
            seq.fetch_add(1, std::memory_order_acq_rel); // claim in flight
            chunk.clear();
            size_t got = claimChunk(chunk, minnowConfig_.prefetchChunk);
            if (got == 0) {
                seq.fetch_add(1, std::memory_order_release);
                continue;
            }
            didWork = true;
            size_t staged = 0;
            for (; staged < chunk.size(); ++staged) {
                if (!ring.tryPush(chunk[staged]))
                    break;
            }
            // Anything that did not fit goes straight back to the map —
            // via the attribution-free path: push(w, ...) from this
            // helper thread would write worker w's registry slots
            // concurrently with worker w itself (single-writer
            // violation) and count the task's enqueue a second time.
            // Helpers keep their own aggregate spill counter instead.
            if (staged < chunk.size()) {
                spilled_.fetch_add(chunk.size() - staged,
                                   std::memory_order_relaxed);
                for (size_t i = staged; i < chunk.size(); ++i)
                    repushClaimed(chunk[i]);
            }
            seq.fetch_add(1, std::memory_order_release); // published
        }
        if (!didWork)
            std::this_thread::yield();
    }
}

} // namespace hdcps
