#include "cps/obim.h"

#include "support/logging.h"

namespace hdcps {

namespace {

/** Tasks a worker claims per map visit. */
constexpr size_t kChunkSize = 16;

/** Starting log2 of the priority range per bag (PMOD adapts it). */
constexpr unsigned kInitialDelta = 3;

} // namespace

ObimBase::ObimBase(unsigned numWorkers)
    : Scheduler(numWorkers), delta_(kInitialDelta)
{
    hdcps_check(numWorkers >= 1, "need at least one worker");
    workers_.reserve(numWorkers);
    for (unsigned i = 0; i < numWorkers; ++i)
        workers_.push_back(std::make_unique<WorkerState>());
}

ObimBag *
ObimBase::findOrCreateBag(Priority base, bool &created)
{
    created = false;
    {
        std::shared_lock<std::shared_mutex> lock(mapMutex_);
        auto it = bags_.find(base);
        if (it != bags_.end())
            return it->second.get();
    }
    std::unique_lock<std::shared_mutex> lock(mapMutex_);
    auto [it, inserted] = bags_.try_emplace(base, nullptr);
    if (inserted) {
        it->second = std::make_unique<ObimBag>(base);
        created = true;
    }
    return it->second.get();
}

ObimBag *
ObimBase::findBestBag()
{
    std::shared_lock<std::shared_mutex> lock(mapMutex_);
    for (auto &[base, bag] : bags_) {
        if (!bag->empty())
            return bag.get();
    }
    return nullptr;
}

bool
ObimBase::bestNonEmptyBase(Priority &base) const
{
    std::shared_lock<std::shared_mutex> lock(mapMutex_);
    for (const auto &[key, bag] : bags_) {
        if (!bag->empty()) {
            base = key;
            return true;
        }
    }
    return false;
}

void
ObimBase::push(unsigned tid, const Task &task)
{
    unsigned delta = delta_.load(std::memory_order_relaxed);
    Priority base = (task.priority >> delta) << delta;
    bool created = false;
    findOrCreateBag(base, created)->push(task);
    if (metrics_) {
        // Every OBIM push lands in the shared map, i.e. is "remote".
        metrics_->add(tid, WorkerCounter::RemoteEnqueues);
        if (created)
            metrics_->add(tid, WorkerCounter::BagsCreated);
    }
}

bool
ObimBase::tryPop(unsigned tid, Task &out)
{
    WorkerState &w = *workers_[tid];

    if (!w.chunk.empty()) {
        out = w.chunk.back();
        w.chunk.pop_back();
        sampleOccupancy(tid, w);
        return true;
    }

    // Refill from the worker's current bag first (bulk processing of a
    // bag is where OBIM's synchronization savings come from).
    if (w.currentBag) {
        size_t got = w.currentBag->popChunk(w.chunk, kChunkSize);
        if (got > 0) {
            w.takenFromCurrent += got;
            out = w.chunk.back();
            w.chunk.pop_back();
            sampleOccupancy(tid, w);
            return true;
        }
        onBagExhausted(w.takenFromCurrent);
        w.currentBag = nullptr;
        w.takenFromCurrent = 0;
    }

    // Search the global map for the best non-empty bag. Another worker
    // (or a Software-Minnow helper) may drain the chosen bag between
    // the scan and the claim; rescan rather than report empty while
    // other bags still hold work.
    ObimBag *best = nullptr;
    size_t got = 0;
    while (got == 0) {
        best = findBestBag();
        if (!best)
            return false;
        got = best->popChunk(w.chunk, kChunkSize);
    }
    w.currentBag = best;
    w.takenFromCurrent = got;
    out = w.chunk.back();
    w.chunk.pop_back();
    sampleOccupancy(tid, w);
    return true;
}

void
ObimBase::sampleOccupancy(unsigned tid, WorkerState &w)
{
    if (!metrics_ || !metrics_->tick(tid))
        return;
    metrics_->record(tid, WorkerSeries::QueueOccupancy,
                     static_cast<double>(w.chunk.size()));
    metrics_->set(tid, WorkerGauge::QueueDepth,
                  static_cast<double>(w.takenFromCurrent));
}

void
ObimBase::repushClaimed(const Task &task)
{
    unsigned delta = delta_.load(std::memory_order_relaxed);
    Priority base = (task.priority >> delta) << delta;
    bool created = false;
    findOrCreateBag(base, created)->push(task);
    // Deliberately no metrics: re-inserting a claimed task is internal
    // movement, not a new enqueue (counting it again double-counted
    // RemoteEnqueues/BagsCreated in the Fig. 11 breakdowns, and wrote
    // the serviced worker's slots from the helper thread).
}

size_t
ObimBase::claimChunk(std::vector<Task> &out, size_t maxCount)
{
    ObimBag *best = findBestBag();
    if (!best)
        return 0;
    return best->popChunk(out, maxCount);
}

size_t
ObimBase::numBags() const
{
    std::shared_lock<std::shared_mutex> lock(mapMutex_);
    return bags_.size();
}

} // namespace hdcps
