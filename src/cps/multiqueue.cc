#include "cps/multiqueue.h"

#include <algorithm>

#include "support/logging.h"

namespace hdcps {

namespace {

/** Shared queues per worker: the classic MultiQueue "c" parameter. */
constexpr unsigned kQueuesPerWorker = 2;

/** Descending order for the insertion buffer (minimum at the back). */
inline bool
descending(const Task &a, const Task &b)
{
    return TaskOrder{}(b, a);
}

} // namespace

void
MultiQueueScheduler::MqQueue::publish()
{
    count.store(heap.size(), std::memory_order_relaxed);
    cachedTop.store(heap.empty() ? kEmptyTop : heap.top().priority,
                    std::memory_order_release);
}

void
MultiQueueScheduler::MqQueue::pushN(const Task *tasks, size_t n)
{
    std::lock_guard<std::mutex> lock(mutex);
    heap.pushBulk(tasks, tasks + n);
    publish();
}

bool
MultiQueueScheduler::MqQueue::popBatch(Priority bound, size_t maxN,
                                       std::vector<Task> &out)
{
    std::lock_guard<std::mutex> lock(mutex);
    // Failure paths still republish: that is how a stale cached top
    // (left by the race this validation defends against) self-heals.
    if (heap.empty() || heap.top().priority > bound) {
        publish();
        return false;
    }
    const size_t n = std::min(maxN, heap.size());
    for (size_t i = 0; i < n; ++i)
        out.push_back(heap.pop());
    publish();
    return true;
}

MultiQueueScheduler::MultiQueueScheduler(unsigned numWorkers,
                                         const MultiQueueConfig &config)
    : Scheduler(numWorkers), config_(config)
{
    hdcps_check(numWorkers >= 1, "need at least one worker");
    config_.stickiness = std::max(config_.stickiness, 1u);
    config_.insertionBufferCap = std::max<size_t>(config_.insertionBufferCap, 1);
    config_.deletionBufferCap = std::max<size_t>(config_.deletionBufferCap, 1);
    // Worker-blocked layout: queues [w*c, (w+1)*c) belong to worker w,
    // which is what the local/remote attribution in push() relies on.
    const size_t numQueues = size_t(numWorkers) * kQueuesPerWorker;
    queues_.reserve(numQueues);
    for (size_t i = 0; i < numQueues; ++i)
        queues_.push_back(std::make_unique<MqQueue>());
    workers_.reserve(numWorkers);
    for (unsigned i = 0; i < numWorkers; ++i) {
        auto w = std::make_unique<WorkerState>();
        w->rng.reseed(workerStreamSeed(config_.seed, i));
        w->insertionBuffer.reserve(config_.insertionBufferCap);
        w->deletionBuffer.reserve(config_.deletionBufferCap);
        workers_.push_back(std::move(w));
    }
    externalRng_.reseed(workerStreamSeed(config_.seed, numWorkers));
}

void
MultiQueueScheduler::flushInsertion(unsigned, WorkerState &w)
{
    if (w.insertionBuffer.empty())
        return;
    queues_[w.insQueue]->pushN(w.insertionBuffer.data(),
                               w.insertionBuffer.size());
    w.insertionBuffer.clear();
}

void
MultiQueueScheduler::publishBuffered(WorkerState &w)
{
    w.buffered.store(w.insertionBuffer.size() +
                         (w.deletionBuffer.size() - w.deletionPos),
                     std::memory_order_release);
}

void
MultiQueueScheduler::push(unsigned tid, const Task &task)
{
    if (tid >= numWorkers()) {
        externalPush(task);
        return;
    }
    WorkerState &w = *workers_[tid];
    if (w.insOpsLeft == 0) {
        // Flush before redrawing so every staged task lands on the
        // queue it was attributed to when pushed.
        flushInsertion(tid, w);
        w.insQueue = unsigned(w.rng.below(queues_.size()));
        w.insOpsLeft = config_.stickiness;
    }
    --w.insOpsLeft;
    auto it = std::upper_bound(w.insertionBuffer.begin(),
                               w.insertionBuffer.end(), task, descending);
    w.insertionBuffer.insert(it, task);
    if (metrics_) {
        const bool local = w.insQueue / kQueuesPerWorker == tid;
        metrics_->add(tid, local ? WorkerCounter::LocalEnqueues
                                 : WorkerCounter::RemoteEnqueues);
    }
    if (w.insertionBuffer.size() >= config_.insertionBufferCap)
        flushInsertion(tid, w);
    publishBuffered(w);
}

bool
MultiQueueScheduler::refillDeletion(WorkerState &w)
{
    const size_t nq = queues_.size();
    for (int attempt = 0; attempt < 3; ++attempt) {
        if (w.popOpsLeft == 0) {
            w.popA = unsigned(w.rng.below(nq));
            w.popB = unsigned(w.rng.below(nq));
            if (nq > 1) {
                while (w.popB == w.popA)
                    w.popB = unsigned(w.rng.below(nq));
            }
            w.popOpsLeft = config_.stickiness;
        }
        --w.popOpsLeft;
        const Priority ta =
            queues_[w.popA]->cachedTop.load(std::memory_order_acquire);
        const Priority tb =
            queues_[w.popB]->cachedTop.load(std::memory_order_acquire);
        if (ta == kEmptyTop && tb == kEmptyTop) {
            w.popOpsLeft = 0;
            continue;
        }
        // Pop the better of the two peeks; the loser's published top
        // becomes the validation bound under the winner's lock.
        const unsigned pick = ta <= tb ? w.popA : w.popB;
        const Priority bound = ta <= tb ? tb : ta;
        if (queues_[pick]->popBatch(bound, config_.deletionBufferCap,
                                    w.deletionBuffer))
            return true;
        // Raced: winner emptied or its real top is now worse than the
        // loser looked. Redraw instead of popping a worse task.
        w.popOpsLeft = 0;
    }
    return false;
}

bool
MultiQueueScheduler::scanRefill(WorkerState &w)
{
    for (auto &queue : queues_) {
        if (queue->popBatch(kEmptyTop, config_.deletionBufferCap,
                            w.deletionBuffer))
            return true;
    }
    return false;
}

bool
MultiQueueScheduler::tryPop(unsigned tid, Task &out)
{
    if (tid >= numWorkers())
        return externalPop(out);
    WorkerState &w = *workers_[tid];
    if (w.deletionPos >= w.deletionBuffer.size()) {
        w.deletionBuffer.clear();
        w.deletionPos = 0;
        // Full scan when sampling fails, so no task can be stranded
        // behind stale cached tops or unlucky draws.
        if (!refillDeletion(w))
            scanRefill(w);
    }
    const bool haveDel = w.deletionPos < w.deletionBuffer.size();
    const bool haveIns = !w.insertionBuffer.empty();
    if (!haveDel && !haveIns) {
        publishBuffered(w);
        return false;
    }
    const bool fromIns =
        haveIns && (!haveDel || TaskOrder{}(w.insertionBuffer.back(),
                                            w.deletionBuffer[w.deletionPos]));
    if (fromIns) {
        out = w.insertionBuffer.back();
        w.insertionBuffer.pop_back();
    } else {
        out = w.deletionBuffer[w.deletionPos++];
        if (w.deletionPos >= w.deletionBuffer.size()) {
            w.deletionBuffer.clear();
            w.deletionPos = 0;
        }
    }
    publishBuffered(w);
    if (metrics_ && metrics_->tick(tid)) {
        metrics_->record(tid, WorkerSeries::QueueOccupancy,
                         static_cast<double>(sizeApprox()));
    }
    return true;
}

void
MultiQueueScheduler::externalPush(const Task &task)
{
    size_t q;
    {
        std::lock_guard<std::mutex> lock(externalMutex_);
        q = externalRng_.below(queues_.size());
    }
    // Single locked push; external threads have no buffers and no
    // per-worker metrics slot, so neither is touched here.
    queues_[q]->pushN(&task, 1);
}

bool
MultiQueueScheduler::externalPop(Task &out)
{
    std::vector<Task> one;
    for (auto &queue : queues_) {
        if (queue->popBatch(kEmptyTop, 1, one)) {
            out = one.front();
            return true;
        }
    }
    return false;
}

size_t
MultiQueueScheduler::sizeApprox() const
{
    size_t total = 0;
    for (const auto &queue : queues_)
        total += queue->count.load(std::memory_order_relaxed);
    for (const auto &w : workers_)
        total += w->buffered.load(std::memory_order_acquire);
    return total;
}

} // namespace hdcps
