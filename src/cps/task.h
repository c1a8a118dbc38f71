/**
 * @file
 * The unit of scheduling shared by every CPS design in this library.
 *
 * The hardware-visible part of a task is 128 bits — exactly the
 * hRQ/hPQ entry size in the paper (Table I: "Task and Bag ID Size:
 * 128-bits"): a 64-bit priority and a 64-bit payload split into the
 * graph node and an algorithm-defined word (e.g. the tentative distance
 * for SSSP). Lower numeric priority means higher scheduling priority
 * throughout the library; workloads whose natural priority is "bigger
 * is better" (degree, rank) negate at task-creation time.
 *
 * Alongside the Table-I fields the host-side struct carries a
 * multi-tenant tag: the owning service job (0 = the one-shot runtime's
 * "no job") and the delivery attempt (bumped by the ExecutorService
 * retry path). The tag is software bookkeeping for the long-lived
 * scheduling service (runtime/executor_service.h) — it never enters
 * the simulated hardware queues' cost model, which still charges
 * 128-bit entries.
 */

#ifndef HDCPS_CPS_TASK_H_
#define HDCPS_CPS_TASK_H_

#include <cstdint>

namespace hdcps {

using Priority = uint64_t;

/** Service job tag carried by every task (0 = no job). */
using JobId = uint32_t;

/** One schedulable task; trivially copyable, 24 bytes. */
struct Task
{
    Priority priority = 0; ///< lower value = scheduled sooner
    uint32_t node = 0;     ///< graph node this task operates on
    uint32_t data = 0;     ///< algorithm-defined payload word
    JobId job = 0;         ///< owning service job (0 = none)
    /** Service incarnation word: low 24 bits = retry attempt (0 =
     *  first try), high 8 bits = preemption demote stamp (see
     *  runtime/executor_service.h packAttempt/retryAttemptOf). */
    uint32_t attempt = 0;

    friend bool
    operator==(const Task &a, const Task &b)
    {
        return a.priority == b.priority && a.node == b.node &&
               a.data == b.data && a.job == b.job &&
               a.attempt == b.attempt;
    }
};

static_assert(sizeof(Task) == 24,
              "Task is the 128-bit Table-I entry plus the 64-bit "
              "host-side job tag");

/** The (priority, node) pair an exact task order sorts by. */
struct OrderKey
{
    Priority priority;
    uint32_t node;
};

/** Min-heap ordering: true when a schedules before b. */
struct TaskOrder
{
    /** The fields operator() compares, lexicographically; heaps that
     *  pack them into one integer key (core/local_pq.h) read them here.
     */
    static OrderKey key(const Task &t) { return {t.priority, t.node}; }

    bool
    operator()(const Task &a, const Task &b) const
    {
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.node < b.node; // deterministic tie-break
    }
};

} // namespace hdcps

#endif // HDCPS_CPS_TASK_H_
