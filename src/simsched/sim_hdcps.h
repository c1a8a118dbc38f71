/**
 * @file
 * HD-CPS on the simulated machine — both the software design
 * (HD-CPS:SW and its sRQ / sRQ+TDF / sRQ+TDF+AC / sRQ+TDF+SC ablation
 * points) and the hardware-assisted design (hRQ and hRQ+hPQ, i.e.
 * HD-CPS:HW).
 *
 * Software mode models the paper's Xeon runs: remote enqueues deposit
 * into the destination's software receive queue (the sender pays an
 * atomic increment plus a coherent slot write; the owner later pays a
 * coherence miss to read it), the private software PQ charges O(log n)
 * rebalance cycles per operation, and the TDF heuristic/drift sampling
 * run exactly as Algorithms 2-3 describe.
 *
 * Hardware mode adds: asynchronous 128-bit task messages over the mesh
 * into a per-core hRQ (sender unblocks after a 2-cycle injection), an
 * hPQ in front of the software PQ (5-cycle access, evict-lowest to the
 * software queue whose rebalances happen off the critical path), and
 * the single-flag capacity flow control of Section III-D.
 */

#ifndef HDCPS_SIMSCHED_SIM_HDCPS_H_
#define HDCPS_SIMSCHED_SIM_HDCPS_H_

#include <deque>
#include <string>
#include <vector>

#include "core/bag_policy.h"
#include "core/drift.h"
#include "core/tdf.h"
#include "pq/dary_heap.h"
#include "sim/hwqueue.h"
#include "sim/machine.h"
#include "simsched/common.h"

namespace hdcps {

/** All HD-CPS knobs the figure harnesses sweep. */
struct SimHdCpsConfig
{
    // Receive path.
    bool useHrq = false;
    uint32_t hrqEntries = 32;
    // Priority queue path.
    bool useHpq = false;
    uint32_t hpqEntries = 48;
    // Task distribution factor.
    enum class TdfMode { Off, Adaptive, Fixed };
    TdfMode tdfMode = TdfMode::Adaptive;
    unsigned tdfPct = 98; ///< percent, for Off/Fixed modes
    TdfController::Config tdf{};
    /**
     * Tasks per drift sample (Algorithm 3). The paper uses 2000 on
     * full-size inputs (~10-100x larger than the generated bench
     * inputs); the default here is scaled down proportionally so the
     * heuristic gets a comparable number of decisions per run.
     * Figure 13:A sweeps this parameter, including the paper's 2000.
     */
    unsigned sampleInterval = 500;
    // Bags.
    BagPolicy bags{BagMode::Selective, BagTransport::Pull, 3, 10};
};

/** HD-CPS design (software or hardware-assisted) on the simulator. */
class SimHdCps : public SimDesign
{
  public:
    SimHdCps(const SimHdCpsConfig &config, std::string name);

    /** Paper configuration points. */
    static SimHdCpsConfig configSrq();
    static SimHdCpsConfig configSrqTdf();
    static SimHdCpsConfig configSrqTdfAc();
    static SimHdCpsConfig configSw();      ///< HD-CPS:SW
    static SimHdCpsConfig configHrqOnly(); ///< HD-CPS:SW + hRQ
    static SimHdCpsConfig configHpqOnly(); ///< HD-CPS:SW + hPQ
    static SimHdCpsConfig configHw();      ///< HD-CPS:HW (hRQ + hPQ)

    const char *name() const override { return name_.c_str(); }
    void boot(SimMachine &m, const std::vector<Task> &initial) override;
    bool step(SimMachine &m, unsigned core) override;

    unsigned currentTdf() const;
    uint64_t bagsCreated() const { return bagsCreated_; }
    uint64_t hrqSpills() const { return hrqSpills_; }
    /** hPQ inserts that evicted an entry to the software PQ. */
    uint64_t hpqEvictions() const { return hpqEvictions_; }
    size_t hrqHighWater() const;
    size_t hpqHighWater() const;

  private:
    struct SrqEntry
    {
        Task task;
        unsigned src;
    };

    struct CoreState
    {
        std::deque<SrqEntry> swRq;
        HwRecvQueue hrq{0};
        HwPriorityQueue hpq{0};
        DAryHeap<Task, TaskOrder> swPq;
        Cycle swPqReady = 0; ///< background rebalance completes here
        std::vector<Task> activeBag;
        uint64_t rqWrites = 0;
        uint64_t rqReads = 0;
        uint64_t popsSinceSample = 0;
    };

    unsigned chooseDest(SimMachine &m, unsigned core);
    void sendSingle(SimMachine &m, unsigned core, const Task &task);
    void sendEnvelope(SimMachine &m, unsigned core, unsigned dest,
                      const Task &task, uint32_t wireBits);
    void pushLocal(SimMachine &m, unsigned core, const Task &task,
                   Component comp);
    void drainIncoming(SimMachine &m, unsigned core);
    bool dequeue(SimMachine &m, unsigned core, Task &out);
    void unpackBag(SimMachine &m, unsigned core, const Task &metadata);
    void distribute(SimMachine &m, unsigned core,
                    std::vector<Task> &children);
    void afterPop(SimMachine &m, unsigned core, Priority priority);

    SimHdCpsConfig config_;
    std::string name_;
    std::vector<CoreState> cores_;
    SimBagTable bagTable_;
    DriftTracker drift_{1};
    TdfController tdfController_;
    std::vector<uint8_t> msgInFlight_; ///< src*N+dst capacity flags
    unsigned numCores_ = 0;
    unsigned publishesSinceUpdate_ = 0;
    uint64_t bagsCreated_ = 0;
    uint64_t hrqSpills_ = 0;
    uint64_t hpqEvictions_ = 0;
    std::vector<Task> children_;
    std::vector<DeliveredMessage> delivered_;
};

} // namespace hdcps

#endif // HDCPS_SIMSCHED_SIM_HDCPS_H_
