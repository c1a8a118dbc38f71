#include "simsched/sim_hdcps.h"

#include <algorithm>

#include "support/logging.h"

namespace hdcps {

namespace {

/** Simulated-memory address of a core's receive-queue slot. */
uint64_t
rqSlotAddr(const SimMachine &m, unsigned core, uint64_t slot)
{
    return m.coreLocalAddr(core, 0x1000 + (slot % 256) * 16);
}

/** Address of a core's drift mailbox in the master's region. */
uint64_t
mailboxAddr(const SimMachine &m, unsigned core)
{
    return m.coreLocalAddr(0, 0x100 + core * 64);
}

} // namespace

SimHdCps::SimHdCps(const SimHdCpsConfig &config, std::string name)
    : config_(config), name_(std::move(name)),
      tdfController_(config.tdf)
{
    hdcps_check(config.sampleInterval >= 1,
                "sample interval must be >= 1");
    hdcps_check(config.tdfPct <= 100, "tdfPct is a percentage");
}

SimHdCpsConfig
SimHdCps::configSrq()
{
    SimHdCpsConfig config;
    config.tdfMode = SimHdCpsConfig::TdfMode::Off;
    config.bags.mode = BagMode::None;
    return config;
}

SimHdCpsConfig
SimHdCps::configSrqTdf()
{
    SimHdCpsConfig config;
    config.bags.mode = BagMode::None;
    return config;
}

SimHdCpsConfig
SimHdCps::configSrqTdfAc()
{
    SimHdCpsConfig config;
    config.bags.mode = BagMode::Always;
    return config;
}

SimHdCpsConfig
SimHdCps::configSw()
{
    return SimHdCpsConfig{};
}

SimHdCpsConfig
SimHdCps::configHrqOnly()
{
    SimHdCpsConfig config;
    config.useHrq = true;
    return config;
}

SimHdCpsConfig
SimHdCps::configHpqOnly()
{
    SimHdCpsConfig config;
    config.useHpq = true;
    return config;
}

SimHdCpsConfig
SimHdCps::configHw()
{
    SimHdCpsConfig config;
    config.useHrq = true;
    config.useHpq = true;
    return config;
}

unsigned
SimHdCps::currentTdf() const
{
    switch (config_.tdfMode) {
      case SimHdCpsConfig::TdfMode::Adaptive:
        return tdfController_.current();
      case SimHdCpsConfig::TdfMode::Fixed:
      case SimHdCpsConfig::TdfMode::Off:
        return config_.tdfPct;
    }
    return config_.tdfPct;
}

void
SimHdCps::boot(SimMachine &m, const std::vector<Task> &initial)
{
    numCores_ = m.config().numCores;
    cores_.clear();
    cores_.resize(numCores_);
    for (auto &core : cores_) {
        core.hrq = HwRecvQueue(config_.useHrq ? config_.hrqEntries : 0);
        core.hpq =
            HwPriorityQueue(config_.useHpq ? config_.hpqEntries : 0);
    }
    drift_.reset(numCores_);
    tdfController_.reset(config_.tdf);
    msgInFlight_.assign(size_t(numCores_) * numCores_, 0);
    publishesSinceUpdate_ = 0;
    bagsCreated_ = 0;
    hrqSpills_ = 0;
    hpqEvictions_ = 0;
    // Chunked-interleaved seeding (see SimReld::boot).
    for (size_t i = 0; i < initial.size(); ++i)
        cores_[(i / seedChunk) % numCores_].swPq.push(initial[i]);
}

unsigned
SimHdCps::chooseDest(SimMachine &m, unsigned core)
{
    if (numCores_ == 1 || m.rng(core).below(100) >= currentTdf())
        return core;
    unsigned dest =
        static_cast<unsigned>(m.rng(core).below(numCores_ - 1));
    if (dest >= core)
        ++dest;
    if (!config_.useHrq)
        return dest;
    // Hardware flow control: skip destinations whose capacity flag for
    // this sender is raised (Section III-D); bounded retries.
    for (unsigned attempt = 0; attempt < 4; ++attempt) {
        if (!msgInFlight_[size_t(core) * numCores_ + dest])
            return dest;
        dest = static_cast<unsigned>(m.rng(core).below(numCores_ - 1));
        if (dest >= core)
            ++dest;
    }
    return dest;
}

void
SimHdCps::sendEnvelope(SimMachine &m, unsigned core, unsigned dest,
                       const Task &task, uint32_t wireBits)
{
    const SimConfig &config = m.config();
    if (dest == core) {
        pushLocal(m, core, task, Component::Enqueue);
        ++m.breakdownOf(core).localEnqueues;
        return;
    }
    ++m.breakdownOf(core).remoteEnqueues;
    if (config_.useHrq) {
        // Asynchronous hardware message: inject and move on. The
        // pipeline still serializes on feeding the payload flits into
        // the injection port, which is what makes push-mode bag
        // transport non-free.
        Cycle inject = 2 + wireBits / config.flitBits;
        m.advance(core, inject, Component::Enqueue);
        m.sendTaskMessage(core, dest, task, wireBits, 0, core);
        uint8_t &flag = msgInFlight_[size_t(core) * numCores_ + dest];
        if (flag < 255)
            ++flag;
        return;
    }
    // Software sRQ: atomic increment of the destination's write
    // pointer plus a coherent write into the slot. The destination is
    // *not* blocked — that is the decoupling.
    CoreState &remote = cores_[dest];
    Cycle cost = config.atomicRmwCost;
    cost += m.cache().access(core,
                             rqSlotAddr(m, dest, remote.rqWrites++),
                             true, m.now(core));
    m.advance(core, cost, Component::Enqueue);
    remote.swRq.push_back(SrqEntry{task, core});
}

void
SimHdCps::sendSingle(SimMachine &m, unsigned core, const Task &task)
{
    sendEnvelope(m, core, chooseDest(m, core), task,
                 m.config().taskBits);
}

void
SimHdCps::pushLocal(SimMachine &m, unsigned core, const Task &task,
                    Component comp)
{
    const SimConfig &config = m.config();
    CoreState &self = cores_[core];
    if (config_.useHpq) {
        m.advance(core, config.hwQueueLatency, comp);
        std::optional<Task> evicted = self.hpq.pushEvict(task);
        if (evicted) {
            ++hpqEvictions_;
            // Spill to the software PQ in the background: dedicated
            // logic rebalances while the core keeps running.
            self.swPq.push(*evicted);
            Cycle start = std::max(self.swPqReady, m.now(core));
            self.swPqReady =
                start + swPqOpCost(config, self.swPq.size());
        }
        return;
    }
    Cycle cost = swPqOpCost(config, self.swPq.size());
    m.advance(core, cost, comp);
    self.swPq.push(task);
}

void
SimHdCps::drainIncoming(SimMachine &m, unsigned core)
{
    const SimConfig &config = m.config();
    CoreState &self = cores_[core];

    if (config_.useHrq) {
        delivered_.clear();
        m.deliveredMessages(core, delivered_);
        for (const DeliveredMessage &msg : delivered_) {
            // Arrival lowers the sender's capacity flag once the task
            // state machine moves it onward.
            uint8_t &flag =
                msgInFlight_[size_t(msg.tag) * numCores_ + core];
            if (flag > 0)
                --flag;
            if (!self.hrq.tryPush(msg.task)) {
                ++hrqSpills_;
                self.swRq.push_back(SrqEntry{msg.task, msg.tag});
            }
        }
        // ISR/task state machine: move hRQ entries into the PQ at the
        // hardware queue access latency each.
        Task task;
        while (self.hrq.tryPop(task)) {
            m.advance(core, config.hwQueueLatency, Component::Enqueue);
            pushLocal(m, core, task, Component::Enqueue);
        }
    }

    while (!self.swRq.empty()) {
        SrqEntry entry = self.swRq.front();
        self.swRq.pop_front();
        // Reading the slot the sender wrote costs a coherence miss.
        Cycle cost = m.cache().access(
            core, rqSlotAddr(m, core, self.rqReads++), false,
            m.now(core));
        m.advance(core, cost, Component::Enqueue);
        pushLocal(m, core, entry.task, Component::Enqueue);
    }
}

void
SimHdCps::unpackBag(SimMachine &m, unsigned core, const Task &metadata)
{
    const SimConfig &config = m.config();
    CoreState &self = cores_[core];
    SimBag &bag = bagTable_.get(metadata);
    hdcps_check(!bag.consumed, "bag %u consumed twice", metadata.data);
    bag.consumed = true;

    uint64_t payloadBytes = bag.tasks.size() * 16;
    Cycle cost;
    if (config_.bags.transport == BagTransport::Pull) {
        // Coherent loads from the creator's memory: first touch pays
        // the remote fetch, the rest of each line hits locally.
        cost = m.cache().scan(core, bag.payloadAddr, payloadBytes, false,
                              m.now(core));
    } else {
        // Push transport already moved the bytes with the message; the
        // receiver reads them from its own region.
        uint64_t local = m.allocLocal(core, payloadBytes);
        cost = m.cache().scan(core, local, payloadBytes, false,
                              m.now(core));
    }
    cost += Cycle(bag.tasks.size()) * config.aluOpCost;
    m.advance(core, cost, Component::Dequeue);
    self.activeBag = std::move(bag.tasks);
}

bool
SimHdCps::dequeue(SimMachine &m, unsigned core, Task &out)
{
    const SimConfig &config = m.config();
    CoreState &self = cores_[core];

    if (!self.activeBag.empty()) {
        out = self.activeBag.back();
        self.activeBag.pop_back();
        m.advance(core, 2, Component::Dequeue);
        return true;
    }

    if (config_.useHpq) {
        const bool hwHas = !self.hpq.empty();
        const bool swHas = !self.swPq.empty();
        if (!hwHas && !swHas)
            return false;
        // Peek both sides; the software top is readable at constant
        // latency because balancing happens in the background.
        bool takeSw = swHas &&
                      (!hwHas ||
                       TaskOrder{}(self.swPq.top(),
                                   Task{self.hpq.minPriority(), 0, 0}));
        if (takeSw) {
            // If a rebalance is still pending, the core stalls for it.
            if (self.swPqReady > m.now(core))
                m.stallUntil(core, self.swPqReady);
            m.advance(core, config.hwQueueLatency + 4,
                      Component::Dequeue);
            out = self.swPq.pop();
            Cycle start = std::max(self.swPqReady, m.now(core));
            self.swPqReady =
                start + swPqOpCost(config, self.swPq.size() + 1);
        } else {
            m.advance(core, config.hwQueueLatency, Component::Dequeue);
            out = self.hpq.popMin();
        }
        return true;
    }

    if (self.swPq.empty())
        return false;
    Cycle cost = swPqOpCost(config, self.swPq.size());
    m.advance(core, cost, Component::Dequeue);
    out = self.swPq.pop();
    return true;
}

void
SimHdCps::distribute(SimMachine &m, unsigned core,
                     std::vector<Task> &children)
{
    const SimConfig &config = m.config();
    m.taskCreated(children.size());
    if (config_.bags.mode == BagMode::None) {
        for (const Task &child : children)
            sendSingle(m, core, child);
        return;
    }

    BagPlan plan = config_.bags.plan(std::move(children));
    for (const Task &task : plan.singles)
        sendSingle(m, core, task);
    for (Bag &bag : plan.bags) {
        ++bagsCreated_;
        m.breakdownOf(core).bagsCreated++;
        m.breakdownOf(core).tasksInBags += bag.tasks.size();
        uint64_t payloadBytes = bag.tasks.size() * 16;
        // Creating the bag: write the payload into local memory.
        uint64_t payloadAddr = m.allocLocal(core, payloadBytes);
        Cycle cost = Cycle(bag.tasks.size()) * config.aluOpCost;
        cost += m.cache().scan(core, payloadAddr, payloadBytes, true,
                               m.now(core));
        m.advance(core, cost, Component::Enqueue);

        size_t bagSize = bag.tasks.size();
        Task metadata = bagTable_.add(bag.priority, std::move(bag.tasks),
                                      core, payloadAddr);
        uint32_t wireBits = config.taskBits;
        if (config_.bags.transport == BagTransport::Push) {
            // Payload flits travel with the metadata.
            wireBits += static_cast<uint32_t>(bagSize) * config.taskBits;
        }
        sendEnvelope(m, core, chooseDest(m, core), metadata, wireBits);
    }
}

void
SimHdCps::afterPop(SimMachine &m, unsigned core, Priority priority)
{
    m.notePopped(core, priority);
    CoreState &self = cores_[core];
    if (++self.popsSinceSample < config_.sampleInterval)
        return;
    self.popsSinceSample = 0;
    if (config_.tdfMode != SimHdCpsConfig::TdfMode::Adaptive)
        return;

    // Algorithm 3: report the latest priority to the master core.
    drift_.publish(core, priority);
    Cycle cost = m.cache().access(core, mailboxAddr(m, core), true,
                                  m.now(core));
    m.advance(core, cost, Component::Comm);

    // Algorithm 2: "after receiving task priorities from all cores,
    // the dedicated core calculates ... the average priority drift".
    // The update fires once a full round of reports has arrived — not
    // on the master's own processing schedule, which would freeze
    // adaptation whenever the master starves. The dedicated core's
    // reduction happens off the workers' critical path; we charge the
    // reporting core only its mailbox write above.
    if (++publishesSinceUpdate_ >= numCores_) {
        publishesSinceUpdate_ = 0;
        tdfController_.update(drift_.computeDrift());
    }
}

bool
SimHdCps::step(SimMachine &m, unsigned core)
{
    drainIncoming(m, core);
    Task task;
    if (!dequeue(m, core, task))
        return false;
    if (SimBagTable::isBag(task)) {
        unpackBag(m, core, task);
        if (!dequeue(m, core, task))
            return false; // bag was empty (cannot happen; be safe)
    }
    afterPop(m, core, task.priority);
    children_.clear();
    m.processTask(core, task, children_);
    distribute(m, core, children_);
    m.taskRetired();
    return true;
}

size_t
SimHdCps::hrqHighWater() const
{
    size_t best = 0;
    for (const auto &core : cores_)
        best = std::max(best, core.hrq.highWater());
    return best;
}

size_t
SimHdCps::hpqHighWater() const
{
    size_t best = 0;
    for (const auto &core : cores_)
        best = std::max(best, core.hpq.highWater());
    return best;
}

} // namespace hdcps
