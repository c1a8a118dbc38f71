/**
 * @file
 * Deterministic fault injection for the scheduler stack.
 *
 * The paper's value proposition rests on slow-path behavior — sRQ
 * overflow spill, hRQ/hPQ spill-to-software, NoC contention — yet none
 * of those paths occur on demand: they need full queues, rare
 * interleavings, or adversarial inputs. Following the adversarial
 * stress-harness methodology of the Engineering MultiQueues line of
 * work, this registry names each such slow path as a *fault site* and
 * lets tests, benches, and the CLI force it deterministically:
 *
 *  - every-Nth invocation (`nth:N`),
 *  - seeded probability per invocation (`prob:P`),
 *  - one-shot on the Nth invocation (`once[:N]`),
 *  - injected delay on every invocation (`delay:AMOUNT`, nanoseconds
 *    for threaded sites, cycles for simulator sites).
 *
 * Cost model: with no registry installed (the default), every
 * instrumented site compiles to one relaxed atomic load of a global
 * pointer plus a predicted-not-taken branch — cheap enough to leave in
 * the production hot paths. With a registry installed, a site pays a
 * short linear scan over the armed entries (sites are armed in tests
 * and fault drills, never on the normal path).
 *
 * Thread safety: arm()/parseSpec() must happen before the registry is
 * installed or while no worker is running; fire()/amount() are safe
 * from any thread. Triggers are deterministic per site-invocation
 * index; under concurrency the *assignment* of indices to threads
 * follows the interleaving, which is the best any cross-thread
 * injection can promise.
 */

#ifndef HDCPS_SUPPORT_FAULT_H_
#define HDCPS_SUPPORT_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace hdcps {

/** Thrown by the `exec.process.throw` site (and usable by tests) to
 *  model a failing task-processing function. */
class FaultInjectedError : public std::runtime_error
{
  public:
    explicit FaultInjectedError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** How an armed fault site decides whether an invocation fires. */
enum class FaultMode : unsigned {
    EveryNth,    ///< fires on invocations N, 2N, 3N, ... (nth:1 = always)
    Probability, ///< fires with seeded probability P per invocation
    OneShot,     ///< fires exactly once, on the Nth invocation
    Delay,       ///< fires every invocation; amount() returns the arg
};

/** Canonical fault-site names (the catalog lives in fault.cc and is
 *  documented in DESIGN.md "Failure semantics & fault injection"). */
namespace faultsite {
inline constexpr char SrqPushFull[] = "srq.push.full";
inline constexpr char SrqPopFail[] = "srq.pop.fail";
inline constexpr char HdcpsOverflowSpill[] = "hdcps.overflow.spill";
inline constexpr char DriftPublishDelay[] = "drift.publish.delay";
inline constexpr char ExecPopFail[] = "exec.pop.fail";
inline constexpr char ExecProcessThrow[] = "exec.process.throw";
inline constexpr char ExecHelperDelay[] = "exec.helper.delay";
inline constexpr char SimHrqFull[] = "sim.hrq.full";
inline constexpr char SimHpqEvict[] = "sim.hpq.evict";
inline constexpr char SimNocDelay[] = "sim.noc.delay";
inline constexpr char SvcAdmitFull[] = "svc.admit.full";
inline constexpr char SvcJobFail[] = "svc.job.fail";
inline constexpr char SvcCancelRace[] = "svc.cancel.race";
inline constexpr char SvcWorkerWedge[] = "svc.worker.wedge";
inline constexpr char SvcWorkerDie[] = "svc.worker.die";
inline constexpr char SvcTaskPoison[] = "svc.task.poison";
} // namespace faultsite

/** One entry of the documented site catalog. */
struct FaultSiteInfo
{
    const char *name;
    const char *description;
};

/** The catalog of instrumented sites; `count` receives its length. */
const FaultSiteInfo *faultSiteCatalog(size_t &count);

/** True iff `name` is in the catalog (CLI typo guard). */
bool faultSiteKnown(const std::string &name);

/**
 * A set of armed fault sites with deterministic, seedable triggers.
 * Install at most one at a time via install(); instrumented code
 * consults the installed registry through the faultFires()/
 * faultAmount()/faultSleep() helpers below.
 */
class FaultRegistry
{
  public:
    explicit FaultRegistry(uint64_t seed = 1) : seed_(seed) {}

    FaultRegistry(const FaultRegistry &) = delete;
    FaultRegistry &operator=(const FaultRegistry &) = delete;

    /**
     * Arm one site. `arg` is per mode: N for EveryNth/OneShot (>= 1),
     * probability in [0, 1] for Probability, the delay amount for
     * Delay. Re-arming a site replaces its trigger and resets its
     * counters. Must not race with fire().
     */
    void arm(const std::string &site, FaultMode mode, double arg);

    /**
     * Arm sites from a `site:mode:arg[,site:mode:arg...]` string, e.g.
     * "srq.push.full:nth:1,sim.noc.delay:delay:300". Modes: nth, prob,
     * once (arg optional, default 1), delay. A site may appear at most
     * once per spec — duplicates are rejected with the offending token
     * named, since silently keeping the last entry hid typos. Returns
     * false and fills *error on malformed input (already-parsed entries
     * stay armed).
     */
    bool parseSpec(const std::string &spec, std::string *error = nullptr);

    /** Number of armed sites. */
    size_t armedCount() const { return sites_.size(); }

    /** Names of the armed sites, in arm order. */
    std::vector<std::string> armedSites() const;

    /** Trigger query: did this invocation of `site` fire? Unarmed
     *  sites never fire. Safe from any thread. */
    bool fire(const char *site);

    /** Delay query: the armed Delay amount when this invocation fires,
     *  else 0. Safe from any thread. */
    uint64_t amount(const char *site);

    /** Times `site` was consulted / actually fired (test assertions). */
    uint64_t invocations(const char *site) const;
    uint64_t fireCount(const char *site) const;

    /**
     * Make `registry` the process-wide active registry (nullptr
     * deactivates). The caller keeps ownership and must keep the
     * registry alive — and its configuration frozen — while installed.
     */
    static void install(FaultRegistry *registry);

    /** The active registry, or nullptr when fault injection is off. */
    static FaultRegistry *
    active()
    {
        return active_.load(std::memory_order_relaxed);
    }

  private:
    struct Site
    {
        std::string name;
        FaultMode mode = FaultMode::EveryNth;
        uint64_t n = 1;          ///< EveryNth period / OneShot index
        double probability = 0.0;
        uint64_t delay = 0;      ///< Delay amount (site-defined units)
        uint64_t hash = 0;       ///< per-site probability stream salt
        std::atomic<uint64_t> invocations{0};
        std::atomic<uint64_t> fired{0};
    };

    Site *find(const char *site);
    const Site *find(const char *site) const;

    uint64_t seed_;
    /** unique_ptr elements: Site holds atomics (not movable) and armed
     *  sites must stay address-stable while workers consult them. */
    std::vector<std::unique_ptr<Site>> sites_;

    static std::atomic<FaultRegistry *> active_;
};

/** Did the armed fault at `site` fire for this invocation? One relaxed
 *  load + predicted branch when fault injection is disabled. */
inline bool
faultFires(const char *site)
{
    FaultRegistry *registry = FaultRegistry::active();
    if (__builtin_expect(registry == nullptr, 1))
        return false;
    return registry->fire(site);
}

/** Armed delay amount for this invocation (0 when off / not firing). */
inline uint64_t
faultAmount(const char *site)
{
    FaultRegistry *registry = FaultRegistry::active();
    if (__builtin_expect(registry == nullptr, 1))
        return 0;
    return registry->amount(site);
}

namespace detail {
void faultSleepSlow(const char *site);
} // namespace detail

/** Sleep for the armed delay amount (nanoseconds) at `site`; no-op
 *  when fault injection is off. For threaded (host-time) sites. */
inline void
faultSleep(const char *site)
{
    if (__builtin_expect(FaultRegistry::active() != nullptr, 0))
        detail::faultSleepSlow(site);
}

/**
 * RAII installer for tests: constructs a registry, installs it, and
 * deactivates it on scope exit so faults never leak across tests.
 */
class ScopedFaultInjection
{
  public:
    explicit ScopedFaultInjection(uint64_t seed = 1) : registry_(seed)
    {
        FaultRegistry::install(&registry_);
    }

    ~ScopedFaultInjection() { FaultRegistry::install(nullptr); }

    ScopedFaultInjection(const ScopedFaultInjection &) = delete;
    ScopedFaultInjection &operator=(const ScopedFaultInjection &) = delete;

    FaultRegistry *operator->() { return &registry_; }
    FaultRegistry &registry() { return registry_; }

  private:
    FaultRegistry registry_;
};

} // namespace hdcps

#endif // HDCPS_SUPPORT_FAULT_H_
