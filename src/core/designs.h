/**
 * @file
 * The threaded scheduler-design registry: every `Scheduler` design
 * that the CLI, the soak, the test matrices and the examples build by
 * name. Adding a design is one entry (with its rank-error bound). It
 * lives in `hdcps_core` because it builds the HD-CPS schedulers, and
 * `hdcps_core` already depends on `hdcps_cps`.
 */

#ifndef HDCPS_CORE_DESIGNS_H_
#define HDCPS_CORE_DESIGNS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "core/hdcps.h"
#include "cps/scheduler.h"
#include "support/topology.h"

namespace hdcps {

/** The per-construction values a caller may choose. A design ignores
 *  what it has no use for: only the hdcps-* designs read `topology`
 *  and `sampleInterval`, and obim/pmod/swminnow draw no random
 *  numbers. */
struct DesignParams
{
    uint64_t seed = 1;
    Topology topology{};
    unsigned sampleInterval = HdCpsConfig{}.sampleInterval;
};

struct DesignEntry
{
    const char *name;
    /**
     * Quiescent single-worker rank-error bound, in wide-domain ranks
     * (one rank = a 2^33 priority step; the conformance battery drains
     * 512 permuted ranks). Exact backends owe 0. The slack for the
     * relaxed backends is a measured envelope with margin, not a
     * derived law: multiqueue's best-of-2 sampling plus its
     * insertion/deletion buffering misses the global min by a handful
     * of ranks (measured ≤ 24 across the test seeds, deterministic per
     * seed), and hdcps-mq's relaxed local backend by ≤ 20 — both far
     * below the near-domain-width (~511 ranks) signature of a 32-bit
     * priority truncation, which is what the bound must catch.
     * swminnow's helper races the push phase and stages whatever was
     * best *at claim time*, but the worker re-checks the staged bag
     * against the map's best at serve time and repushes stale stages,
     * so the only work that can still be served out of rank order is
     * work the map cannot see: the staging ring (64 slots at the
     * default bufferCapacity) plus one helper chunk in flight between
     * claim and stage (prefetchChunk = 16). 64 + 16 + margin = 96 — a
     * structural capacity bound, not a timing envelope, and far below
     * the ~511-rank truncation signature.
     */
    uint64_t rankBoundSteps;
    std::unique_ptr<Scheduler> (*make)(unsigned workers,
                                       const DesignParams &params);
};

/** Every threaded design. The order is the soak's round-robin order,
 *  so pinned-seed soak commands replay the same scenarios. */
std::span<const DesignEntry> threadedDesigns();

/** The entry called `name`, or nullptr. */
const DesignEntry *findThreadedDesign(std::string_view name);

/** The registered names joined by `separator` (for --list output and
 *  unknown-design errors). */
std::string threadedDesignNames(const char *separator = ", ");

} // namespace hdcps

#endif // HDCPS_CORE_DESIGNS_H_
