/**
 * @file
 * PMOD: OBIM with runtime bag-utilization tuning (Yesil et al., SC'19).
 *
 * PMOD removes OBIM's fixed-delta weakness by observing how many tasks
 * workers actually drain from each bag before abandoning it. Bags that
 * are consistently under-filled mean the priority range per bag is too
 * narrow (delta too small → many near-empty bags → drift and map churn),
 * so delta grows; bags that are consistently over-filled mean diverging
 * priorities are being merged (delta too large → work inefficiency), so
 * delta shrinks. Adaptation happens every 32 bag retirements.
 */

#ifndef HDCPS_CPS_PMOD_H_
#define HDCPS_CPS_PMOD_H_

#include <atomic>

#include "cps/obim.h"

namespace hdcps {

/** OBIM with adaptive delta. */
class PmodScheduler : public ObimBase
{
  public:
    explicit PmodScheduler(unsigned numWorkers) : ObimBase(numWorkers) {}

    const char *name() const override { return "pmod"; }

  protected:
    void onBagExhausted(size_t tasksTaken) override;

  private:
    std::atomic<uint64_t> retiredBags_{0};
    std::atomic<uint64_t> retiredTasks_{0};
};

} // namespace hdcps

#endif // HDCPS_CPS_PMOD_H_
