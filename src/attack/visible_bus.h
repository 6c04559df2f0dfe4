/**
 * @file
 * The attacker's view of the command bus: the latency thresholds that
 * separate "RFM in flight" from scheduler noise, derived from the
 * spec timing the simulator enforces.  The probe agents and both
 * attack experiments (the AES side channel and the covert channel)
 * read them here instead of re-deriving the numbers ad hoc.  See
 * src/attack/DESIGN.md for which maintenance events each probe can
 * see.
 */

#ifndef PRACLEAK_ATTACK_VISIBLE_BUS_H
#define PRACLEAK_ATTACK_VISIBLE_BUS_H

#include "common/types.h"
#include "dram/dram_spec.h"

namespace pracleak {

/**
 * Timing-derived facts about what an attacker can observe on one
 * channel.  Value type, cheap to construct from a spec.
 */
class VisibleBusModel
{
  public:
    static VisibleBusModel fromSpec(const DramSpec &spec);

    /** Total channel stall of one ABO Alert service (Nmit RFMabs). */
    Cycle alertServiceCycles() const
    {
        return tRfmAb_ * nmit_;
    }

    /**
     * Latency threshold separating an Alert-service stall from
     * scheduler noise: just under the full Nmit-RFMab drain, so a
     * probe that was parked behind the service trips it while
     * queueing jitter does not.  (The AES side-channel prober's
     * historical `tRFMab * Nmit - 100 ns` expression.)
     */
    Cycle rfmSpikeThreshold() const
    {
        return alertServiceCycles() - nsToCycles(100);
    }

    /**
     * Latency threshold separating a *single* RFM-blocked probe read
     * from a normal one: an RFMab blocks the channel for 350 ns, a
     * normal probe read finishes well under 100 ns, and one caught
     * behind an RFM reports 400+ ns -- 300 ns cleanly separates the
     * populations (ProbeAgent's historical constant).
     */
    static Cycle probeSpikeThreshold()
    {
        return nsToCycles(300);
    }

  private:
    Cycle tRfmAb_ = 0;
    std::uint32_t nmit_ = 1;
};

} // namespace pracleak

#endif // PRACLEAK_ATTACK_VISIBLE_BUS_H
