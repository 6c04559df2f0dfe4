/**
 * @file
 * Analytic DDR5 energy model.
 *
 * The paper reports Table 5 (energy overhead of TPRAC) from a real
 * power model; we substitute IDD-style per-operation energies plus a
 * background power term.  Absolute joules are approximate, but the
 * *relative* overheads (mitigation vs. execution-time energy) that
 * Table 5 reports survive this substitution because both designs are
 * scored with the same constants.
 */

#ifndef PRACLEAK_DRAM_ENERGY_H
#define PRACLEAK_DRAM_ENERGY_H

#include <cstdint>

#include "common/types.h"

namespace pracleak {

/** Per-operation energies (nJ) and background power (W) per channel. */
struct EnergyParams
{
    double actPreNj = 1.4;      //!< one ACT + eventual PRE (8 KB row)
    double readNj = 1.1;        //!< one BL16 read burst
    double writeNj = 1.2;       //!< one BL16 write burst
    double refAbNj = 180.0;     //!< one all-bank refresh, per rank
    double rowMitigationNj = 4.0;   //!< 4 victim refreshes + counter reset
    double backgroundW = 1.2;   //!< static + peripheral power (4 ranks)
};

/** Raw event counts for one (window of a) simulation run. */
struct EnergyCounts
{
    std::uint64_t acts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t mitigatedRows = 0;
    Cycle elapsed = 0;

    /**
     * Aggregate another channel's counts.  elapsed is wall time, not
     * work: channels tick in lockstep, so it takes the max (identity
     * for the single-channel case).
     */
    EnergyCounts &operator+=(const EnergyCounts &other);

    bool operator==(const EnergyCounts &other) const = default;
};

/** Decomposed energy for one simulation run. */
struct EnergyBreakdown
{
    double actPreNj = 0.0;
    double readNj = 0.0;
    double writeNj = 0.0;
    double refreshNj = 0.0;
    double mitigationNj = 0.0;  //!< RFM-driven row mitigations
    double backgroundNj = 0.0;

    double
    totalNj() const
    {
        return actPreNj + readNj + writeNj + refreshNj + mitigationNj +
               backgroundNj;
    }

    /** Aggregate another channel's breakdown (component-wise sum). */
    EnergyBreakdown &operator+=(const EnergyBreakdown &other);
};

/** Score a set of raw event counts. */
EnergyBreakdown computeEnergy(const EnergyCounts &counts,
                              const EnergyParams &params = {});

} // namespace pracleak

#endif // PRACLEAK_DRAM_ENERGY_H
