/**
 * @file
 * Analytic worst-case security model for TPRAC (paper Section 4.2).
 *
 * Implements the Feinting/Wave-attack analysis of Equations (1)-(5):
 * given a TB-RFM interval (TB-Window), compute the maximum number of
 * activations an optimal adversary can land on a single target row
 * (TMAX).  TPRAC is secure iff TMAX < NBO, so the inverse problem --
 * the largest safe TB-Window for a given NBO -- configures the
 * defense, and the same machinery derives the Bank Activation
 * Threshold (BAT) for the ABO+ACB-RFM baseline.
 *
 * Refinement over the paper's closed form: we subtract the channel
 * time consumed by the TB-RFM itself (tRFMab) from each window, and
 * both refresh and RFM blocking time from the per-tREFW activation
 * budget, since the adversary cannot activate while the channel is
 * blocked.
 */

#ifndef PRACLEAK_TPRAC_ANALYSIS_H
#define PRACLEAK_TPRAC_ANALYSIS_H

#include <cstdint>

#include "dram/dram_spec.h"

namespace pracleak {

/** Inputs to the Feinting-attack analysis. */
struct FeintingParams
{
    double trcNs = 52.0;        //!< row-cycle time
    double trefiNs = 3900.0;    //!< refresh interval
    double trefwNs = 32.0e6;    //!< refresh window (counter-reset period)
    double trfcNs = 410.0;      //!< refresh blocking time
    double trfmabNs = 350.0;    //!< RFM blocking time
    std::uint64_t rowsPerBank = 128 * 1024;

    /** Populate from a DramSpec. */
    static FeintingParams fromSpec(const DramSpec &spec);
};

/** ACTs an adversary fits in one TB-Window (Eq. 2, minus tRFMab). */
std::uint64_t actsPerWindow(double window_ns, const FeintingParams &p);

/**
 * Number of Feinting rounds for an initial pool of @p r1 rows when
 * @p acts_per_window activations separate consecutive TB-RFMs (Eq. 3).
 */
std::uint64_t attackRounds(std::uint64_t r1,
                           std::uint64_t acts_per_window);

/** Target-row activations for pool size @p r1 (Eq. 4). */
std::uint64_t targetActivations(std::uint64_t r1,
                                std::uint64_t acts_per_window);

/**
 * Activation budget inside one tREFW after refresh and TB-RFM blocking
 * time is removed (the ~550K "MAXACT" of the paper).
 */
std::uint64_t maxActsPerTrefw(double window_ns, const FeintingParams &p);

/**
 * The optimal initial Feinting pool (Eq. 5): the number of
 * mitigations that fit in one tREFW when @p acts_per_window (non-zero)
 * ACTs separate consecutive TB-RFMs, capped at the bank's rows.
 */
std::uint64_t optimalPool(double window_ns,
                          std::uint64_t acts_per_window,
                          const FeintingParams &p);

/**
 * TMAX with per-tREFW counter reset: the pool is bounded by the number
 * of mitigations that fit in one window (Eq. 5).
 */
std::uint64_t tmaxWithReset(double window_ns, const FeintingParams &p);

/**
 * TMAX without counter reset: sweep the initial pool size up to the
 * rows-per-bank bound and take the worst case.
 */
std::uint64_t tmaxNoReset(double window_ns, const FeintingParams &p);

/** Dispatch on reset policy. */
std::uint64_t tmax(double window_ns, bool counter_reset,
                   const FeintingParams &p);

/**
 * Largest TB-Window (ns) such that TMAX stays strictly below @p nbo.
 * Searched at 0.01-tREFI granularity.  Returns 0 when even the
 * smallest window cannot protect @p nbo.
 */
double maxSafeWindowNs(std::uint32_t nbo, bool counter_reset,
                       const FeintingParams &p);

/**
 * Largest Bank Activation Threshold for the ABO+ACB-RFM baseline such
 * that the worst-case single-bank attacker never reaches @p nbo.  The
 * activity-driven RFM cadence of BAT activations is equivalent to a
 * TB-Window of BAT * tRC.
 */
std::uint32_t maxSafeBat(std::uint32_t nbo, bool counter_reset,
                         const FeintingParams &p);

} // namespace pracleak

#endif // PRACLEAK_TPRAC_ANALYSIS_H
