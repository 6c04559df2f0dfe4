/**
 * @file
 * Evaluated-design configuration and run helpers shared by every
 * performance scenario (Figs. 10-14, Tables 4-5, ablations).
 *
 * The scenario runner, the examples, and the benchmark all build the
 * same SystemConfig for a given (design, budget) pair.  Baseline runs
 * are memoized: a sweep that compares N designs against the "none"
 * baseline on the same workload performs one baseline simulation,
 * not N.
 */

#ifndef PRACLEAK_SIM_DESIGN_H
#define PRACLEAK_SIM_DESIGN_H

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/system.h"
#include "tprac/analysis.h"
#include "tprac/tb_rfm.h"
#include "workload/suite.h"

namespace pracleak::sim {

/** Design variants evaluated in the paper's performance section. */
struct DesignConfig
{
    std::string label;

    /**
     * Defense registry key (mitigation/registry.h).  The registry
     * derives the defense's parameters (BAT, TB-Window, RAAIMT,
     * Graphene threshold, PARA probability) from nbo via
     * configureDefense.
     */
    std::string mitigation = "none";

    /**
     * DRAM spec registry name (dram/dram_spec.h: "ddr5-8000b",
     * "ddr5-4800-1r", ...).  Empty keeps the paper's DDR5-8000B
     * configuration; scenarios expose it as a `spec` grid axis.
     */
    std::string spec;

    std::uint32_t nbo = 1024;       //!< NBO = NRH proxy (see DESIGN.md)
    std::uint32_t nmit = 1;         //!< PRAC level
    std::uint32_t trefPeriodRefs = 0;   //!< 0 = no TREF
    bool counterReset = true;
    bool perBankRfm = false;        //!< TPRAC-PB (Section 7.2)

    /** Random-RFM injection rate ("obfuscation"); <0 = default. */
    double randomRfmPerTrefi = -1.0;

    /** Interleaved memory channels (power of two). */
    std::uint32_t channels = 1;

    /** Ranks per channel; 0 keeps the spec default (4). */
    std::uint32_t ranks = 0;

    /** Channel-interleave granularity in bytes (power of two). */
    std::uint32_t channelInterleaveBytes = 256;

    friend auto operator<=>(const DesignConfig &,
                            const DesignConfig &) = default;
};

/**
 * Decode a design-axis label into a DesignConfig.  Labels are the
 * paper's: "abo-only", "abo+acb-rfm", "tprac", "tprac-pb" (TPRAC with
 * per-bank RFMs), or "baseline" (the "none" defense), optionally
 * suffixed with "+tref/N" (TREF co-design) or "-noreset".  Throws
 * std::invalid_argument for any other label.
 */
DesignConfig designFromLabel(std::string label, std::uint32_t nrh,
                             std::uint32_t nmit);

/** Instruction budgets for bench runs (scaled-down from the paper). */
struct RunBudget
{
    std::uint64_t warmup = 50'000;
    std::uint64_t measure = 250'000;

    friend auto operator<=>(const RunBudget &,
                            const RunBudget &) = default;
};

/** Build the full-system configuration for one design point. */
SystemConfig makeSystemConfig(const DesignConfig &design,
                              const RunBudget &budget);

/** One (workload, design) run. */
RunResult runOne(const SuiteEntry &entry, const DesignConfig &design,
                 const RunBudget &budget, std::uint32_t cores = 4);

/**
 * Run @p design and its "none" baseline on @p entry.  The baseline
 * leg is served from a process-wide memoization cache keyed on the
 * baseline design itself, so design sweeps over the same workload pay
 * for it once.
 */
struct PairResult
{
    RunResult baseline;
    RunResult design;
};

PairResult runNormalizedPair(const SuiteEntry &entry,
                             const DesignConfig &design,
                             const RunBudget &budget,
                             std::uint32_t cores = 4);

/** Drop all memoized baseline runs (tests / measurement hygiene). */
void clearBaselineCache();

/**
 * Find a suite entry by workload name in the standard suite; throws
 * std::invalid_argument for unknown names (lists the valid ones).
 */
const SuiteEntry &findSuiteEntry(const std::string &name);

/** Names of the standard-suite entries, optionally filtered. */
std::vector<std::string> suiteEntryNames();
std::vector<std::string> suiteEntryNames(MemIntensity intensity);

/** High + Medium entry names (the paper's sensitivity subset). */
std::vector<std::string> memoryIntensiveEntryNames();

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_DESIGN_H
