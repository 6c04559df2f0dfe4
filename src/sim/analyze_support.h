/**
 * @file
 * Offline leakage analyzer over bus time-series files: the
 * `pracbench analyze` subcommand.
 *
 * Loads the JSONL series that `--series-out` emits (one header /
 * window-lines / summary block per simulation, see
 * telemetry/timeseries.h), classifies each window as attacker-ON or
 * attacker-OFF, and applies the same activity-correlation rule as
 * the `defense_matrix_leakage` scenario to the *bus-visible* signal
 * alone: channel-wide events (RFMab) against any probe, per-bank
 * events (RFMpb on the victim's bank) against a same-bank probe.
 * The point of the exercise is that the verdicts -- ABO/ACB leak
 * channel-wide, Graphene/PB-RFM leak same-bank, PARA/TB-RFM don't --
 * are recoverable from the recorded series without re-running any
 * simulation, which is exactly the paper's attacker model: the
 * adversary only ever sees the bus.
 */

#ifndef PRACLEAK_SIM_ANALYZE_SUPPORT_H
#define PRACLEAK_SIM_ANALYZE_SUPPORT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "telemetry/timeseries.h"

namespace pracleak::sim {

/** True when @p at lies in one of the [begin, end) @p ranges. */
inline bool
inOnWindow(const std::vector<std::pair<Cycle, Cycle>> &ranges, Cycle at)
{
    for (const auto &[begin, end] : ranges)
        if (at >= begin && at < end)
            return true;
    return false;
}

/** One parsed simulation record from a series file. */
struct SeriesSim
{
    std::string label;
    std::string mitigation;
    Cycle windowCycles = 0;
    std::uint32_t channels = 1;
    std::int64_t victimBank = -1; //!< -1: unknown, scan all banks
    std::vector<std::pair<Cycle, Cycle>> onWindows;

    /** One window line: the observer's record plus its channel. */
    struct Window : telemetry::SeriesWindow
    {
        std::uint32_t channel = 0;
    };
    std::vector<Window> windows;

    /** Whether window @p index's midpoint lies in an ON range. */
    bool
    windowOn(std::uint64_t index) const
    {
        return inOnWindow(onWindows,
                          index * windowCycles + windowCycles / 2);
    }
};

/** Event totals split by the victim's ON/OFF phases. */
struct OnOffCounts
{
    std::uint64_t on = 0;
    std::uint64_t off = 0;
};

/**
 * The defense-matrix activity-correlation rule (the single shared
 * definition; scenarios_defense.cpp applies it to probe-latency
 * spikes, the analyzer to bus event counts): signal concentrated in
 * ON phases beyond what a periodic emitter would show.
 */
inline bool
correlatedCounts(const OnOffCounts &counts)
{
    return counts.on > 2 * counts.off + 3;
}

/** What one simulation's series leaks, and to whom. */
struct LeakVerdict
{
    std::string label;
    std::string mitigation;
    std::uint64_t windows = 0;   //!< materialized windows analyzed
    std::uint64_t bursts = 0;    //!< maximal runs of RFM-active windows
    OnOffCounts channel;         //!< channel-wide events (RFMab)
    OnOffCounts sameBank;        //!< victim-bank RFMpb events
    bool leakChannel = false;
    bool leakSameBank = false;

    bool leaked() const { return leakChannel || leakSameBank; }

    /** Same vocabulary as defense_matrix_leakage's summary rows. */
    std::string observableTo() const;
};

/**
 * Parse one JSONL series file (possibly holding several simulation
 * records).  On malformed input returns what was parsed and sets
 * @p error; a clean parse clears it.
 */
std::vector<SeriesSim> loadSeriesFile(const std::string &path,
                                      std::string *error);

/**
 * ON/OFF-distinguishability analysis of one simulation.  Windows
 * are classified ON when their midpoint cycle falls inside a header
 * `on_windows` range; a header without ranges falls back to ACT
 * activity (a window with more than half the peak ACT count is ON).
 */
LeakVerdict analyzeSeries(const SeriesSim &sim);

/** CLI options for `pracbench analyze`. */
struct AnalyzeCliOptions
{
    std::vector<std::string> paths;   //!< series files (JSONL)
    bool defenseMatrix = false;       //!< per-defense verdict summary
    std::string outJson;              //!< "" = stdout tables only
    bool table = true;
};

/** `pracbench analyze` entry point; returns the process exit code. */
int runAnalyzeCommand(const AnalyzeCliOptions &options);

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_ANALYZE_SUPPORT_H
