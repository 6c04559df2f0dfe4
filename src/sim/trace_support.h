/**
 * @file
 * Bridge between the scenario/CLI layer and the trace subsystem
 * (src/trace/): record a suite workload once, replay it under any
 * registered defense, and flatten replay stats into result rows.
 * Shared by `pracbench record` / `pracbench replay` and the
 * trace_replay_defense_sweep scenario.
 */

#ifndef PRACLEAK_SIM_TRACE_SUPPORT_H
#define PRACLEAK_SIM_TRACE_SUPPORT_H

#include <map>
#include <string>
#include <vector>

#include "sim/design.h"
#include "sim/scenario.h"
#include "trace/replay.h"
#include "trace/trace.h"

namespace pracleak::sim {

/** A recorded run: the trace plus the originating full simulation. */
struct RecordedRun
{
    trace::TraceData trace;
    RunResult run;
};

/**
 * Run @p entry under @p design with trace taps armed on every
 * channel; the returned trace replays against any defense.
 */
RecordedRun recordSuiteRun(const SuiteEntry &entry,
                           const DesignConfig &design,
                           const RunBudget &budget,
                           std::uint32_t cores = 4);

/** Flatten one replay outcome into a result row. */
ResultRow replayRow(const trace::ReplayResult &result);

/** Flatten recorded per-channel stats (summed) into row fields. */
ResultRow recordedStatsRow(const trace::TraceData &trace);

// --- pracbench subcommands -----------------------------------------

/** `pracbench record` settings. */
struct RecordCliOptions
{
    std::string dir;                    //!< output directory
    std::vector<std::string> workloads; //!< empty = whole suite

    /** Single-value settings from --set (mitigation, spec, nbo,
     *  warmup, measure, channels, cores); unknown keys error. */
    std::map<std::string, std::vector<JsonValue>> settings;

    bool progress = true;

    /** Chrome trace-event JSON of the recording; "" disables. */
    std::string traceOut;

    /** Windowed bus time series of the recording runs, one record
     *  per workload (telemetry/timeseries.h); "" disables. */
    std::string seriesOut;
};

/** Record traces per workload into dir/<workload>.trc; 0 on success. */
int runRecordTraceCommand(const RecordCliOptions &options);

/** `pracbench replay` settings. */
struct ReplayCliOptions
{
    std::string tracePath;

    /** Defenses to replay under (--set mitigation=a,b); empty = the
     *  recorded defense. */
    std::vector<std::string> mitigations;

    /**
     * Exit non-zero unless every replay under the recorded defense
     * reproduces the recorded stats bit-identically (CI gate).
     */
    bool verify = false;

    std::string outJson;                //!< optional JSON destination
    bool table = true;
    bool progress = true;

    /** Chrome trace-event JSON of the replays; "" disables. */
    std::string traceOut;

    /** Windowed bus time series of the replays, one record per
     *  defense (telemetry/timeseries.h); "" disables. */
    std::string seriesOut;
};

/** Replay a trace across defenses; 0 on success. */
int runReplayCommand(const ReplayCliOptions &options);

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_TRACE_SUPPORT_H
