/**
 * @file
 * Parallel sweep runner: enumerate a scenario's parameter grid, run
 * the points on --jobs threads (common/parallel.h), collect per-point
 * result rows, and emit machine-readable JSON / CSV plus an aligned
 * text table.
 */

#ifndef PRACLEAK_SIM_RUNNER_H
#define PRACLEAK_SIM_RUNNER_H

#include <map>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace pracleak::sim {

/**
 * Every knob for one sweep invocation, with defaults that mean "run
 * the whole grid on this host and print progress".  New execution
 * modes add a nested group here instead of a new runScenario
 * parameter, so callers and tests stop rippling per feature.
 */
struct RunOptions
{
    /**
     * Points run at once, the calling thread included; 0 = hardware
     * concurrency.
     */
    unsigned jobs = 0;

    /** Axis overrides: name -> replacement values (CLI --set). */
    std::map<std::string, std::vector<JsonValue>> overrides;

    /**
     * Like overrides, but silently skipped when the scenario has no
     * such axis (CLI --try-set) -- lets one flag set apply across
     * scenarios with different grids -- or when overrides already
     * names the axis.
     */
    std::map<std::string, std::vector<JsonValue>> softOverrides;

    /** Print one line per completed point. */
    bool progress = true;

    /**
     * Truncate every axis to its first value after overrides (the
     * `--smoke` CLI flag): a one-point sweep that exercises the
     * scenario end-to-end as cheaply as possible.
     */
    bool firstPointOnly = false;

    /** Restart-safety: journal completed points under a directory. */
    struct Checkpoint
    {
        /**
         * Journal each completed point to an append-only JSONL file,
         * `<scenario>.jsonl` (sim/checkpoint.h), under this
         * directory as workers finish; "" disables.
         */
        std::string directory;

        /**
         * Load the existing journal, skip its completed points, and
         * merge their rows back in -- the final result is
         * byte-identical (modulo wall_seconds and the provenance
         * timestamp) to an uninterrupted run.  Without it an
         * existing journal is overwritten.  Throws
         * std::runtime_error when the journal belongs to a different
         * sweep (scenario, grid hash, git revision).  A missing
         * journal is a fresh start.
         */
        bool resume = false;
    };
    Checkpoint checkpoint;

    /** Observability knobs; all off/default means zero overhead. */
    struct Telemetry
    {
        /**
         * Write a Chrome trace-event JSON (Perfetto-loadable) of the
         * sweep here: one lane per sweep thread, a span per grid
         * point with nested sim / journal-flush phases, instants for
         * checkpoint writes.  "" disables (no timing calls, no allocation).  Tracing
         * observes the harness only -- sweep output is byte-identical
         * with it on or off.
         */
        std::string traceOut;

        /**
         * Write the windowed command-bus time series of every
         * simulation the sweep runs here (telemetry/timeseries.h):
         * one header / window-lines / summary block per grid-point
         * simulation, JSONL unless the path ends in ".csv".  ""
         * disables -- the controller hot path then pays exactly one
         * null-pointer test.  The series observes the bus only;
         * sweep JSON/CSV output is byte-identical with it on or off.
         */
        std::string seriesOut;
    };
    Telemetry telemetry;
};

/** Everything a sweep produced. */
struct SweepResult
{
    std::string scenario;
    std::string title;
    std::string notes;
    JsonValue grid;                  //!< effective axes after overrides
    std::vector<ResultRow> rows;     //!< point params merged in
    std::vector<ResultRow> summary;
    unsigned jobs = 0;               //!< --jobs, 0 resolved
    std::size_t points = 0;          //!< grid size
    double wallSeconds = 0.0;

    JsonValue toJson() const;
    std::string toCsv() const;       //!< rows only (summary excluded)
};

/**
 * Run @p scenario under @p options.  Throws std::invalid_argument
 * for bad axis overrides and std::runtime_error for a journal that
 * cannot resume; exceptions from scenario points propagate.
 */
SweepResult runScenario(const Scenario &scenario,
                        const RunOptions &options = {});

/** runScenario by registry name; throws when the name is unknown. */
SweepResult runScenarioByName(const std::string &name,
                              const RunOptions &options = {});

/** Print rows (and summary, when present) as aligned text tables. */
void printTables(const SweepResult &result);

/** Render rows as CSV (union of keys, first-seen column order). */
std::string rowsToCsv(const std::vector<ResultRow> &rows);

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_RUNNER_H
