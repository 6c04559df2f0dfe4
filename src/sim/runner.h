/**
 * @file
 * Parallel sweep runner: enumerate a scenario's parameter grid, fan
 * the points across a thread pool, collect per-point result rows,
 * and emit machine-readable JSON / CSV plus an aligned text table.
 *
 * A sweep runs the whole grid on one host or one deterministic shard
 * of an N-host fleet (RunOptions::shard); the shard journals fuse
 * back into one byte-identical result via mergeSweepFromJournals().
 */

#ifndef PRACLEAK_SIM_RUNNER_H
#define PRACLEAK_SIM_RUNNER_H

#include <map>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/scenario.h"
#include "sim/thread_pool.h"

namespace pracleak::sim {

/**
 * Every knob for one sweep invocation, with defaults that mean "run
 * the whole grid on this host and print progress".  New execution
 * modes add a nested group here instead of a new runScenario
 * parameter, so callers and tests stop rippling per feature.
 */
struct RunOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned jobs = 0;

    /** Axis overrides: name -> replacement values (CLI --set). */
    std::map<std::string, std::vector<JsonValue>> overrides;

    /**
     * Like overrides, but silently skipped when the scenario has no
     * such axis (CLI --try-set) -- lets one flag set apply across a
     * fleet of scenarios with different grids.
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
         * Journal each completed point to an append-only JSONL file
         * (sim/checkpoint.h) under this directory as workers finish;
         * "" disables.  The file is `<scenario>.jsonl` for a
         * whole-grid run and `<scenario>.shard-I-of-N.jsonl` for a
         * shard.
         */
        std::string directory;

        /**
         * Load the existing journal, skip its completed points, and
         * merge their rows back in -- the final result is
         * byte-identical (modulo wall_seconds and the provenance
         * timestamp) to an uninterrupted run.  Without it an
         * existing journal is overwritten.  Throws
         * std::runtime_error when the journal belongs to a different
         * sweep (scenario, grid hash, git revision, shard spec).  A
         * missing journal is a fresh start.
         */
        bool resume = false;
    };
    Checkpoint checkpoint;

    /**
     * Static fleet partition: run only the grid points this shard
     * owns (round-robin by index; see shardOwns()).  Requires
     * checkpoint.directory -- a shard's whole purpose is the journal
     * it leaves for `pracbench merge`.
     */
    ShardSpec shard;

    /** Observability knobs; all off/default means zero overhead. */
    struct Telemetry
    {
        /**
         * Write a Chrome trace-event JSON (Perfetto-loadable) of the
         * sweep here: one lane per pool worker, a span per grid
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
    unsigned jobs = 0;
    std::size_t points = 0;          //!< full grid size, even sharded
    double wallSeconds = 0.0;

    JsonValue toJson() const;
    std::string toCsv() const;       //!< rows only (summary excluded)
};

/**
 * Run @p scenario under @p options.  Throws std::invalid_argument
 * for bad axis overrides or an inconsistent option set (a shard
 * without a checkpoint directory, or its index out of range);
 * exceptions from scenario points propagate.
 */
SweepResult runScenario(const Scenario &scenario,
                        const RunOptions &options = {});

/** runScenario by registry name; throws when the name is unknown. */
SweepResult runScenarioByName(const std::string &name,
                              const RunOptions &options = {});

/**
 * Build a SweepResult from journals fused by mergeJournals(): rows
 * in grid-index order, summary recomputed by the scenario's own
 * summarize hook, grid taken from the (hash-verified) journal
 * header.  @p jobs is stamped into the result verbatim so the JSON
 * can be byte-compared against a single-host run's.  wallSeconds is
 * left 0 -- merge does no sweeping.  Throws std::invalid_argument
 * when @p merged belongs to a different scenario.
 */
SweepResult assembleMergedResult(const Scenario &scenario,
                                 const MergedJournals &merged,
                                 unsigned jobs);

/**
 * mergeJournals() + registry lookup + assembleMergedResult(): fuse
 * shard journals into the result the equivalent single-host
 * sweep would have produced (byte-identical modulo wall_seconds and
 * the provenance timestamp).  Throws std::runtime_error when the
 * journals are inconsistent (see mergeJournals) or name a scenario
 * this build does not register.
 */
SweepResult
mergeSweepFromJournals(const std::vector<std::string> &paths,
                       unsigned jobs);

/** Print rows (and summary, when present) as aligned text tables. */
void printTables(const SweepResult &result);

/** Render rows as CSV (union of keys, first-seen column order). */
std::string rowsToCsv(const std::vector<ResultRow> &rows);

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_RUNNER_H
