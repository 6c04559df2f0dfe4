#include "sim/runner.h"

#include "common/log.h"
#include "sim/checkpoint.h"
#include "sim/provenance.h"
#include "telemetry/heartbeat.h"
#include "telemetry/stopwatch.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace pracleak::sim {

namespace {

/** Merge point parameters into a row without clobbering metrics. */
ResultRow
mergeParams(const ParamSet &params, ResultRow row)
{
    ResultRow merged = JsonValue::object();
    for (const auto &[name, value] : params.entries())
        if (!row.has(name))
            merged.set(name, value);
    for (const auto &[name, value] : row.members())
        merged.set(name, value);
    return merged;
}

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (const char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
cellText(const JsonValue &value)
{
    if (value.kind() == JsonValue::Kind::Array ||
        value.kind() == JsonValue::Kind::Object)
        return value.dump();
    return value.asString();
}

/** Union of row keys in first-seen order (table + CSV column order). */
std::vector<std::string>
collectColumns(const std::vector<ResultRow> &rows)
{
    std::vector<std::string> columns;
    for (const ResultRow &row : rows)
        for (const auto &[name, value] : row.members()) {
            (void)value;
            bool known = false;
            for (const auto &column : columns)
                known = known || column == name;
            if (!known)
                columns.push_back(name);
        }
    return columns;
}

/** Reject option combinations that cannot mean anything coherent. */
void
validateRunOptions(const RunOptions &options)
{
    if (options.shard.active() && options.steal.enabled)
        throw std::invalid_argument(
            "--shard and --steal are mutually exclusive: a static "
            "partition and dynamic claiming cannot both own the "
            "point space");
    if (options.shard.active() &&
        options.shard.index >= options.shard.count)
        throw std::invalid_argument(
            "shard index must satisfy 0 <= I < N in --shard I/N");
    if ((options.shard.active() || options.steal.enabled) &&
        options.checkpoint.directory.empty())
        throw std::invalid_argument(
            "--shard/--steal require a checkpoint directory: the "
            "journals are how the fleet's partial results meet "
            "again");
    if (options.steal.enabled && options.checkpoint.resume)
        throw std::invalid_argument(
            "--resume is implied by --steal (a worker always "
            "resumes its own journal); drop the flag");
    if (options.steal.enabled && options.steal.workerId.empty())
        throw std::invalid_argument(
            "--steal requires a worker id unique within the "
            "checkpoint directory");
}

/** The scenario's grid with all of @p options' overrides applied. */
ParamGrid
effectiveGrid(const Scenario &scenario, const RunOptions &options)
{
    ParamGrid grid = scenario.grid;
    for (const auto &[axis, values] : options.overrides)
        grid.overrideAxis(axis, values);
    for (const auto &[axis, values] : options.softOverrides)
        if (grid.findAxis(axis))
            grid.overrideAxis(axis, values);
    if (options.firstPointOnly)
        for (const ParamAxis &axis : scenario.grid.axes())
            if (const ParamAxis *effective = grid.findAxis(axis.name))
                grid.overrideAxis(axis.name, {effective->values[0]});
    return grid;
}

/**
 * Whole-grid and static-shard execution: run every owned,
 * not-yet-journaled point through the pool, journaling as workers
 * finish.  Both restored and live rows land in per-point slots, so
 * the output is ordered by grid index -- independent of --jobs,
 * kill timing, and completion order.
 */
SweepResult
runSweepLocal(const Scenario &scenario, const ParamGrid &grid,
              const RunOptions &options,
              telemetry::TraceSession *trace)
{
    ThreadPool pool(options.jobs);
    const std::size_t n = grid.size();
    const ShardSpec shard = options.shard;

    SweepResult result;
    result.scenario = scenario.name;
    result.title = scenario.title;
    result.notes = scenario.notes;
    result.grid = grid.toJson();
    result.jobs = pool.threadCount();
    result.points = n;

    std::vector<std::size_t> owned;
    owned.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (shardOwns(i, shard))
            owned.push_back(i);

    CheckpointState restored;
    std::unique_ptr<JournalWriter> journal;
    if (!options.checkpoint.directory.empty()) {
        const std::string path =
            shard.active()
                ? shardJournalPath(options.checkpoint.directory,
                                   scenario.name, shard)
                : journalPath(options.checkpoint.directory,
                              scenario.name);
        if (options.checkpoint.resume)
            restored = loadJournal(path, scenario.name, result.grid,
                                   n, shard);
        journal = std::make_unique<JournalWriter>(
            path,
            journalHeader(scenario.name, result.grid, n, shard),
            restored.hasHeader, restored.validBytes,
            scenario.checkpointEvery);
    }

    // Log context identifies this run among interleaved fleet output.
    std::string context = scenario.name;
    if (shard.active())
        context += " shard " + std::to_string(shard.index) + "/" +
                   std::to_string(shard.count);

    const telemetry::Stopwatch sweepClock;
    const std::size_t total = owned.size();
    std::atomic<std::size_t> completed{restored.rowsByPoint.size()};

    std::vector<std::vector<ResultRow>> rowsPerPoint(n);
    std::vector<std::size_t> pendingPoints;
    pendingPoints.reserve(total);
    for (const std::size_t i : owned) {
        const auto it = restored.rowsByPoint.find(i);
        if (it == restored.rowsByPoint.end())
            pendingPoints.push_back(i);
        else
            rowsPerPoint[i] = std::move(it->second);
    }
    if (options.progress && !restored.rowsByPoint.empty())
        progress(context,
                 std::to_string(restored.rowsByPoint.size()) + "/" +
                     std::to_string(total) +
                     " resumed from checkpoint" +
                     (restored.droppedTornTail
                          ? " (torn final record re-run)"
                          : ""));

    std::vector<std::function<std::vector<ResultRow>()>> jobs;
    jobs.reserve(pendingPoints.size());
    for (const std::size_t i : pendingPoints) {
        jobs.push_back([&, i] {
            const ParamSet params = grid.point(i);
            const int lane = ThreadPool::currentLane();
            JsonValue spanArgs;
            if (trace) {
                spanArgs = JsonValue::object();
                spanArgs.set("index", static_cast<std::int64_t>(i));
            }
            // Labels series records this point's simulations create
            // with the grid-point label (no-op when no series sink
            // is armed).
            telemetry::SeriesCapture::setLabel(params.label());
            telemetry::TraceSpan pointSpan(trace, params.label(),
                                           "point", lane,
                                           std::move(spanArgs));
            const telemetry::Stopwatch pointClock;
            const std::uint64_t simStartUs =
                trace ? trace->nowMicros() : 0;
            telemetry::TraceSpan simSpan(trace, "sim", "phase", lane);
            std::vector<ResultRow> rows = scenario.runPoint(params);
            simSpan.end();
            if (trace)
                telemetry::SeriesCapture::emitTraceCounters(
                    trace, lane, simStartUs, trace->nowMicros());
            const double wall = pointClock.seconds();
            for (ResultRow &row : rows)
                row = mergeParams(params, std::move(row));
            // Journal before reporting done: a kill after the
            // progress line can never lose an unjournaled point.
            if (journal) {
                telemetry::TraceSpan flushSpan(trace, "journal-flush",
                                               "phase", lane);
                journal->writePoint(i, rows, wall);
                flushSpan.end();
                if (trace)
                    trace->instant("checkpoint-write", "checkpoint",
                                   lane);
            }
            const std::size_t done =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            if (options.progress)
                progress(context, std::to_string(done) + "/" +
                                      std::to_string(total) + " " +
                                      params.label());
            return rows;
        });
    }
    auto rowsPerJob = pool.map(std::move(jobs));
    for (std::size_t k = 0; k < pendingPoints.size(); ++k)
        rowsPerPoint[pendingPoints[k]] = std::move(rowsPerJob[k]);

    if (journal)
        journal->flush();

    for (auto &rows : rowsPerPoint)
        for (ResultRow &row : rows)
            result.rows.push_back(std::move(row));
    if (scenario.summarize)
        result.summary = scenario.summarize(result.rows);

    result.wallSeconds = sweepClock.seconds();
    return result;
}

/**
 * Work-stealing execution over a shared checkpoint directory.  Each
 * pool thread scans the grid claiming points (sim/checkpoint.h
 * PointClaims); every completed point is journaled, flushed, then
 * published via a done marker.  When every point carries a marker,
 * the worker fuses *all* journals in the directory -- its own and
 * its peers' -- into the complete result, so any worker can emit
 * the final artifacts.
 */
SweepResult
runSweepStealing(const Scenario &scenario, const ParamGrid &grid,
                 const RunOptions &options,
                 telemetry::TraceSession *trace)
{
    ThreadPool pool(options.jobs);
    const std::size_t n = grid.size();
    const std::string &directory = options.checkpoint.directory;
    const std::string &worker = options.steal.workerId;
    const JsonValue gridJson = grid.toJson();

    const std::string path =
        workerJournalPath(directory, scenario.name, worker);
    // A restarted worker always continues its own journal: its
    // previous points are durable and must not be re-run (or worse,
    // the journal truncated and their done markers orphaned).
    const CheckpointState restored =
        loadJournal(path, scenario.name, gridJson, n, {}, worker);
    // flushEvery = 1 regardless of Scenario::checkpointEvery: the
    // done marker published after each point promises other workers
    // the journal record is durable, so it must be flushed first.
    JournalWriter journal(
        path, journalHeader(scenario.name, gridJson, n, {}, worker),
        restored.hasHeader, restored.validBytes, 1);
    PointClaims claims(directory, scenario.name, worker,
                       options.steal.claimTtlSeconds);

    // A previous incarnation may have died between flushing a record
    // and publishing its marker; (re-)publish everything the journal
    // proves durable.
    for (const auto &[index, rows] : restored.rowsByPoint) {
        (void)rows;
        claims.markDone(index);
    }
    const std::string context = scenario.name + " worker " + worker;
    if (options.progress && !restored.rowsByPoint.empty())
        progress(context,
                 "resumed " +
                     std::to_string(restored.rowsByPoint.size()) +
                     " journaled points");

    // Heartbeats are always on in steal mode: `pracbench status` is
    // how an operator tells a slow fleet from a dead one.
    const std::size_t restoredCount = restored.rowsByPoint.size();
    telemetry::HeartbeatWriter heartbeats(
        directory, scenario.name, worker,
        static_cast<std::int64_t>(n),
        options.telemetry.heartbeatSeconds);
    heartbeats.beat(static_cast<std::int64_t>(restoredCount), -1,
                    true);

    const telemetry::Stopwatch sweepClock;
    std::atomic<std::size_t> ranHere{0};

    std::vector<std::function<void()>> tasks;
    for (unsigned t = 0; t < pool.threadCount(); ++t) {
        tasks.push_back([&] {
            while (true) {
                bool allDone = true;
                bool claimedAny = false;
                for (std::size_t i = 0; i < n; ++i) {
                    if (claims.isDone(i))
                        continue;
                    allDone = false;
                    bool stolen = false;
                    if (!claims.tryClaim(i, &stolen))
                        continue;
                    claimedAny = true;
                    const int lane = ThreadPool::currentLane();
                    const auto idx = static_cast<std::int64_t>(i);
                    if (trace) {
                        JsonValue claimArgs = JsonValue::object();
                        claimArgs.set("index", idx);
                        trace->instant(stolen ? "steal" : "claim",
                                       "claims", lane,
                                       std::move(claimArgs));
                    }
                    heartbeats.beat(
                        static_cast<std::int64_t>(
                            restoredCount +
                            ranHere.load(std::memory_order_relaxed)),
                        idx);
                    const ParamSet params = grid.point(i);
                    JsonValue spanArgs;
                    if (trace) {
                        spanArgs = JsonValue::object();
                        spanArgs.set("index", idx);
                    }
                    telemetry::SeriesCapture::setLabel(
                        params.label());
                    telemetry::TraceSpan pointSpan(
                        trace, params.label(), "point", lane,
                        std::move(spanArgs));
                    const telemetry::Stopwatch pointClock;
                    const std::uint64_t simStartUs =
                        trace ? trace->nowMicros() : 0;
                    telemetry::TraceSpan simSpan(trace, "sim",
                                                 "phase", lane);
                    std::vector<ResultRow> rows =
                        scenario.runPoint(params);
                    simSpan.end();
                    if (trace)
                        telemetry::SeriesCapture::emitTraceCounters(
                            trace, lane, simStartUs,
                            trace->nowMicros());
                    const double wall = pointClock.seconds();
                    for (ResultRow &row : rows)
                        row = mergeParams(params, std::move(row));
                    {
                        telemetry::TraceSpan flushSpan(
                            trace, "journal-flush", "phase", lane);
                        // flushed before the marker (every=1)
                        journal.writePoint(i, rows, wall);
                    }
                    claims.markDone(i);
                    claims.release(i);
                    if (trace)
                        trace->instant("done-marker", "claims", lane);
                    pointSpan.end();
                    const std::size_t done =
                        ranHere.fetch_add(
                            1, std::memory_order_relaxed) +
                        1;
                    heartbeats.beat(
                        static_cast<std::int64_t>(restoredCount +
                                                  done),
                        -1);
                    if (options.progress)
                        progress(context,
                                 "point " + std::to_string(i + 1) +
                                     "/" + std::to_string(n) + " " +
                                     params.label() + " (" +
                                     std::to_string(done) +
                                     " run here)");
                }
                if (allDone)
                    break;
                // Everything unfinished is claimed by someone else:
                // back off instead of hammering the filesystem.
                if (!claimedAny)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(
                            options.steal.pollSeconds));
            }
        });
    }
    pool.run(std::move(tasks));
    journal.flush();
    heartbeats.beat(
        static_cast<std::int64_t>(
            restoredCount + ranHere.load(std::memory_order_relaxed)),
        -1, true);

    // Every point now carries a done marker, and markers guarantee a
    // flushed journal record somewhere in the directory.
    telemetry::TraceSpan mergeSpan(trace, "merge", "phase", -1);
    SweepResult result = assembleMergedResult(
        scenario,
        mergeJournals(journalFilesFor(directory, scenario.name)),
        pool.threadCount());
    mergeSpan.end();
    result.wallSeconds = sweepClock.seconds();
    return result;
}

} // namespace

std::string
rowsToCsv(const std::vector<ResultRow> &rows)
{
    const std::vector<std::string> columns = collectColumns(rows);

    std::string out;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (i)
            out += ',';
        out += csvEscape(columns[i]);
    }
    out += '\n';
    for (const ResultRow &row : rows) {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            if (i)
                out += ',';
            if (const JsonValue *value = row.get(columns[i]))
                out += csvEscape(cellText(*value));
        }
        out += '\n';
    }
    return out;
}

JsonValue
SweepResult::toJson() const
{
    JsonValue root = JsonValue::object();
    root.set("scenario", scenario);
    root.set("title", title);
    if (!notes.empty())
        root.set("notes", notes);
    root.set("generator", "pracbench");
    root.set("jobs", static_cast<std::int64_t>(jobs));
    root.set("points", static_cast<std::int64_t>(points));
    root.set("wall_seconds", wallSeconds);
    root.set("provenance", provenanceObject(grid));
    root.set("grid", grid);

    JsonValue rowArray = JsonValue::array();
    for (const ResultRow &row : rows)
        rowArray.push(row);
    root.set("rows", std::move(rowArray));

    JsonValue summaryArray = JsonValue::array();
    for (const ResultRow &row : summary)
        summaryArray.push(row);
    root.set("summary", std::move(summaryArray));
    return root;
}

std::string
SweepResult::toCsv() const
{
    return rowsToCsv(rows);
}

namespace {

/** Arms the process-global series sink for one sweep; the
 *  destructor disarms even when a scenario point throws. */
struct SeriesCaptureScope
{
    explicit SeriesCaptureScope(bool enable) : enabled(enable)
    {
        if (enabled)
            telemetry::SeriesCapture::arm();
    }
    ~SeriesCaptureScope()
    {
        if (enabled)
            telemetry::SeriesCapture::disarm();
    }
    bool enabled;
};

} // namespace

SweepResult
runScenario(const Scenario &scenario, const RunOptions &options)
{
    validateRunOptions(options);
    const ParamGrid grid = effectiveGrid(scenario, options);
    std::unique_ptr<telemetry::TraceSession> trace;
    if (!options.telemetry.traceOut.empty())
        trace = std::make_unique<telemetry::TraceSession>(
            options.telemetry.traceOut);
    const SeriesCaptureScope series(
        !options.telemetry.seriesOut.empty());
    SweepResult result =
        options.steal.enabled
            ? runSweepStealing(scenario, grid, options, trace.get())
            : runSweepLocal(scenario, grid, options, trace.get());
    if (series.enabled &&
        !telemetry::SeriesCapture::writeAll(
            options.telemetry.seriesOut))
        throw std::runtime_error("cannot write series to " +
                                 options.telemetry.seriesOut);
    if (trace)
        trace->write();
    return result;
}

SweepResult
runScenarioByName(const std::string &name, const RunOptions &options)
{
    const Scenario *scenario =
        ScenarioRegistry::instance().find(name);
    if (!scenario)
        throw std::invalid_argument("unknown scenario '" + name +
                                    "' (try `pracbench list`)");
    return runScenario(*scenario, options);
}

SweepResult
assembleMergedResult(const Scenario &scenario,
                     const MergedJournals &merged, unsigned jobs)
{
    if (scenario.name != merged.scenario)
        throw std::invalid_argument(
            "merged journals are for scenario '" + merged.scenario +
            "', not '" + scenario.name + "'");

    SweepResult result;
    result.scenario = scenario.name;
    result.title = scenario.title;
    result.notes = scenario.notes;
    // The grid comes from the journal header (hash-verified against
    // the header's own pin), not from the live scenario: the sweep
    // may have run with --set overrides the merge never sees.
    result.grid = merged.grid;
    result.jobs = jobs;
    result.points = merged.points;
    // rowsByPoint is an ordered map, so rows land in grid-index
    // order -- exactly the order a single-host run concatenates.
    for (const auto &[index, rows] : merged.rowsByPoint) {
        (void)index;
        for (const ResultRow &row : rows)
            result.rows.push_back(row);
    }
    if (scenario.summarize)
        result.summary = scenario.summarize(result.rows);
    return result;
}

SweepResult
mergeSweepFromJournals(const std::vector<std::string> &paths,
                       unsigned jobs)
{
    MergedJournals merged = mergeJournals(paths);
    const Scenario *scenario =
        ScenarioRegistry::instance().find(merged.scenario);
    if (!scenario)
        throw std::runtime_error(
            "journals name scenario '" + merged.scenario +
            "', which this build does not register -- merge with "
            "the build that ran the sweep");
    return assembleMergedResult(*scenario, merged, jobs);
}

namespace {

void
printTable(const std::vector<ResultRow> &rows)
{
    if (rows.empty())
        return;
    const std::vector<std::string> columns = collectColumns(rows);

    std::vector<std::size_t> widths;
    for (const auto &column : columns)
        widths.push_back(column.size());
    std::vector<std::vector<std::string>> cells;
    for (const ResultRow &row : rows) {
        std::vector<std::string> line;
        for (std::size_t i = 0; i < columns.size(); ++i) {
            const JsonValue *value = row.get(columns[i]);
            std::string text = value ? cellText(*value) : "";
            if (text.size() > 40)
                text = text.substr(0, 37) + "...";
            widths[i] = std::max(widths[i], text.size());
            line.push_back(std::move(text));
        }
        cells.push_back(std::move(line));
    }

    for (std::size_t i = 0; i < columns.size(); ++i)
        std::printf("%s%-*s", i ? "  " : "",
                    static_cast<int>(widths[i]), columns[i].c_str());
    std::printf("\n");
    for (const auto &line : cells) {
        for (std::size_t i = 0; i < columns.size(); ++i)
            std::printf("%s%-*s", i ? "  " : "",
                        static_cast<int>(widths[i]), line[i].c_str());
        std::printf("\n");
    }
}

} // namespace

void
printTables(const SweepResult &result)
{
    std::printf("\n=== %s ===\n", result.title.c_str());
    printTable(result.rows);
    if (!result.summary.empty()) {
        std::printf("\n--- summary ---\n");
        printTable(result.summary);
    }
    if (!result.notes.empty())
        std::printf("\n(%s)\n", result.notes.c_str());
    std::printf("[%zu points, %u jobs, %.1fs]\n\n", result.points,
                result.jobs, result.wallSeconds);
}

bool
writeFile(const std::string &path, const std::string &contents)
{
    std::error_code ec;
    const std::filesystem::path target(path);
    if (target.has_parent_path())
        std::filesystem::create_directories(target.parent_path(), ec);
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "pracbench: cannot write %s\n",
                     path.c_str());
        return false;
    }
    out << contents;
    out.close();
    return out.good();
}

bool
writeFileAtomic(const std::string &path, const std::string &contents)
{
    // The temporary lives next to the target so the rename stays on
    // one filesystem (and therefore atomic).
    const std::string temporary = path + ".tmp";
    if (!writeFile(temporary, contents))
        return false;
    std::error_code ec;
    std::filesystem::rename(temporary, path, ec);
    if (ec) {
        std::fprintf(stderr,
                     "pracbench: cannot finalize %s: %s\n",
                     path.c_str(), ec.message().c_str());
        std::filesystem::remove(temporary, ec);
        return false;
    }
    return true;
}

} // namespace pracleak::sim
