#include "sim/runner.h"

#include "common/log.h"
#include "common/parallel.h"
#include "sim/checkpoint.h"
#include "sim/provenance.h"
#include "telemetry/stopwatch.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>

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

/** The scenario's grid with all of @p options' overrides applied. */
ParamGrid
effectiveGrid(const Scenario &scenario, const RunOptions &options)
{
    ParamGrid grid = scenario.grid;
    for (const auto &[axis, values] : options.overrides)
        grid.overrideAxis(axis, values);
    // An explicit --set beats a --try-set on the same axis.
    for (const auto &[axis, values] : options.softOverrides)
        if (grid.findAxis(axis) && !options.overrides.count(axis))
            grid.overrideAxis(axis, values);
    if (options.firstPointOnly)
        for (const ParamAxis &axis : scenario.grid.axes())
            if (const ParamAxis *effective = grid.findAxis(axis.name))
                grid.overrideAxis(axis.name, {effective->values[0]});
    return grid;
}

/**
 * Run every not-yet-journaled point on --jobs threads, the caller
 * included, journaling as points finish.  Both restored and live rows
 * land in per-point slots, so the output is ordered by grid index --
 * independent of --jobs, kill timing, and completion order.
 */
SweepResult
runSweep(const Scenario &scenario, const ParamGrid &grid,
         const RunOptions &options, telemetry::TraceSession *trace)
{
    const std::size_t n = grid.size();

    SweepResult result;
    result.scenario = scenario.name;
    result.title = scenario.title;
    result.notes = scenario.notes;
    result.grid = grid.toJson();
    result.jobs = resolveThreadCount(options.jobs);
    result.points = n;

    CheckpointState restored;
    std::unique_ptr<JournalWriter> journal;
    if (!options.checkpoint.directory.empty()) {
        const std::string path =
            journalPath(options.checkpoint.directory, scenario.name);
        if (options.checkpoint.resume)
            restored =
                loadJournal(path, scenario.name, result.grid, n);
        journal = std::make_unique<JournalWriter>(
            path, journalHeader(scenario.name, result.grid, n),
            restored.hasHeader, restored.validBytes);
    }

    const telemetry::Stopwatch sweepClock;
    std::atomic<std::size_t> completed{restored.rowsByPoint.size()};

    std::vector<std::vector<ResultRow>> rowsPerPoint(n);
    std::vector<std::size_t> pendingPoints;
    pendingPoints.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = restored.rowsByPoint.find(i);
        if (it == restored.rowsByPoint.end())
            pendingPoints.push_back(i);
        else
            rowsPerPoint[i] = std::move(it->second);
    }
    if (options.progress && !restored.rowsByPoint.empty())
        progress(scenario.name,
                 std::to_string(restored.rowsByPoint.size()) + "/" +
                     std::to_string(n) + " resumed from checkpoint" +
                     (restored.droppedTornTail
                          ? " (torn final record re-run)"
                          : ""));

    parallelFor(pendingPoints.size(), result.jobs, [&](std::size_t k) {
        const std::size_t i = pendingPoints[k];
        const ParamSet params = grid.point(i);
        const int lane = parallelLane();
        JsonValue spanArgs;
        if (trace) {
            spanArgs = JsonValue::object();
            spanArgs.set("index", static_cast<std::int64_t>(i));
        }
        // Labels series records this point's simulations create with
        // the grid-point label (no-op when no series sink is armed).
        telemetry::SeriesCapture::setLabel(params.label());
        telemetry::TraceSpan pointSpan(trace, params.label(), "point",
                                       lane, std::move(spanArgs));
        const std::uint64_t simStartUs = trace ? trace->nowMicros() : 0;
        telemetry::TraceSpan simSpan(trace, "sim", "phase", lane);
        std::vector<ResultRow> rows = scenario.runPoint(params);
        simSpan.end();
        if (trace)
            telemetry::SeriesCapture::emitTraceCounters(
                trace, lane, simStartUs, trace->nowMicros());
        for (ResultRow &row : rows)
            row = mergeParams(params, std::move(row));
        // Journal before reporting done: a kill after the progress
        // line can never lose an unjournaled point.
        if (journal) {
            telemetry::TraceSpan flushSpan(trace, "journal-flush",
                                           "phase", lane);
            journal->writePoint(i, rows);
            flushSpan.end();
            if (trace)
                trace->instant("checkpoint-write", "checkpoint", lane);
        }
        const std::size_t done =
            completed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options.progress)
            progress(scenario.name, std::to_string(done) + "/" +
                                        std::to_string(n) + " " +
                                        params.label());
        rowsPerPoint[i] = std::move(rows);
    });

    for (auto &rows : rowsPerPoint)
        for (ResultRow &row : rows)
            result.rows.push_back(std::move(row));
    if (scenario.summarize)
        result.summary = scenario.summarize(result.rows);

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
    const ParamGrid grid = effectiveGrid(scenario, options);
    std::unique_ptr<telemetry::TraceSession> trace;
    if (!options.telemetry.traceOut.empty())
        trace = std::make_unique<telemetry::TraceSession>(
            options.telemetry.traceOut);
    const SeriesCaptureScope series(
        !options.telemetry.seriesOut.empty());
    SweepResult result =
        runSweep(scenario, grid, options, trace.get());
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

} // namespace pracleak::sim
