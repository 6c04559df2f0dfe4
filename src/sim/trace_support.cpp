#include "sim/trace_support.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "mitigation/registry.h"
#include "sim/provenance.h"
#include "sim/runner.h"
#include "sim/scenario_util.h"
#include "telemetry/io.h"
#include "telemetry/stopwatch.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "trace/recorder.h"

namespace pracleak::sim {

namespace {

/** Arms the series sink when @p path is non-empty; disarms on every
 *  exit path so a thrown replay cannot leave the sink dangling. */
struct SeriesScope
{
    explicit SeriesScope(std::string path) : path_(std::move(path))
    {
        if (!path_.empty())
            telemetry::SeriesCapture::arm();
    }
    ~SeriesScope()
    {
        if (!path_.empty())
            telemetry::SeriesCapture::disarm();
    }

    /** writeAll to the scope's path; true when disabled. */
    bool
    write() const
    {
        if (path_.empty())
            return true;
        if (!telemetry::SeriesCapture::writeAll(path_))
            return false;
        std::fprintf(stderr, "pracbench: wrote %s\n", path_.c_str());
        return true;
    }

  private:
    std::string path_;
};

} // namespace

RecordedRun
recordSuiteRun(const SuiteEntry &entry, const DesignConfig &design,
               const RunBudget &budget, std::uint32_t cores)
{
    const SystemConfig config = makeSystemConfig(design, budget);
    System system(config, instantiate(entry, cores));

    const std::string spec_name =
        design.spec.empty() ? "ddr5-8000b" : design.spec;
    trace::TraceRecorder recorder(
        entry.params.name, spec_name, config.spec,
        system.channel(0).config(),
        static_cast<std::uint32_t>(system.channelCount()));
    recorder.attach(system);

    RecordedRun recorded;
    recorded.run = system.run();
    recorder.finish(system);
    recorded.trace = recorder.takeData();
    return recorded;
}

ResultRow
replayRow(const trace::ReplayResult &result)
{
    const ChannelStats total = result.total();
    ResultRow row = JsonValue::object();
    row.set("mitigation", result.mitigation);
    row.set("end_cycle", result.endCycle);
    row.set("requests", result.replayedRequests);
    row.set("fully_drained", result.fullyDrained);
    row.set("acts", total.acts);
    row.set("refreshes", total.refreshes);
    setRfmColumns(row, total,
                  {RfmReason::Abo, RfmReason::Acb,
                   RfmReason::TimingBased, RfmReason::Random,
                   RfmReason::Graphene, RfmReason::PerBank});
    row.set("alerts", total.alerts);
    row.set("mitigation_events", total.mitigationEvents);
    row.set("mitigated_rows", total.mitigatedRows);
    row.set("max_counter", total.maxCounterSeen);
    return row;
}

ResultRow
recordedStatsRow(const trace::TraceData &trace)
{
    trace::ReplayResult as_recorded;
    as_recorded.mitigation = trace.header.mitigation;
    as_recorded.endCycle = trace.header.endCycle;
    for (const trace::ChannelTrace &channel : trace.channels) {
        as_recorded.channels.push_back(channel.stats);
        as_recorded.replayedRequests += channel.stats.requests;
    }
    return replayRow(as_recorded);
}

int
runRecordTraceCommand(const RecordCliOptions &options)
{
    try {
        RunBudget budget;
        budget.warmup = 20'000;
        budget.measure = 100'000;
        DesignConfig design;
        design.mitigation = "none";
        std::uint32_t cores = 4;

        for (const auto &[name, values] : options.settings) {
            if (values.size() != 1)
                throw std::invalid_argument(
                    "--set " + name +
                    " takes exactly one value in record mode");
            const JsonValue &value = values.front();
            if (name == "mitigation")
                design.mitigation = value.asString();
            else if (name == "spec")
                design.spec = value.asString();
            else if (name == "nbo" || name == "nrh")
                design.nbo =
                    static_cast<std::uint32_t>(value.asInt());
            else if (name == "warmup")
                budget.warmup =
                    static_cast<std::uint64_t>(value.asInt());
            else if (name == "measure")
                budget.measure =
                    static_cast<std::uint64_t>(value.asInt());
            else if (name == "channels")
                design.channels =
                    static_cast<std::uint32_t>(value.asInt());
            else if (name == "cores")
                cores = static_cast<std::uint32_t>(value.asInt());
            else
                throw std::invalid_argument(
                    "unknown record setting '" + name +
                    "' (have: mitigation, spec, nbo/nrh, warmup, "
                    "measure, channels, cores)");
        }
        if (!findMitigation(design.mitigation))
            throw std::invalid_argument("unknown mitigation '" +
                                        design.mitigation + "'");
        design.label = design.mitigation;

        std::vector<std::string> workloads = options.workloads;
        if (workloads.empty())
            workloads = suiteEntryNames();

        std::error_code ec;
        std::filesystem::create_directories(options.dir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "pracbench: cannot create trace dir %s: "
                         "%s\n",
                         options.dir.c_str(),
                         ec.message().c_str());
            return 1;
        }

        std::unique_ptr<telemetry::TraceSession> session;
        if (!options.traceOut.empty())
            session = std::make_unique<telemetry::TraceSession>(
                options.traceOut);
        const SeriesScope series(options.seriesOut);

        for (const std::string &workload : workloads) {
            const SuiteEntry &entry = findSuiteEntry(workload);
            telemetry::SeriesCapture::setLabel(workload);
            telemetry::TraceSpan span(session.get(), workload,
                                      "record", -1);
            const RecordedRun recorded =
                recordSuiteRun(entry, design, budget, cores);
            span.end();
            const std::string path =
                (std::filesystem::path(options.dir) /
                 (workload + ".trc"))
                    .string();
            const std::string image =
                trace::serializeTrace(recorded.trace);
            if (!telemetry::writeAtomic(path, image))
                return 1;
            if (options.progress) {
                std::uint64_t requests = 0;
                for (const trace::ChannelTrace &channel :
                     recorded.trace.channels)
                    requests += channel.records.size();
                std::fprintf(
                    stderr,
                    "pracbench: recorded %s (%llu requests, "
                    "%zu bytes, end cycle %llu, fnv1a %s)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(requests),
                    image.size(),
                    static_cast<unsigned long long>(
                        recorded.trace.header.endCycle),
                    hashHex(fnv1a64(image)).c_str());
            }
        }
        if (!series.write())
            return 1;
        if (session)
            session->write();
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pracbench: %s\n", error.what());
        return 2;
    }
}

int
runReplayCommand(const ReplayCliOptions &options)
{
    try {
        const trace::TraceReader reader(options.tracePath);
        const trace::TraceData &trace = reader.data();

        std::vector<std::string> defenses = options.mitigations;
        if (defenses.empty())
            defenses = {trace.header.mitigation};
        // --verify is a statement about the *recorded* defense; make
        // sure that leg actually runs even when the user's defense
        // list omits it, instead of passing vacuously.
        if (options.verify &&
            std::find(defenses.begin(), defenses.end(),
                      trace.header.mitigation) == defenses.end())
            defenses.push_back(trace.header.mitigation);
        // Validate the whole list before the first (possibly long)
        // replay: an unknown key must not kill the sweep midway.
        for (const std::string &defense : defenses)
            if (!findMitigation(defense))
                throw std::invalid_argument(
                    "unknown mitigation '" + defense + "'");

        SweepResult result;
        result.scenario = "trace_replay";
        result.title = "Replay of " + options.tracePath +
                       " (workload " + trace.header.workload +
                       ", recorded under " +
                       trace.header.mitigation + ")";
        result.jobs = 1;
        result.points = defenses.size();

        std::unique_ptr<telemetry::TraceSession> session;
        if (!options.traceOut.empty())
            session = std::make_unique<telemetry::TraceSession>(
                options.traceOut);
        const SeriesScope series(options.seriesOut);

        bool verified = true;
        const telemetry::Stopwatch clock;
        for (const std::string &defense : defenses) {
            trace::ReplayOptions replay_options;
            replay_options.mitigation = defense;
            telemetry::SeriesCapture::setLabel(
                trace.header.workload + "/" + defense);
            telemetry::TraceSpan span(session.get(), defense,
                                      "replay", -1);
            const trace::ReplayResult replay =
                trace::replayTrace(trace, replay_options);
            span.end();

            ResultRow row = replayRow(replay);
            if (defense == trace.header.mitigation) {
                const bool identical =
                    replay.matchesRecorded(trace);
                row.set("bit_identical", identical);
                verified = verified && identical;
            }
            result.rows.push_back(std::move(row));
            if (options.progress)
                std::fprintf(stderr, "pracbench: replayed %s\n",
                             defense.c_str());
        }
        result.wallSeconds = clock.seconds();
        if (!series.write())
            return 1;
        if (session)
            session->write();

        ResultRow recorded = recordedStatsRow(trace);
        recorded.set("mitigation",
                     trace.header.mitigation + " (recorded)");
        result.summary.push_back(std::move(recorded));

        if (options.table)
            printTables(result);
        if (!options.outJson.empty()) {
            JsonValue root = result.toJson();
            root.set("trace", options.tracePath);
            root.set("trace_fnv1a64",
                     fileHashHex(options.tracePath));
            root.set("workload", trace.header.workload);
            root.set("recorded_mitigation",
                     trace.header.mitigation);
            root.set("spec", trace.header.spec);
            if (!telemetry::writeAtomic(options.outJson,
                                        root.dump(2) + "\n"))
                return 1;
            std::fprintf(stderr, "pracbench: wrote %s\n",
                         options.outJson.c_str());
        }

        if (options.verify && !verified) {
            std::fprintf(stderr,
                         "pracbench: FAIL: same-defense replay did "
                         "not reproduce the recorded stats\n");
            return 1;
        }
        if (options.verify)
            std::fprintf(stderr,
                         "pracbench: same-defense replay is "
                         "bit-identical to the recording\n");
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pracbench: %s\n", error.what());
        return 2;
    }
}

} // namespace pracleak::sim
