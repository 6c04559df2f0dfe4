#include "sim/trace_support.h"

#include <filesystem>
#include <stdexcept>

#include "sim/provenance.h"
#include "sim/scenario_util.h"
#include "telemetry/io.h"
#include "trace/recorder.h"
#include "trace/replay.h"

namespace pracleak::sim {

namespace {

/** Flatten one replay outcome into a result row. */
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

/** The recording's own stats (summed) as a "<defense> (recorded)" row. */
ResultRow
recordedStatsRow(const trace::TraceData &trace)
{
    trace::ReplayResult as_recorded;
    as_recorded.mitigation = trace.header.mitigation + " (recorded)";
    as_recorded.endCycle = trace.header.endCycle;
    for (const trace::ChannelTrace &channel : trace.channels) {
        as_recorded.channels.push_back(channel.stats);
        as_recorded.replayedRequests += channel.stats.requests;
    }
    return replayRow(as_recorded);
}

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

Scenario
recordScenario(const std::string &dir)
{
    Scenario scenario;
    scenario.name = "trace_record";
    scenario.title = "Trace recording into " + dir;
    scenario.grid.axis("workload", toValues(suiteEntryNames()))
        .constant("mitigation", "none")
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 1024)
        .constant("warmup", 20'000)
        .constant("measure", 100'000)
        .constant("channels", 1)
        .constant("cores", 4);

    scenario.runPoint = [dir](const ParamSet &params) {
        const std::string workload = params.getString("workload");
        DesignConfig design;
        design.mitigation = params.getString("mitigation");
        design.label = design.mitigation;
        design.spec = params.getString("spec");
        design.nbo = static_cast<std::uint32_t>(params.getInt("nbo"));
        design.channels =
            static_cast<std::uint32_t>(params.getInt("channels"));
        RunBudget budget;
        budget.warmup =
            static_cast<std::uint64_t>(params.getInt("warmup"));
        budget.measure =
            static_cast<std::uint64_t>(params.getInt("measure"));
        const RecordedRun recorded = recordSuiteRun(
            findSuiteEntry(workload), design, budget,
            static_cast<std::uint32_t>(params.getInt("cores")));

        const std::string path =
            (std::filesystem::path(dir) / (workload + ".trc")).string();
        const std::string image = trace::serializeTrace(recorded.trace);
        if (!telemetry::writeAtomic(path, image))
            throw std::runtime_error("cannot write " + path);
        std::uint64_t requests = 0;
        for (const trace::ChannelTrace &channel : recorded.trace.channels)
            requests += channel.records.size();

        ResultRow row = JsonValue::object();
        row.set("path", path);
        row.set("requests", requests);
        row.set("bytes", static_cast<std::uint64_t>(image.size()));
        row.set("end_cycle", recorded.trace.header.endCycle);
        row.set("fnv1a64", hashHex(fnv1a64(image)));
        return std::vector<ResultRow>{std::move(row)};
    };
    return scenario;
}

Scenario
replayScenario(const trace::TraceData &trace, const std::string &path)
{
    const std::string &recorded = trace.header.mitigation;
    Scenario scenario;
    scenario.name = "trace_replay";
    scenario.title = "Replay of " + path + " (workload " +
                     trace.header.workload + ", recorded under " +
                     recorded + ")";
    scenario.grid.axis("mitigation", {recorded});

    scenario.runPoint = [&trace](const ParamSet &params) {
        trace::ReplayOptions options;
        options.mitigation = params.getString("mitigation");
        const trace::ReplayResult replay =
            trace::replayTrace(trace, options);
        ResultRow row = replayRow(replay);
        if (options.mitigation == trace.header.mitigation)
            row.set("bit_identical", replay.matchesRecorded(trace));
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [&trace](const std::vector<ResultRow> &) {
        return std::vector<ResultRow>{recordedStatsRow(trace)};
    };
    return scenario;
}

} // namespace pracleak::sim
