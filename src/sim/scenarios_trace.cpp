/**
 * @file
 * Trace record/replay scenarios.
 *
 * trace_replay_defense_sweep turns the O(workloads x defenses)
 * full-simulation defense bake-off into O(workloads) simulations plus
 * cheap replays: each Table-4 workload is simulated once with trace
 * taps armed (under "none"), then the recorded request stream is
 * replayed against every registered bake-off defense on a fresh
 * controller + mitigation stack.  Both legs run per grid point so the
 * rows compare each replay with the full simulation it stands in
 * for, and the same-defense replay is checked bit-identical against
 * the recording (the fidelity contract; cross-defense replays are the
 * standard open-loop approximation).  Each row also carries the
 * replay's exact scheduler work (ticks fired, cycles jumped).
 */

#include "sim/scenario.h"

#include <string>
#include <vector>

#include "sim/design.h"
#include "sim/scenario_util.h"
#include "sim/trace_support.h"
#include "trace/replay.h"

namespace pracleak::sim {

namespace {

Scenario
traceReplayDefenseSweep()
{
    Scenario scenario;
    scenario.name = "trace_replay_defense_sweep";
    scenario.tags = {"trace", "defense", "perf"};
    scenario.title =
        "Trace record/replay: per-workload defense sweep via one "
        "recorded simulation + cheap replays, vs the equivalent "
        "full-simulation sweep";
    scenario.notes =
        "the none replay must reproduce the recorded controller "
        "stats bit-identically; cross-defense replays are open-loop "
        "approximations (the stream cannot react to added "
        "maintenance back-pressure); replay_ticks_fired and "
        "replay_cycles_jumped count the replay's exact scheduler "
        "work";
    scenario.grid.axis("entry", toValues(suiteEntryNames()))
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 1024)
        .constant("warmup", 20'000)
        .constant("measure", 60'000);

    scenario.runPoint = [](const ParamSet &params) {
        const SuiteEntry &entry =
            findSuiteEntry(params.getString("entry"));

        DesignConfig design;
        design.spec = params.getString("spec");
        design.nbo = params.getUint32("nbo");
        RunBudget budget;
        budget.warmup =
            static_cast<std::uint64_t>(params.getInt("warmup"));
        budget.measure =
            static_cast<std::uint64_t>(params.getInt("measure"));

        // Leg 1: the conventional sweep -- one full simulation per
        // defense.  Keep the results for the fidelity columns.
        std::vector<RunResult> full_runs;
        full_runs.reserve(bakeoffDefenses().size());
        for (const std::string &defense : bakeoffDefenses()) {
            DesignConfig per_defense = design;
            per_defense.label = defense;
            per_defense.mitigation = defense;
            full_runs.push_back(runOne(entry, per_defense, budget));
        }

        // Leg 2: record once under "none", replay every defense.
        DesignConfig record_design = design;
        record_design.label = "none";
        record_design.mitigation = "none";
        const RecordedRun recorded =
            recordSuiteRun(entry, record_design, budget);
        std::vector<trace::ReplayResult> replays;
        replays.reserve(bakeoffDefenses().size());
        for (const std::string &defense : bakeoffDefenses()) {
            trace::ReplayOptions options;
            options.mitigation = defense;
            replays.push_back(
                trace::replayTrace(recorded.trace, options));
        }

        std::vector<ResultRow> rows;
        for (std::size_t i = 0; i < bakeoffDefenses().size(); ++i) {
            const RunResult &sim = full_runs[i];
            const trace::ReplayResult &replay = replays[i];
            const ChannelStats total = replay.total();

            ResultRow row = JsonValue::object();
            row.set("mitigation", bakeoffDefenses()[i]);
            // Fidelity columns: cumulative RFM/alert telemetry of
            // the full simulation vs the open-loop replay.
            const auto fidelity = [&](const std::string &column,
                                      std::uint64_t simulated,
                                      std::uint64_t replayed) {
                row.set("sim_" + column, simulated);
                row.set("replay_" + column, replayed);
            };
            fidelity("rfms", sim.stats.totalRfms(), total.totalRfms());
            fidelity("alerts", sim.stats.alerts, total.alerts);
            fidelity("mitigation_events", sim.stats.mitigationEvents,
                     total.mitigationEvents);
            row.set("replay_max_counter", total.maxCounterSeen);
            row.set("fully_drained", replay.fullyDrained);
            if (bakeoffDefenses()[i] == "none")
                row.set("bit_identical",
                        replay.matchesRecorded(recorded.trace));
            row.set("replay_ticks_fired", replay.sched.ticksFired);
            row.set("replay_cycles_jumped", replay.sched.cyclesJumped);
            rows.push_back(std::move(row));
        }
        return rows;
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::int64_t entries = 0;
        bool identical = true;
        std::string last_entry;
        for (const ResultRow &row : rows) {
            const std::string entry = row.get("entry")->asString();
            if (entry != last_entry) {
                last_entry = entry;
                ++entries;
            }
            if (const JsonValue *bit = row.get("bit_identical"))
                identical = identical && bit->asBool();
        }
        ResultRow summary = JsonValue::object();
        summary.set("workloads", entries);
        summary.set("all_bit_identical", identical);
        return std::vector<ResultRow>{std::move(summary)};
    };
    return scenario;
}

} // namespace

void
registerTraceScenarios(ScenarioRegistry &registry)
{
    registry.add(traceReplayDefenseSweep());
}

} // namespace pracleak::sim
