/**
 * @file
 * Cross-defense bake-off scenarios over the pluggable mitigation
 * registry (src/mitigation/).  All three sweep the same string-keyed
 * `mitigation` axis, so `pracbench --set mitigation=...` narrows any
 * of them to a defense subset (including "obfuscation", which is
 * registered but not part of the default seven-way grid):
 *
 *  - defense_matrix_leakage: a victim hammers in ON/OFF bursts while
 *    two latency probes watch -- one sharing the victim's bank, one
 *    in a distant bank.  A defense leaks when a probe sees latency
 *    spikes (above the no-defense noise ceiling) correlated with the
 *    ON phases.  Expected: ABO / ACB / Graphene / PB-RFM leak,
 *    TB-RFM spikes are uncorrelated, PARA and the baseline show
 *    nothing above noise.
 *  - defense_matrix_perf: normalized weighted speedup of every
 *    defense over the Table-4 workload suite (memoized "none"
 *    baseline), plus RFM/energy telemetry.
 *  - defense_matrix_security: the Feinting stress attacker against
 *    every defense in the scaled 2 ms-tREFW universe; reports the
 *    highest per-row activation count reached and whether it stayed
 *    within the defense's contract (NBO + the ABOACT allowance).
 */

#include "sim/scenario.h"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/agents.h"
#include "attack/harness.h"
#include "mitigation/registry.h"
#include "sim/analyze_support.h"
#include "sim/design.h"
#include "sim/memo.h"
#include "sim/scenario_util.h"
#include "sim/search.h"
#include "telemetry/timeseries.h"
#include "tprac/analysis.h"

namespace pracleak::sim {

namespace {

/**
 * The bake-off rows' RFM columns: the reasons the seven defenses
 * issue (obfuscation's Random is not among them).
 */
constexpr std::initializer_list<RfmReason> kBakeoffRfms = {
    RfmReason::Abo, RfmReason::Acb, RfmReason::TimingBased,
    RfmReason::Graphene, RfmReason::PerBank};

/**
 * Declare every tunable attacker knob as an `attacker.<knob>`
 * constant, 0 meaning "derive from the spec and defense".
 */
void
addAttackerKnobs(ParamGrid &grid)
{
    for (const AttackerField &field : kAttackerFields)
        if (field.tunable)
            grid.constant(std::string("attacker.") + field.name, 0);
}

/** The knobs addAttackerKnobs() declared, at this grid point. */
AttackerConfig
attackerKnobs(const ParamSet &params)
{
    AttackerConfig config;
    for (const AttackerField &field : kAttackerFields)
        if (field.tunable)
            config.*field.field =
                params.getUint32(std::string("attacker.") + field.name);
    return config;
}

// --- defense_matrix_leakage ----------------------------------------

/** Both probes' samples, the ON windows, and the channel's counters. */
struct LeakRun
{
    std::vector<LatencySample> nearSamples; //!< victim's bank
    std::vector<LatencySample> farSamples;  //!< distant bank
    std::vector<std::pair<Cycle, Cycle>> onWindows;
    ChannelStats stats;
};

/**
 * The ON/OFF leak experiment: a victim hammers flat bank 18 = (rank
 * 0, bg 4, bank 2) in @p bursts ON phases of @p phase_ms, each
 * followed by an OFF phase as long; the near probe shares that bank
 * (per-bank RFMs block it), the far probe sits in a distant bank
 * (only channel-wide RFMabs reach it).  With @p series set, the run
 * also records its bus time series there (leakage_timeline's input)
 * and tags an armed `--series-out` record with the ON windows and
 * the victim's bank.
 */
LeakRun
runLeakExperiment(const std::string &defense,
                  const std::string &spec_name, std::uint32_t nbo,
                  double phase_ms, int bursts,
                  SeriesSim *series = nullptr)
{
    const DramSpec base = specByName(spec_name);
    // Refresh off isolates the mitigation events.
    const AttackSetup setup =
        attackSetup(base, defense, nbo, base.prac.nmit, false);
    const DramSpec &spec = setup.spec;
    AttackHarness harness(spec, setup.controller);
    MemoryController &mem = harness.mem();

    // Reuse the observer an armed `--series-out` capture attached in
    // the controller constructor; install a local one otherwise, so
    // leakage_timeline's rows never depend on whether the export is
    // on.
    std::unique_ptr<telemetry::BusObserver> local;
    if (series && !mem.busObserver()) {
        local = std::make_unique<telemetry::BusObserver>(spec);
        mem.setBusObserver(local.get());
    }

    const AttackerConfig victim_config = leakVictimPlacement();
    if (series)
        telemetry::SeriesCapture::setVictimBank(victim_config.targetBank);
    HammerAgent victim(mem, victim_config);
    AttackerConfig near_config;
    near_config.targetBank = 18;
    near_config.targetRow = 3;
    ProbeAgent near_probe(mem, near_config);
    AttackerConfig far_config;
    far_config.targetBank = 0;
    far_config.targetRow = 3;
    ProbeAgent far_probe(mem, far_config);
    harness.add(&victim);
    harness.add(&near_probe);
    harness.add(&far_probe);

    LeakRun run;
    const Cycle phase = nsToCycles(phase_ms * 1.0e6);
    for (int burst = 0; burst < bursts; ++burst) {
        const Cycle on_end = harness.now() + phase;
        run.onWindows.emplace_back(harness.now(), on_end);
        if (series)
            telemetry::SeriesCapture::markOnWindow(harness.now(),
                                                   on_end);
        victim.repeat(pastContractBurst(spec.prac));
        harness.run(phase);
        victim.stop();
        harness.run(phase);
    }

    run.nearSamples = near_probe.samples();
    run.farSamples = far_probe.samples();
    run.stats = snapshotChannelStats(mem);

    if (series) {
        const telemetry::BusObserver &bus = *mem.busObserver();
        series->windowCycles = bus.windowCycles();
        series->victimBank = victim_config.targetBank;
        series->onWindows = run.onWindows;
        for (const telemetry::SeriesWindow &window : bus.windows())
            series->windows.push_back({window});
    }
    if (local)
        mem.setBusObserver(nullptr);
    return run;
}

Cycle
maxLatency(const std::vector<LatencySample> &samples)
{
    Cycle most = 0;
    for (const LatencySample &sample : samples)
        most = std::max(most, sample.latency);
    return most;
}

/**
 * The no-defense calibration run (noise ceilings AND the
 * mitigation=none grid point) is deterministic per experiment shape
 * and costs a full simulation, so sweeps share one per (spec, nbo,
 * phase, bursts).
 */
const LeakRun &
quietRun(const std::string &spec_name, std::uint32_t nbo,
         double phase_ms, int bursts)
{
    static Memo<std::tuple<std::string, std::uint32_t, double, int>,
                LeakRun>
        runs;
    return runs
        .get({spec_name, nbo, phase_ms, bursts},
             [&] {
                 return runLeakExperiment("none", spec_name, nbo,
                                          phase_ms, bursts);
             })
        .get();
}

/** Spikes above @p threshold split by the victim's phase. */
OnOffCounts
countSpikes(const std::vector<LatencySample> &samples, Cycle threshold,
            const std::vector<std::pair<Cycle, Cycle>> &on_windows)
{
    OnOffCounts spikes;
    for (const LatencySample &sample : samples) {
        if (sample.latency <= threshold)
            continue;
        if (inOnWindow(on_windows, sample.doneAt))
            ++spikes.on;
        else
            ++spikes.off;
    }
    return spikes;
}

Scenario
defenseMatrixLeakage()
{
    Scenario scenario;
    scenario.name = "defense_matrix_leakage";
    scenario.tags = {"defense", "attack"};
    scenario.title = "Defense bake-off: RFM-latency leakage of every "
                     "registered mitigation (ON/OFF victim bursts, "
                     "same-bank + cross-bank probes)";
    scenario.notes = "expected: abo-only / abo+acb-rfm leak to both "
                     "probes (RFMab), graphene / pb-rfm leak to the "
                     "same-bank probe (RFMpb), tprac's spikes are "
                     "phase-uncorrelated, para and none show nothing "
                     "above noise";
    scenario.grid.axis("mitigation", toValues(bakeoffDefenses()))
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 256)
        .constant("window_ms", 0.25)    //!< one ON (or OFF) phase
        .constant("bursts", 8);

    scenario.runPoint = [](const ParamSet &params) {
        const std::string defense = params.getString("mitigation");
        const std::string spec_name = params.getString("spec");
        const auto nbo = params.getUint32("nbo");
        const double phase_ms = params.getDouble("window_ms");
        const int bursts = static_cast<int>(params.getInt("bursts"));

        const LeakRun &quiet =
            quietRun(spec_name, nbo, phase_ms, bursts);
        const Cycle near_ceiling = maxLatency(quiet.nearSamples);
        const Cycle far_ceiling = maxLatency(quiet.farSamples);
        const Cycle margin = nsToCycles(100);
        const LeakRun run =
            defense == "none"
                ? quiet
                : runLeakExperiment(defense, spec_name, nbo,
                                    phase_ms, bursts);

        // Periodic TB-RFM spikes split evenly between phases and
        // fail the correlation rule; ABO/ACB/Graphene/PB-RFM events
        // exist only while the victim is active and pass it.
        const OnOffCounts near_spikes = countSpikes(
            run.nearSamples, near_ceiling + margin, run.onWindows);
        const OnOffCounts far_spikes = countSpikes(
            run.farSamples, far_ceiling + margin, run.onWindows);
        const bool leak_near = correlatedCounts(near_spikes);
        const bool leak_far = correlatedCounts(far_spikes);

        ResultRow row = JsonValue::object();
        row.set("near_spikes_on", near_spikes.on);
        row.set("near_spikes_off", near_spikes.off);
        row.set("far_spikes_on", far_spikes.on);
        row.set("far_spikes_off", far_spikes.off);
        row.set("near_max_ns", cyclesToNs(maxLatency(run.nearSamples)));
        row.set("far_max_ns", cyclesToNs(maxLatency(run.farSamples)));
        row.set("leak_near", leak_near);
        row.set("leak_far", leak_far);
        row.set("leaked", leak_near || leak_far);
        setRfmColumns(row, run.stats, kBakeoffRfms);
        row.set("para_refreshes",
                defense == "para" ? run.stats.mitigationEvents : 0);
        row.set("alerts", run.stats.alerts);
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::vector<ResultRow> out;
        for (const ResultRow &row : rows) {
            ResultRow summary = JsonValue::object();
            summary.set("mitigation", *row.get("mitigation"));
            summary.set("leaked", *row.get("leaked"));
            summary.set("observable_to",
                        row.get("leak_near")->asBool()
                            ? (row.get("leak_far")->asBool()
                                   ? "any probe"
                                   : "same-bank probe")
                            : (row.get("leak_far")->asBool()
                                   ? "cross-bank probe"
                                   : "none"));
            out.push_back(std::move(summary));
        }
        return out;
    };
    return scenario;
}

// --- leakage_timeline ----------------------------------------------

Scenario
leakageTimeline()
{
    Scenario scenario;
    scenario.name = "leakage_timeline";
    scenario.tags = {"defense", "attack", "telemetry"};
    scenario.title = "Per-window bus time series of every registered "
                     "mitigation over the ON/OFF hammer workload";
    scenario.notes = "window rows list only windows with bus-visible "
                     "maintenance; the verdict rows apply "
                     "defense_matrix_leakage's correlation rule to "
                     "the series alone (RFMab = channel-wide, "
                     "victim-bank RFMpb = same-bank); add "
                     "--series-out to export the full series for "
                     "`pracbench analyze`";
    scenario.grid.axis("mitigation", toValues(bakeoffDefenses()))
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 256)
        .constant("window_ms", 0.25)    //!< one ON (or OFF) phase
        .constant("bursts", 8);

    scenario.runPoint = [](const ParamSet &params) {
        const std::string defense = params.getString("mitigation");

        // runLeakExperiment with the bus series recorded, and with no
        // memoized baseline: a shared quiet run executes under
        // whichever grid point claims it first, which would make
        // series attribution depend on --jobs scheduling.  The
        // recorded series goes to the analyzer core -- the same code
        // path `pracbench analyze` runs over exported files.
        SeriesSim sim;
        sim.label = params.label();
        sim.mitigation = defense;
        runLeakExperiment(
            defense, params.getString("spec"),
            params.getUint32("nbo"),
            params.getDouble("window_ms"),
            static_cast<int>(params.getInt("bursts")), &sim);
        const LeakVerdict verdict = analyzeSeries(sim);

        std::vector<ResultRow> rows;
        for (const SeriesSim::Window &w : sim.windows) {
            if (w.rfmAb + w.rfmPb + w.abo + w.ref == 0)
                continue;
            ResultRow row = JsonValue::object();
            row.set("kind", "window");
            row.set("w", w.index);
            row.set("on", sim.windowOn(w.index));
            row.set("act", w.act);
            row.set("rfm_ab", w.rfmAb);
            row.set("rfm_pb", w.rfmPb);
            row.set("abo", w.abo);
            row.set("blocked", static_cast<std::uint64_t>(w.blocked));
            rows.push_back(std::move(row));
        }

        ResultRow row = JsonValue::object();
        row.set("kind", "verdict");
        row.set("windows", verdict.windows);
        row.set("bursts", verdict.bursts);
        row.set("ch_on", verdict.channel.on);
        row.set("ch_off", verdict.channel.off);
        row.set("bank_on", verdict.sameBank.on);
        row.set("bank_off", verdict.sameBank.off);
        row.set("leaked", verdict.leaked());
        row.set("observable_to", verdict.observableTo());
        rows.push_back(std::move(row));
        return rows;
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::vector<ResultRow> out;
        for (const ResultRow &row : rows) {
            const JsonValue *kind = row.get("kind");
            if (!kind || kind->asString() != "verdict")
                continue;
            ResultRow summary = JsonValue::object();
            summary.set("mitigation", *row.get("mitigation"));
            summary.set("leaked", *row.get("leaked"));
            summary.set("observable_to", *row.get("observable_to"));
            out.push_back(std::move(summary));
        }
        return out;
    };
    return scenario;
}

// --- defense_matrix_perf -------------------------------------------

Scenario
defenseMatrixPerf()
{
    Scenario scenario;
    scenario.name = "defense_matrix_perf";
    scenario.tags = {"defense", "perf", "energy"};
    scenario.title = "Defense bake-off: normalized performance and "
                     "energy of every registered mitigation over the "
                     "Table-4 suite";
    scenario.notes = "all defenses share one memoized NoMitigation "
                     "baseline per workload; para's in-DRAM refreshes "
                     "cost energy but no bus time";
    scenario.grid.axis("mitigation", toValues(bakeoffDefenses()))
        .axis("entry", toValues(suiteEntryNames()))
        .constant("spec", "ddr5-8000b")
        .constant("nrh", 1024)
        .constant("warmup", 50'000)
        .constant("measure", 150'000);

    scenario.runPoint = [](const ParamSet &params) {
        DesignConfig design;
        design.label = params.getString("mitigation");
        design.mitigation = design.label;
        design.spec = params.getString("spec");
        design.nbo = params.getUint32("nrh");

        RunBudget budget;
        budget.warmup =
            static_cast<std::uint64_t>(params.getInt("warmup"));
        budget.measure =
            static_cast<std::uint64_t>(params.getInt("measure"));

        const SuiteEntry &entry =
            findSuiteEntry(params.getString("entry"));
        const PairResult pair =
            runNormalizedPair(entry, design, budget);

        ResultRow row = JsonValue::object();
        row.set("class", intensityName(entry.intensity));
        row.set("normalized",
                normalizedPerf(pair.design, pair.baseline));
        setRfmColumns(row, pair.design.stats, kBakeoffRfms);
        row.set("mitigation_events",
                pair.design.stats.mitigationEvents);
        row.set("alerts", pair.design.stats.alerts);
        row.set("mitigation_nj", pair.design.energy.mitigationNj);
        row.set("energy_overhead_pct",
                100.0 *
                    (pair.design.energy.totalNj() -
                     pair.baseline.energy.totalNj()) /
                    pair.baseline.energy.totalNj());
        // Scheduler-efficiency telemetry (design run, measure
        // window): where the event-driven scheduler's speedup comes
        // from for this defense/workload.  Deterministic, so the
        // rows stay byte-identical across --jobs and --resume.
        row.set("ticks_fired", pair.design.sched.ticksFired);
        row.set("cycles_jumped", pair.design.sched.cyclesJumped);
        row.set("nextwork_cache_hits",
                pair.design.sched.nextWorkCacheHits);
        row.set("nextwork_rebuilds",
                pair.design.sched.nextWorkRebuilds);
        row.set("nextwork_hint_rebuilds",
                pair.design.sched.nextWorkHintRebuilds);
        row.set("queue_occupancy",
                parseJson(pair.design.queueOccupancy.toJson()));
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        struct Bucket
        {
            double norm = 0.0, energy = 0.0;
            std::int64_t rfms = 0, events = 0, alerts = 0, count = 0;
            std::int64_t ticks = 0, jumped = 0;
        };
        std::vector<std::string> order;
        std::map<std::string, Bucket> groups;
        for (const ResultRow &row : rows) {
            const std::string defense =
                row.get("mitigation")->asString();
            if (groups.find(defense) == groups.end())
                order.push_back(defense);
            Bucket &bucket = groups[defense];
            bucket.norm += row.get("normalized")->asDouble();
            bucket.energy +=
                row.get("energy_overhead_pct")->asDouble();
            for (const RfmReason reason : kBakeoffRfms)
                bucket.rfms += row.get(rfmColumn(reason))->asInt();
            bucket.events += row.get("mitigation_events")->asInt();
            bucket.alerts += row.get("alerts")->asInt();
            bucket.ticks += row.get("ticks_fired")->asInt();
            bucket.jumped += row.get("cycles_jumped")->asInt();
            ++bucket.count;
        }
        std::vector<ResultRow> out;
        for (const std::string &defense : order) {
            const Bucket &bucket = groups[defense];
            const auto n = static_cast<double>(bucket.count);
            ResultRow row = JsonValue::object();
            row.set("mitigation", defense);
            row.set("mean_normalized", bucket.norm / n);
            row.set("mean_energy_overhead_pct", bucket.energy / n);
            row.set("total_rfms", bucket.rfms);
            row.set("mitigation_events", bucket.events);
            row.set("alerts", bucket.alerts);
            row.set("ticks_fired", bucket.ticks);
            row.set("cycles_jumped", bucket.jumped);
            out.push_back(std::move(row));
        }
        return out;
    };
    return scenario;
}

// --- defense_matrix_security ---------------------------------------

Scenario
defenseMatrixSecurity()
{
    Scenario scenario;
    scenario.name = "defense_matrix_security";
    scenario.tags = {"defense", "security"};
    scenario.title = "Defense bake-off: Feinting stress attack vs "
                     "every registered mitigation (scaled 2 ms "
                     "tREFW)";
    scenario.notes = "secure defenses keep the hottest row at or "
                     "below NBO + ABOACT under both attackers; "
                     "'none' blows through it under the direct "
                     "hammer, and para's guarantee is only "
                     "probabilistic (see escape_prob)";
    scenario.grid.axis("mitigation", toValues(bakeoffDefenses()))
        .axis("attack", {"hammer", "feinting"})
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 512)
        .constant("window_ms", 4.0);    //!< total attack duration
    // `--set attack=A --set attacker.<knob>=N` reproduces any point
    // of a search by hand.
    addAttackerKnobs(scenario.grid);

    scenario.runPoint = [](const ParamSet &params) {
        const std::string defense = params.getString("mitigation");
        const auto nbo = params.getUint32("nbo");

        // Registry construction: a default AttackerConfig reproduces
        // the historical hand-built agents stream-for-stream
        // ("feinting" derives its TB-RFM-safe decoy pool, "hammer"
        // alternates the row-5000 target with the 6000/6001 decoys
        // and restarts each NBO+ABOACT+4 burst).  The axis also
        // accepts any other registered attacker via --set attack=.
        AttackerConfig attacker = attackerKnobs(params);
        attacker.attacker = params.getString("attack");
        const ScaledAttack run =
            runScaledAttack(defense, attacker, params.getString("spec"),
                            nbo, params.getDouble("window_ms"));
        ResultRow row = JsonValue::object();
        run.setVerdict(row);
        row.set("mitigated_rows", run.stats.mitigatedRows);
        setRfmColumns(row, run.stats, kBakeoffRfms);
        row.set("mitigation_events", run.stats.mitigationEvents);
        row.set("acts", run.stats.acts);
        if (defense == "para") {
            // Per-row escape probability between counter resets.
            const double p = run.mem().config().para.refreshProb;
            double escape = 1.0;
            for (std::uint32_t i = 0; i < nbo; ++i)
                escape *= 1.0 - p;
            row.set("escape_prob", escape);
        }
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        // Verdict per defense: worst case over the attack axis.
        std::vector<std::string> order;
        std::map<std::string, std::pair<std::int64_t, bool>> verdicts;
        for (const ResultRow &row : rows) {
            const std::string defense =
                row.get("mitigation")->asString();
            if (verdicts.find(defense) == verdicts.end()) {
                order.push_back(defense);
                verdicts[defense] = {0, true};
            }
            auto &[max_counter, secure] = verdicts[defense];
            max_counter = std::max(max_counter,
                                   row.get("max_counter")->asInt());
            secure = secure && row.get("secure")->asBool();
        }
        std::vector<ResultRow> out;
        for (const std::string &defense : order) {
            ResultRow summary = JsonValue::object();
            summary.set("mitigation", defense);
            summary.set("max_counter", verdicts[defense].first);
            summary.set("secure", verdicts[defense].second);
            out.push_back(std::move(summary));
        }
        return out;
    };
    return scenario;
}

// --- defense_matrix_adaptive ---------------------------------------

Scenario
defenseMatrixAdaptive()
{
    Scenario scenario;
    scenario.name = "defense_matrix_adaptive";
    scenario.tags = {"defense", "security", "search"};
    scenario.title = "Best-known-attack table: searched per-defense "
                     "adversary vs the oblivious stressor (scaled "
                     "2 ms tREFW)";
    scenario.notes = "each row runs a successive-halving attacker "
                     "search (sim/search.h) against one defense; "
                     "searched_max >= oblivious_max by construction "
                     "because the oblivious baseline is candidate 0 "
                     "and is never eliminated.  attacker='auto' "
                     "resolves the defense-matched adversary; "
                     "non-zero attacker.* constants pin that knob "
                     "instead of sampling it";
    scenario.grid
        .axis("mitigation", toValues({"graphene", "para", "pb-rfm"}))
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 512)
        .constant("window_ms", 4.0)
        .constant("attacker", "auto")
        .constant("budget", 6)
        .constant("rounds", 2)
        .constant("seed", 0x5EA2C4);
    addAttackerKnobs(scenario.grid);

    scenario.runPoint = [](const ParamSet &params) {
        SearchOptions options;
        options.targetDefense = params.getString("mitigation");
        const std::string attacker = params.getString("attacker");
        options.attacker = attacker == "auto" ? "" : attacker;
        options.budget = params.getUint32("budget");
        options.rounds = params.getUint32("rounds");
        options.seed =
            static_cast<std::uint64_t>(params.getInt("seed"));
        options.specName = params.getString("spec");
        options.nbo = params.getUint32("nbo");
        options.windowMs = params.getDouble("window_ms");
        options.base = attackerKnobs(params);
        // Inline on this point's thread, serial, unjournalled: the
        // outer sweep runner owns checkpointing and parallelism for
        // this scenario.
        options.jobs = 1;

        const SearchResult result = runAttackerSearch(options);

        ResultRow row = JsonValue::object();
        row.set("searched_attacker", result.best.config.attacker);
        row.set("searched_max", static_cast<std::int64_t>(
                                    result.best.maxCounter));
        row.set("searched_secure", result.best.secure);
        row.set("oblivious_max", static_cast<std::int64_t>(
                                     result.oblivious.maxCounter));
        row.set("oblivious_secure", result.oblivious.secure);
        row.set("contract",
                static_cast<std::int64_t>(result.contract));
        row.set("advantage",
                static_cast<std::int64_t>(result.best.maxCounter) -
                    static_cast<std::int64_t>(
                        result.oblivious.maxCounter));
        setAttackerKnobs(row, result.best.config, "best_");
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        // The best-known-attack table: one verdict per defense.
        std::vector<ResultRow> out;
        for (const ResultRow &row : rows) {
            ResultRow summary = JsonValue::object();
            summary.set("mitigation",
                        row.get("mitigation")->asString());
            summary.set("searched_attacker",
                        row.get("searched_attacker")->asString());
            summary.set("oblivious_max",
                        row.get("oblivious_max")->asInt());
            summary.set("searched_max",
                        row.get("searched_max")->asInt());
            summary.set("advantage", row.get("advantage")->asInt());
            summary.set("secure_vs_searched",
                        row.get("searched_secure")->asBool());
            out.push_back(std::move(summary));
        }
        return out;
    };
    return scenario;
}

} // namespace

void
registerDefenseScenarios(ScenarioRegistry &registry)
{
    registry.add(defenseMatrixAdaptive());
    registry.add(defenseMatrixLeakage());
    registry.add(defenseMatrixPerf());
    registry.add(defenseMatrixSecurity());
    registry.add(leakageTimeline());
}

} // namespace pracleak::sim
