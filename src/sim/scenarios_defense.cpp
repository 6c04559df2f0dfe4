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
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "attack/agents.h"
#include "attack/harness.h"
#include "mitigation/registry.h"
#include "sim/analyze_support.h"
#include "sim/design.h"
#include "sim/scenario_util.h"
#include "sim/search.h"
#include "telemetry/timeseries.h"
#include "tprac/analysis.h"

namespace pracleak::sim {

namespace {

/** The default seven-way bake-off axis, in catalog order. */
std::vector<JsonValue>
defenseAxis()
{
    return toValues({"none", "abo-only", "abo+acb-rfm", "tprac",
                     "para", "graphene", "pb-rfm"});
}

// --- defense_matrix_leakage ----------------------------------------

/** One probe's samples plus the ON-window schedule of the run. */
struct LeakRun
{
    std::vector<LatencySample> nearSamples; //!< victim's bank
    std::vector<LatencySample> farSamples;  //!< distant bank
    std::vector<std::pair<Cycle, Cycle>> onWindows;
    std::uint64_t aboRfms = 0;
    std::uint64_t acbRfms = 0;
    std::uint64_t tbRfms = 0;
    std::uint64_t grapheneRfms = 0;
    std::uint64_t pbRfms = 0;
    std::uint64_t paraEvents = 0;
    std::uint64_t alerts = 0;
};

LeakRun
runLeakExperiment(const std::string &defense,
                  const std::string &spec_name, std::uint32_t nbo,
                  double phase_ms, int bursts)
{
    DramSpec spec = specByName(spec_name);
    spec.prac.nbo = nbo;

    ControllerConfig config;
    config.prac.queue = QueueKind::Ideal; // UPRAC, as in fig03
    config.refreshEnabled = false;        // isolate mitigation events
    configureDefense(config, defense, spec);

    AttackHarness harness(spec, config);

    // Victim hammers flat bank 18 = (rank 0, bg 4, bank 2); the near
    // probe shares that bank (per-bank RFMs block it), the far probe
    // sits in a distant bank (only channel-wide RFMabs reach it).
    // Registry-style construction: burstSpacing doubles as the decoy
    // row stride, so 4 decoys land at 0x200..0x203 as before.
    AttackerConfig victim_config;
    victim_config.targetBank = 18;
    victim_config.targetRow = 0x100;
    victim_config.poolSize = 4;
    victim_config.burstSpacing = 0x100;
    HammerAgent victim(harness.mem(), victim_config);
    AttackerConfig near_config;
    near_config.targetBank = 18;
    near_config.targetRow = 3;
    ProbeAgent near_probe(harness.mem(), near_config);
    AttackerConfig far_config;
    far_config.targetBank = 0;
    far_config.targetRow = 3;
    ProbeAgent far_probe(harness.mem(), far_config);

    harness.add(&victim);
    harness.add(&near_probe);
    harness.add(&far_probe);

    LeakRun run;
    const Cycle phase = nsToCycles(phase_ms * 1.0e6);
    for (int burst = 0; burst < bursts; ++burst) {
        const Cycle on_end = harness.now() + phase;
        run.onWindows.emplace_back(harness.now(), on_end);
        while (harness.now() < on_end) {
            if (victim.done())
                victim.startHammer(spec.prac.nbo + spec.prac.aboAct +
                                   4);
            harness.step();
        }
        victim.stop();
        const Cycle off_end = harness.now() + phase;
        while (harness.now() < off_end)
            harness.step();
    }

    const MemoryController &mem = harness.mem();
    run.nearSamples = near_probe.samples();
    run.farSamples = far_probe.samples();
    run.aboRfms = mem.rfmCount(RfmReason::Abo);
    run.acbRfms = mem.rfmCount(RfmReason::Acb);
    run.tbRfms = mem.rfmCount(RfmReason::TimingBased);
    run.grapheneRfms = mem.rfmCount(RfmReason::Graphene);
    run.pbRfms = mem.rfmCount(RfmReason::PerBank);
    run.paraEvents =
        defense == "para" ? mem.mitigationEvents() : 0;
    run.alerts = mem.prac().alerts();
    return run;
}

bool
inOnWindow(const std::vector<std::pair<Cycle, Cycle>> &windows,
           Cycle at)
{
    for (const auto &[begin, end] : windows)
        if (at >= begin && at < end)
            return true;
    return false;
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
 * and costs a full simulation, so sweeps share one per (nbo, phase,
 * bursts).  shared_future per key: the first claimant simulates
 * outside the lock, concurrent workers wait on the future instead of
 * serializing behind a mutex-held run (same pattern as the memoized
 * baselines in sim/design.cpp).
 */
const LeakRun &
quietRun(const std::string &spec_name, std::uint32_t nbo,
         double phase_ms, int bursts)
{
    static std::mutex mutex;
    static std::map<std::string, std::shared_future<LeakRun>> cache;
    const std::string key = spec_name + "/" + std::to_string(nbo) +
                            "/" + std::to_string(phase_ms) + "/" +
                            std::to_string(bursts);
    std::shared_future<LeakRun> future;
    std::promise<LeakRun> promise;
    bool owner = false;
    {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            cache.emplace(key, future);
            owner = true;
        }
    }
    if (owner) {
        try {
            promise.set_value(runLeakExperiment("none", spec_name,
                                                nbo, phase_ms,
                                                bursts));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

/** Spikes above @p threshold split by phase. */
struct PhaseSpikes
{
    std::uint64_t on = 0;
    std::uint64_t off = 0;
};

PhaseSpikes
countSpikes(const std::vector<LatencySample> &samples, Cycle threshold,
            const std::vector<std::pair<Cycle, Cycle>> &on_windows)
{
    PhaseSpikes spikes;
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

/**
 * Activity-correlation rule: a probe leaks when its above-noise
 * spikes concentrate in the victim's ON phases.  Periodic TB-RFM
 * spikes split evenly between phases and fail this; ABO/ACB/
 * Graphene/PB-RFM events exist only while the victim is active and
 * pass it.
 */
bool
correlated(const PhaseSpikes &spikes)
{
    return spikes.on > 2 * spikes.off + 3;
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
    scenario.grid.axis("mitigation", defenseAxis())
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 256)
        .constant("window_ms", 0.25)    //!< one ON (or OFF) phase
        .constant("bursts", 8);

    scenario.runPoint = [](const ParamSet &params) {
        const std::string defense = params.getString("mitigation");
        const std::string spec_name = params.getString("spec");
        const auto nbo =
            static_cast<std::uint32_t>(params.getInt("nbo"));
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

        const PhaseSpikes near_spikes = countSpikes(
            run.nearSamples, near_ceiling + margin, run.onWindows);
        const PhaseSpikes far_spikes = countSpikes(
            run.farSamples, far_ceiling + margin, run.onWindows);
        const bool leak_near = correlated(near_spikes);
        const bool leak_far = correlated(far_spikes);

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
        row.set("abo_rfms", run.aboRfms);
        row.set("acb_rfms", run.acbRfms);
        row.set("tb_rfms", run.tbRfms);
        row.set("graphene_rfms", run.grapheneRfms);
        row.set("pb_rfms", run.pbRfms);
        row.set("para_refreshes", run.paraEvents);
        row.set("alerts", run.alerts);
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
    scenario.grid.axis("mitigation", defenseAxis())
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 256)
        .constant("window_ms", 0.25)    //!< one ON (or OFF) phase
        .constant("bursts", 8);

    scenario.runPoint = [](const ParamSet &params) {
        const std::string defense = params.getString("mitigation");
        DramSpec spec = specByName(params.getString("spec"));
        spec.prac.nbo =
            static_cast<std::uint32_t>(params.getInt("nbo"));

        ControllerConfig config;
        config.prac.queue = QueueKind::Ideal; // UPRAC, as in fig03
        config.refreshEnabled = false; // isolate mitigation events
        configureDefense(config, defense, spec);

        // Same experiment shape as runLeakExperiment, but recording
        // the bus series instead of probe latencies, and with no
        // memoized baseline: a shared quiet run executes under
        // whichever grid point claims it first, which would make
        // series attribution depend on --jobs scheduling.
        AttackHarness harness(spec, config);
        MemoryController &mem = harness.mem();

        // Reuse the capture-attached observer when --series-out
        // armed one (the harness constructor attached it); install a
        // local observer otherwise, so the scenario's rows never
        // depend on whether the series export is on.
        telemetry::BusObserver *bus = mem.busObserver();
        std::unique_ptr<telemetry::BusObserver> local;
        if (!bus) {
            local = std::make_unique<telemetry::BusObserver>(spec);
            mem.setBusObserver(local.get());
            bus = local.get();
        }

        // Same flat-bank-18 layout as runLeakExperiment, built
        // through the attacker registry's config path.
        AttackerConfig victim_config;
        victim_config.targetBank = 18;
        victim_config.targetRow = 0x100;
        victim_config.poolSize = 4;
        victim_config.burstSpacing = 0x100;
        telemetry::SeriesCapture::setVictimBank(
            victim_config.targetBank);
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

        std::vector<std::pair<Cycle, Cycle>> on_windows;
        const Cycle phase =
            nsToCycles(params.getDouble("window_ms") * 1.0e6);
        const int bursts = static_cast<int>(params.getInt("bursts"));
        for (int burst = 0; burst < bursts; ++burst) {
            const Cycle on_end = harness.now() + phase;
            on_windows.emplace_back(harness.now(), on_end);
            telemetry::SeriesCapture::markOnWindow(harness.now(),
                                                   on_end);
            while (harness.now() < on_end) {
                if (victim.done())
                    victim.startHammer(spec.prac.nbo +
                                       spec.prac.aboAct + 4);
                harness.step();
            }
            victim.stop();
            const Cycle off_end = harness.now() + phase;
            while (harness.now() < off_end)
                harness.step();
        }

        // Hand the recorded series to the analyzer core -- the same
        // code path `pracbench analyze` runs over exported files.
        SeriesSim sim;
        sim.label = params.label();
        sim.mitigation = defense;
        sim.windowCycles = bus->windowCycles();
        sim.victimBank = victim_config.targetBank;
        sim.onWindows = on_windows;
        for (const telemetry::SeriesWindow &w : bus->windows()) {
            SeriesSim::Window window;
            window.index = w.index;
            window.act = w.act;
            window.ref = w.ref;
            window.rfmAb = w.rfmAb;
            window.rfmPb = w.rfmPb;
            window.abo = w.abo;
            window.blocked = w.blocked;
            window.rfmPbBanks = w.rfmPbBanks;
            sim.windows.push_back(std::move(window));
        }
        const LeakVerdict verdict = analyzeSeries(sim);

        const auto window_on = [&](std::uint64_t index) {
            const Cycle mid = index * sim.windowCycles +
                              sim.windowCycles / 2;
            return inOnWindow(on_windows, mid);
        };

        std::vector<ResultRow> rows;
        for (const SeriesSim::Window &w : sim.windows) {
            if (w.rfmAb + w.rfmPb + w.abo + w.ref == 0)
                continue;
            ResultRow row = JsonValue::object();
            row.set("kind", "window");
            row.set("w", w.index);
            row.set("on", window_on(w.index));
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

        if (local)
            mem.setBusObserver(nullptr);
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
    scenario.grid.axis("mitigation", defenseAxis())
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
        design.nbo =
            static_cast<std::uint32_t>(params.getInt("nrh"));

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
        row.set("abo_rfms", pair.design.aboRfms);
        row.set("acb_rfms", pair.design.acbRfms);
        row.set("tb_rfms", pair.design.tbRfms);
        row.set("graphene_rfms", pair.design.grapheneRfms);
        row.set("pb_rfms", pair.design.pbRfms);
        row.set("mitigation_events", pair.design.mitigationEvents);
        row.set("alerts", pair.design.alerts);
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
            bucket.rfms += row.get("abo_rfms")->asInt() +
                           row.get("acb_rfms")->asInt() +
                           row.get("tb_rfms")->asInt() +
                           row.get("graphene_rfms")->asInt() +
                           row.get("pb_rfms")->asInt();
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
    scenario.grid.axis("mitigation", defenseAxis())
        .axis("attack", {"hammer", "feinting"})
        .constant("spec", "ddr5-8000b")
        .constant("nbo", 512)
        .constant("window_ms", 4.0)     //!< total attack duration
        // Attacker knob sub-keys (0 = derive from spec/defense), so
        // `--set attack=para-retry --set attacker.aggressors=4`
        // reproduces any point of a search by hand.
        .constant("attacker.aggressors", 0)
        .constant("attacker.pool_size", 0)
        .constant("attacker.burst_spacing", 0)
        .constant("attacker.phase", 0);

    scenario.runPoint = [](const ParamSet &params) {
        const std::string defense = params.getString("mitigation");
        const std::string attack = params.getString("attack");
        const auto nbo =
            static_cast<std::uint32_t>(params.getInt("nbo"));

        // Scaled universe (2 ms tREFW) so the complete worst-case
        // attack finishes in a bench budget (see ablation_queues).
        DramSpec spec = specByName(params.getString("spec"));
        spec.prac.nbo = nbo;
        spec.timing.tREFW = nsToCycles(2.0e6);

        ControllerConfig config;
        configureDefense(config, defense, spec);

        AttackHarness harness(spec, config);
        const Cycle end =
            nsToCycles(params.getDouble("window_ms") * 1.0e6);

        // Registry construction: a default AttackerConfig reproduces
        // the historical hand-built agents stream-for-stream
        // ("feinting" derives its TB-RFM-safe decoy pool, "hammer"
        // alternates the row-5000 target with the 6000/6001 decoys
        // and restarts each NBO+ABOACT+4 burst).  The axis also
        // accepts any other registered attacker via --set attack=.
        AttackerConfig attacker_config;
        attacker_config.aggressors = static_cast<std::uint32_t>(
            params.getInt("attacker.aggressors"));
        attacker_config.poolSize = static_cast<std::uint32_t>(
            params.getInt("attacker.pool_size"));
        attacker_config.burstSpacing = static_cast<std::uint32_t>(
            params.getInt("attacker.burst_spacing"));
        attacker_config.phase = static_cast<std::uint32_t>(
            params.getInt("attacker.phase"));
        const std::unique_ptr<AttackerAgent> attacker =
            attackerByName(attack, attacker_config, harness.mem());
        harness.add(attacker.get());
        harness.run(end);

        const MemoryController &mem = harness.mem();
        const std::uint32_t max_counter =
            mem.prac().counters().maxEverSeen();
        // ABO's contract allows the counter to touch NBO plus the
        // ABOACT allowance before the RFM lands.
        const std::uint32_t contract = nbo + spec.prac.aboAct;

        ResultRow row = JsonValue::object();
        row.set("max_counter", max_counter);
        row.set("contract", contract);
        row.set("secure", max_counter <= contract);
        row.set("alerts", mem.prac().alerts());
        row.set("mitigated_rows", mem.prac().mitigatedRows());
        row.set("abo_rfms", mem.rfmCount(RfmReason::Abo));
        row.set("acb_rfms", mem.rfmCount(RfmReason::Acb));
        row.set("tb_rfms", mem.rfmCount(RfmReason::TimingBased));
        row.set("graphene_rfms", mem.rfmCount(RfmReason::Graphene));
        row.set("pb_rfms", mem.rfmCount(RfmReason::PerBank));
        row.set("mitigation_events", mem.mitigationEvents());
        row.set("acts",
                mem.dram().issueCount(CmdType::ACT));
        if (defense == "para") {
            // Per-row escape probability between counter resets.
            const double p = mem.config().para.refreshProb;
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
        .constant("seed", 0x5EA2C4)
        .constant("attacker.aggressors", 0)
        .constant("attacker.pool_size", 0)
        .constant("attacker.burst_spacing", 0)
        .constant("attacker.phase", 0);

    scenario.runPoint = [](const ParamSet &params) {
        SearchOptions options;
        options.targetDefense = params.getString("mitigation");
        const std::string attacker = params.getString("attacker");
        options.attacker = attacker == "auto" ? "" : attacker;
        options.budget =
            static_cast<std::uint32_t>(params.getInt("budget"));
        options.rounds =
            static_cast<std::uint32_t>(params.getInt("rounds"));
        options.seed =
            static_cast<std::uint64_t>(params.getInt("seed"));
        options.specName = params.getString("spec");
        options.nbo =
            static_cast<std::uint32_t>(params.getInt("nbo"));
        options.windowMs = params.getDouble("window_ms");
        options.base.aggressors = static_cast<std::uint32_t>(
            params.getInt("attacker.aggressors"));
        options.base.poolSize = static_cast<std::uint32_t>(
            params.getInt("attacker.pool_size"));
        options.base.burstSpacing = static_cast<std::uint32_t>(
            params.getInt("attacker.burst_spacing"));
        options.base.phase = static_cast<std::uint32_t>(
            params.getInt("attacker.phase"));
        // Inline, serial, unjournalled: the outer sweep runner owns
        // checkpointing and parallelism for this scenario.
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
        row.set("best_aggressors", static_cast<std::int64_t>(
                                       result.best.config.aggressors));
        row.set("best_pool_size", static_cast<std::int64_t>(
                                      result.best.config.poolSize));
        row.set("best_burst_spacing",
                static_cast<std::int64_t>(
                    result.best.config.burstSpacing));
        row.set("best_phase", static_cast<std::int64_t>(
                                  result.best.config.phase));
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
