/**
 * @file
 * Ablation scenarios: random-RFM obfuscation vs TPRAC (Section 7.1),
 * mitigation-queue designs under the Feinting attack (Sections 2.3
 * and 4.2.3), and per-bank TB-RFMs (TPRAC-PB, Section 7.2).
 */

#include "sim/scenario.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>

#include "attack/agents.h"
#include "attack/covert.h"
#include "attack/harness.h"
#include "common/rng.h"
#include "mem/controller.h"
#include "mitigation/registry.h"
#include "sim/design.h"
#include "sim/scenario_util.h"

namespace pracleak::sim {

namespace {

// --- Obfuscation ablation ------------------------------------------

struct Defense
{
    std::string key; //!< mitigation registry key
    double p;        //!< random-RFM injection probability per tREFI
};

/**
 * Decode a defense-axis label.  "none" means no defense beyond the
 * ABO substrate itself (the "abo-only" key), "tprac" is TPRAC, and
 * "random-P" is obfuscation at injection probability P.
 */
Defense
parseDefense(const std::string &label)
{
    if (label == "none")
        return {"abo-only", 0.0};
    if (label == "tprac")
        return {"tprac", 0.0};
    const std::string prefix = "random-";
    if (label.rfind(prefix, 0) == 0)
        return {"obfuscation",
                std::strtod(label.c_str() + prefix.size(), nullptr)};
    throw std::invalid_argument("unknown defense '" + label + "'");
}

double
channelAccuracy(const Defense &defense,
                const std::vector<bool> &message)
{
    CovertParams params;
    params.nbo = 256;
    params.defense = defense.key;
    params.randomRfmPerTrefi = defense.p;
    const CovertResult result = runActivityCovert(params, message);
    return 1.0 - result.errorRate();
}

double
perfOverhead(const Defense &defense)
{
    RunBudget budget;
    budget.measure = 100'000;
    const SuiteEntry &entry =
        findSuiteEntry(suiteEntryNames(MemIntensity::High).front());

    DesignConfig design;
    design.label = "obfuscation-ablation";
    design.mitigation = defense.key;
    design.nbo = 1024;
    design.randomRfmPerTrefi = defense.p;

    // All defense points share one memoized "none" baseline.
    const PairResult pair = runNormalizedPair(entry, design, budget);
    return 1.0 - normalizedPerf(pair.design, pair.baseline);
}

Scenario
ablationObfuscation()
{
    Scenario scenario;
    scenario.name = "ablation_obfuscation";
    scenario.tags = {"ablation", "defense"};
    scenario.title = "Ablation: random-RFM obfuscation vs TPRAC "
                     "(leakage and cost)";
    scenario.notes = "chance = ~50%: obfuscation pushes the naive "
                     "receiver toward chance as p grows, but Bit-1 "
                     "windows always carry their ABO spike; TPRAC "
                     "removes the dependence entirely";
    scenario.grid
        .axis("defense", {"none", "random-0.125", "random-0.25",
                          "random-0.5", "tprac"})
        .constant("message_bits", 32);

    scenario.runPoint = [](const ParamSet &params) {
        const Defense defense =
            parseDefense(params.getString("defense"));
        const auto message = randomBits(
            static_cast<std::size_t>(params.getInt("message_bits")),
            77);
        ResultRow row = JsonValue::object();
        row.set("channel_accuracy_pct",
                100.0 * channelAccuracy(defense, message));
        row.set("perf_overhead_pct", 100.0 * perfOverhead(defense));
        return std::vector<ResultRow>{std::move(row)};
    };
    return scenario;
}

// --- Mitigation-queue ablation -------------------------------------

/**
 * The FIFO-specific exploit from the QPRAC/MOAT analyses: keep the
 * bounded FIFO overflowing with decoy rows that cross the enqueue
 * threshold, so the target row's single crossing is dropped and it
 * can then be hammered indefinitely without ever being mitigated.
 */
class FifoOverflowAgent : public MemAgent
{
  public:
    FifoOverflowAgent(std::uint32_t target_row,
                      std::uint32_t threshold)
        : MemAgent(2), targetRow_(target_row), threshold_(threshold)
    {
    }

  private:
    std::optional<Addr>
    next(MemoryController &mem) override
    {
        return mem.mapper().compose(DramAddress{0, 0, 0, nextRow(), 0});
    }

    std::uint32_t
    nextRow()
    {
        // Phase layout, repeated with fresh decoys:
        //   (A,B) x threshold  -- two decoys cross the threshold
        //   (T,C) x threshold-4 -- target creeps up under cover
        const std::uint32_t phase_len = 4 * threshold_ - 8;
        const std::uint32_t pos = step_ % phase_len;
        const std::uint32_t phase = step_ / phase_len;
        ++step_;
        const std::uint32_t base = 10000 + phase * 3;
        if (pos < 2 * threshold_)
            return base + (pos & 1); // decoys A/B
        if ((pos & 1) == 0)
            return targetRow_;
        return base + 2; // decoy C (stays below threshold)
    }

    std::uint32_t targetRow_;
    std::uint32_t threshold_;
    std::uint32_t step_ = 0;
};

QueueKind
parseQueueKind(const std::string &name)
{
    if (name == "single-entry")
        return QueueKind::SingleEntry;
    if (name == "ideal")
        return QueueKind::Ideal;
    if (name == "fifo")
        return QueueKind::Fifo;
    throw std::invalid_argument("unknown queue kind '" + name + "'");
}

ChannelStats
fifoExploit(QueueKind queue, std::uint32_t nbo)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = nbo;
    spec.timing.tREFW = nsToCycles(2.0e6);

    ControllerConfig config;
    config.prac.queue = queue;
    config.prac.fifoThreshold = 16;
    config.prac.counterResetAtTrefw = false; // favour the attacker
    configureDefense(config, "tprac", spec);

    AttackHarness harness(spec, config);
    FifoOverflowAgent attacker(5000, 16);
    harness.add(&attacker);
    harness.run(config.tbRfm.windowCycles * 256);

    return snapshotChannelStats(harness.mem());
}

ChannelStats
attackQueue(QueueKind queue, std::uint32_t nbo, double window_scale)
{
    // Scaled universe (2 ms tREFW) so the complete worst-case attack
    // finishes in a bench budget; see tests/test_security.cpp.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = nbo;
    spec.timing.tREFW = nsToCycles(2.0e6);

    ControllerConfig config;
    config.prac.queue = queue;
    config.prac.fifoThreshold = nbo / 8;
    configureDefense(config, "tprac", spec);
    config.tbRfm.windowCycles = static_cast<Cycle>(
        config.tbRfm.windowCycles * window_scale);

    const FeintingParams fp = FeintingParams::fromSpec(spec);
    const double window_ns = cyclesToNs(config.tbRfm.windowCycles);
    const std::uint64_t act_w =
        std::max<std::uint64_t>(actsPerWindow(window_ns, fp), 1);
    const auto pool = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        optimalPool(window_ns, act_w, fp), 2048));

    AttackHarness harness(spec, config);
    // Registry-style construction: the pool is pinned explicitly
    // because it is sized to the (window-scaled) TB-RFM window above,
    // not the default TB-RFM-safe cadence.
    AttackerConfig attacker_config;
    attacker_config.poolSize = pool;
    FeintingAgent attacker(harness.mem(), attacker_config);
    harness.add(&attacker);
    harness.run(config.tbRfm.windowCycles * (pool + 16));

    return snapshotChannelStats(harness.mem());
}

Scenario
ablationQueues()
{
    Scenario scenario;
    scenario.name = "ablation_queues";
    scenario.tags = {"ablation", "security"};
    scenario.title = "Ablation: mitigation-queue designs under the "
                     "Feinting and FIFO-overflow attacks";
    scenario.notes = "window_scale 0 = the FIFO-overflow exploit "
                     "(skipped for the ideal queue); the single-entry "
                     "queue must track the oracle at the safe window "
                     "while the overflowing FIFO lets the target "
                     "reach NBO";
    scenario.grid.axis("queue", {"single-entry", "ideal", "fifo"})
        .axis("window_scale", {1.0, 2.0, 0.0})
        .constant("nbo", 512);

    scenario.runPoint = [](const ParamSet &params) {
        const QueueKind queue =
            parseQueueKind(params.getString("queue"));
        const auto nbo = params.getUint32("nbo");
        const double scale = params.getDouble("window_scale");

        ChannelStats outcome;
        std::string experiment;
        if (scale == 0.0) {
            if (queue == QueueKind::Ideal)
                return std::vector<ResultRow>{}; // exploit is FIFO-specific
            experiment = "fifo-overflow";
            outcome = fifoExploit(queue, nbo);
        } else {
            experiment = "feinting";
            outcome = attackQueue(queue, nbo, scale);
        }

        ResultRow row = JsonValue::object();
        row.set("experiment", experiment);
        row.set("max_counter", outcome.maxCounterSeen);
        row.set("mitigations", outcome.mitigatedRows);
        row.set("alerts", outcome.alerts);
        return std::vector<ResultRow>{std::move(row)};
    };
    return scenario;
}

// --- TPRAC-PB ablation ---------------------------------------------

Scenario
ablationRfmpb()
{
    Scenario scenario;
    scenario.name = "ablation_rfmpb";
    scenario.tags = {"ablation", "perf"};
    scenario.title = "Ablation: all-bank TPRAC vs per-bank TPRAC-PB "
                     "(high-RBMPKI subset)";
    scenario.notes = "the per-bank variant removes most of the "
                     "channel-stall overhead; it requires the spec "
                     "change of paper Section 7.2";
    scenario.grid.axis("design", {"tprac", "tprac-pb"})
        .axis("nrh", {256, 512, 1024, 2048})
        .axis("entry", toValues(suiteEntryNames(MemIntensity::High)))
        .constant("warmup", 50'000)
        .constant("measure", 150'000);

    scenario.runPoint = [](const ParamSet &params) {
        const DesignConfig design = designFromLabel(
            params.getString("design"),
            params.getUint32("nrh"), 1);

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
        row.set("normalized",
                normalizedPerf(pair.design, pair.baseline));
        setRfmColumns(row, pair.design.stats, {RfmReason::TimingBased});
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        // Mean slowdown per (design, nrh), mirroring the old table.
        std::vector<std::string> order;
        std::map<std::string, std::pair<double, int>> groups;
        std::map<std::string, std::pair<std::string, std::int64_t>>
            labels;
        for (const ResultRow &row : rows) {
            const std::string design =
                row.get("design")->asString();
            const std::int64_t nrh = row.get("nrh")->asInt();
            const std::string key =
                design + '@' + std::to_string(nrh);
            if (groups.find(key) == groups.end()) {
                order.push_back(key);
                labels[key] = {design, nrh};
            }
            auto &bucket = groups[key];
            bucket.first += row.get("normalized")->asDouble();
            bucket.second += 1;
        }
        std::vector<ResultRow> out;
        for (const auto &key : order) {
            const auto &bucket = groups[key];
            ResultRow row = JsonValue::object();
            row.set("design", labels[key].first);
            row.set("nrh", labels[key].second);
            row.set("mean_slowdown_pct",
                    100.0 * (1.0 - bucket.first / bucket.second));
            out.push_back(std::move(row));
        }
        return out;
    };
    return scenario;
}

} // namespace

void
registerAblationScenarios(ScenarioRegistry &registry)
{
    registry.add(ablationObfuscation());
    registry.add(ablationQueues());
    registry.add(ablationRfmpb());
}

} // namespace pracleak::sim
