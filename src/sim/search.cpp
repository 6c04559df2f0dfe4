#include "sim/search.h"

#include <algorithm>
#include <stdexcept>

#include "attack/harness.h"
#include "common/rng.h"
#include "mitigation/registry.h"
#include "sim/runner.h"
#include "sim/scenario_util.h"

namespace pracleak::sim {

namespace {

/** Candidate 0: the defense-oblivious security-matrix hammer. */
AttackerConfig
obliviousBaseline(const AttackerConfig &base)
{
    AttackerConfig config;
    config.attacker = "hammer";
    config.targetBank = base.targetBank;
    config.targetRow = base.targetRow;
    config.seed = base.seed;
    return config;
}

/**
 * Sample candidate @p id's knobs from its own counter-derived RNG
 * stream.  Knobs pinned (non-zero) in @p base are not sampled, so
 * `--set attacker.<knob>=` narrows the search space.
 */
AttackerConfig
sampleCandidate(const std::string &attacker,
                const AttackerConfig &base, std::uint64_t seed,
                std::uint32_t id)
{
    AttackerConfig config = base;
    config.attacker = attacker;
    Rng rng(deriveRngStream(seed, id));
    for (const AttackerKnob &knob : attackerKnobSpace(attacker)) {
        const AttackerField *field = findAttackerField(knob.knob);
        if (!field)
            throw std::invalid_argument(
                "search: unknown attacker knob '" +
                std::string(knob.knob) + "'");
        if (base.*field->field != 0)
            continue;  // pinned by the caller
        config.*field->field =
            knob.lo + static_cast<std::uint32_t>(
                          rng.range(knob.hi - knob.lo + 1));
    }
    return config;
}

JsonValue
candidateToJson(const SearchCandidate &candidate)
{
    JsonValue obj = JsonValue::object();
    obj.set("id", static_cast<std::int64_t>(candidate.id));
    obj.set("attacker", candidate.config.attacker);
    setAttackerKnobs(obj, candidate.config, "", /*placement=*/true);
    obj.set("max_counter",
            static_cast<std::int64_t>(candidate.maxCounter));
    obj.set("secure", candidate.secure);
    return obj;
}

/**
 * The search's row for one candidate: its attacker and effective
 * tunable knobs, the verdict, and RFM telemetry.
 */
ResultRow
evaluateAttacker(const std::string &defense,
                 const AttackerConfig &config,
                 const std::string &spec_name, std::uint32_t nbo,
                 double window_ms)
{
    const ScaledAttack run =
        runScaledAttack(defense, config, spec_name, nbo, window_ms);
    ResultRow row = JsonValue::object();
    row.set("attacker", run.attacker->name());
    setAttackerKnobs(row, run.attacker->config());
    run.setVerdict(row);
    row.set("mitigation_events", run.stats.mitigationEvents);
    setRfmColumns(row, run.stats,
                  {RfmReason::Graphene, RfmReason::PerBank});
    return row;
}

} // namespace

void
setAttackerKnobs(JsonValue &row, const AttackerConfig &config,
                 const std::string &prefix, bool placement)
{
    for (const AttackerField &field : kAttackerFields)
        if (field.tunable || placement)
            row.set(prefix + field.name, config.*field.field);
}

ScaledAttack
runScaledAttack(const std::string &defense, const AttackerConfig &config,
                const std::string &spec_name, std::uint32_t nbo,
                double window_ms)
{
    DramSpec spec = specByName(spec_name);
    spec.prac.nbo = nbo;
    spec.timing.tREFW = nsToCycles(2.0e6);

    ControllerConfig controller;
    configureDefense(controller, defense, spec);

    ScaledAttack run;
    run.harness = std::make_unique<AttackHarness>(spec, controller);
    run.attacker =
        attackerByName(config.attacker, config, run.harness->mem());
    run.harness->add(run.attacker.get());
    run.harness->run(nsToCycles(window_ms * 1.0e6));
    run.stats = snapshotChannelStats(run.harness->mem());
    return run;
}

void
ScaledAttack::setVerdict(ResultRow &row) const
{
    const std::uint32_t contract = mem().dram().spec().prac.aboContract();
    row.set("max_counter", stats.maxCounterSeen);
    row.set("contract", contract);
    row.set("secure", stats.maxCounterSeen <= contract);
    row.set("alerts", stats.alerts);
}

JsonValue
SearchResult::toJson() const
{
    JsonValue obj = JsonValue::object();
    obj.set("search", "attacker");
    obj.set("target_defense", targetDefense);
    obj.set("attacker", attacker);
    obj.set("seed", static_cast<std::int64_t>(seed));
    obj.set("budget", static_cast<std::int64_t>(budget));
    obj.set("contract", static_cast<std::int64_t>(contract));
    JsonValue round_list = JsonValue::array();
    for (const SearchRound &round : rounds) {
        JsonValue entry = JsonValue::object();
        entry.set("round", static_cast<std::int64_t>(round.round));
        entry.set("window_ms", round.windowMs);
        JsonValue list = JsonValue::array();
        for (const SearchCandidate &candidate : round.candidates)
            list.push(candidateToJson(candidate));
        entry.set("candidates", std::move(list));
        round_list.push(std::move(entry));
    }
    obj.set("rounds", std::move(round_list));
    obj.set("best", candidateToJson(best));
    obj.set("oblivious", candidateToJson(oblivious));
    return obj;
}

SearchResult
runAttackerSearch(const SearchOptions &options)
{
    SearchResult result;
    result.targetDefense = options.targetDefense;
    result.attacker = options.attacker.empty()
                          ? attackerForDefense(options.targetDefense)
                          : options.attacker;
    result.seed = options.seed;
    result.budget = std::max<std::uint32_t>(2, options.budget);
    PracParams prac = specByName(options.specName).prac;
    prac.nbo = options.nbo;
    result.contract = prac.aboContract();

    // Candidate 0 is the oblivious baseline; it is exempt from
    // elimination so the final full-window round always contains it
    // and the reported best is >= the oblivious attack.
    std::vector<AttackerConfig> candidates;
    candidates.push_back(obliviousBaseline(options.base));
    for (std::uint32_t id = 1; id < result.budget; ++id)
        candidates.push_back(sampleCandidate(
            result.attacker, options.base, options.seed, id));

    std::vector<std::uint32_t> surviving;
    for (std::uint32_t id = 0; id < candidates.size(); ++id)
        surviving.push_back(id);

    const std::uint32_t total_rounds =
        std::max<std::uint32_t>(1, options.rounds);
    for (std::uint32_t round = 1; round <= total_rounds; ++round) {
        const double window_ms =
            options.windowMs /
            static_cast<double>(1u << (total_rounds - round));

        Scenario inner;
        inner.name = options.journalTag + "." +
                     options.targetDefense + ".r" +
                     std::to_string(round);
        inner.title = "attacker search round";
        std::vector<JsonValue> axis;
        for (const std::uint32_t id : surviving)
            axis.emplace_back(static_cast<std::int64_t>(id));
        inner.grid.axis("candidate", std::move(axis));
        const std::string defense = options.targetDefense;
        const std::string spec_name = options.specName;
        const std::uint32_t nbo = options.nbo;
        inner.runPoint = [&candidates, defense, spec_name, nbo,
                          window_ms](const ParamSet &params) {
            const auto id = params.getUint32("candidate");
            return std::vector<ResultRow>{
                evaluateAttacker(defense, candidates[id], spec_name,
                                 nbo, window_ms)};
        };

        RunOptions run_options;
        run_options.jobs = options.jobs;
        run_options.progress = false;
        if (!options.checkpointDir.empty()) {
            run_options.checkpoint.directory = options.checkpointDir;
            run_options.checkpoint.resume = options.resume;
        }
        const SweepResult sweep = runScenario(inner, run_options);

        SearchRound record;
        record.round = round;
        record.windowMs = window_ms;
        for (const ResultRow &row : sweep.rows) {
            SearchCandidate candidate;
            candidate.id = static_cast<std::uint32_t>(
                row.get("candidate")->asInt());
            candidate.config = candidates[candidate.id];
            candidate.maxCounter = static_cast<std::uint32_t>(
                row.get("max_counter")->asInt());
            candidate.secure = row.get("secure")->asBool();
            candidates[candidate.id].attacker =
                row.get("attacker")->asString();
            candidate.config = candidates[candidate.id];
            record.candidates.push_back(candidate);
        }
        result.rounds.push_back(record);

        // Successive halving: rank by (metric desc, id asc), keep
        // the top half, and re-admit the baseline if it fell out.
        std::vector<SearchCandidate> ranked = record.candidates;
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const SearchCandidate &a,
                            const SearchCandidate &b) {
                             return a.maxCounter > b.maxCounter;
                         });
        const std::size_t keep = (ranked.size() + 1) / 2;
        surviving.clear();
        for (std::size_t i = 0; i < keep; ++i)
            surviving.push_back(ranked[i].id);
        if (std::find(surviving.begin(), surviving.end(), 0u) ==
            surviving.end())
            surviving.push_back(0);
        std::sort(surviving.begin(), surviving.end());

        if (round == total_rounds) {
            for (const SearchCandidate &candidate :
                 record.candidates) {
                if (candidate.id == 0)
                    result.oblivious = candidate;
                if (candidate.maxCounter > result.best.maxCounter ||
                    (candidate.maxCounter == result.best.maxCounter &&
                     result.best.config.attacker.empty()))
                    result.best = candidate;
            }
        }
    }
    return result;
}

} // namespace pracleak::sim
