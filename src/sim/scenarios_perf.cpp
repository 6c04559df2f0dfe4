/**
 * @file
 * Performance-evaluation scenarios: Figures 10-14 plus Tables 4 and 5.
 *
 * Each grid point is one (workload entry x design) pair; the runner
 * runs up to --jobs points at once and the "none" baseline
 * leg is memoized (sim/design.h), so comparing N designs costs one
 * baseline simulation per workload, not N.
 */

#include "sim/scenario.h"

#include <array>
#include <map>

#include "sim/design.h"
#include "sim/scenario_util.h"

namespace pracleak::sim {

namespace {

RunBudget
budgetFrom(const ParamSet &params)
{
    RunBudget budget;
    if (params.has("warmup"))
        budget.warmup =
            static_cast<std::uint64_t>(params.getInt("warmup"));
    if (params.has("measure"))
        budget.measure =
            static_cast<std::uint64_t>(params.getInt("measure"));
    return budget;
}

/** One (entry, design) comparison against the memoized baseline. */
ResultRow
perfRow(const std::string &entryName, const DesignConfig &design,
        const RunBudget &budget)
{
    const SuiteEntry &entry = findSuiteEntry(entryName);
    const PairResult pair = runNormalizedPair(entry, design, budget);

    ResultRow row = JsonValue::object();
    row.set("class", intensityName(entry.intensity));
    row.set("normalized", normalizedPerf(pair.design, pair.baseline));
    row.set("ipc_sum", pair.design.ipcSum());
    setRfmColumns(row, pair.design.stats, {RfmReason::TimingBased});
    row.set("tb_rfms_skipped", pair.design.tbRfmsSkipped);
    setRfmColumns(row, pair.design.stats,
                  {RfmReason::Abo, RfmReason::Acb});
    row.set("alerts", pair.design.stats.alerts);
    return row;
}

/**
 * Group @p rows by @p keys (first-seen order) and emit one summary
 * row per group: the keys, the mean of @p field, and the group size.
 */
std::vector<ResultRow>
meanBy(const std::vector<ResultRow> &rows,
       const std::vector<std::string> &keys,
       const std::string &field = "normalized")
{
    std::vector<std::string> order;
    std::map<std::string, std::pair<double, std::int64_t>> groups;
    std::map<std::string, ResultRow> labels;
    for (const ResultRow &row : rows) {
        const JsonValue *value = row.get(field);
        if (!value)
            continue;
        std::string groupKey;
        ResultRow label = JsonValue::object();
        for (const auto &key : keys) {
            const JsonValue *part = row.get(key);
            const std::string text = part ? part->asString() : "";
            groupKey += text + '\x1f';
            label.set(key, part ? *part : JsonValue());
        }
        if (groups.find(groupKey) == groups.end()) {
            order.push_back(groupKey);
            labels.emplace(groupKey, std::move(label));
        }
        auto &bucket = groups[groupKey];
        bucket.first += value->asDouble();
        bucket.second += 1;
    }

    std::vector<ResultRow> out;
    for (const auto &groupKey : order) {
        const auto &bucket = groups[groupKey];
        ResultRow row = labels[groupKey];
        row.set("mean_" + field,
                bucket.first / static_cast<double>(bucket.second));
        row.set("count", bucket.second);
        out.push_back(std::move(row));
    }
    return out;
}

/** Subset of @p rows whose @p key stringifies to @p value. */
std::vector<ResultRow>
filterBy(const std::vector<ResultRow> &rows, const std::string &key,
         const std::string &value)
{
    std::vector<ResultRow> out;
    for (const ResultRow &row : rows) {
        const JsonValue *cell = row.get(key);
        if (cell && cell->asString() == value)
            out.push_back(row);
    }
    return out;
}

// --- Figure 10 -----------------------------------------------------

Scenario
fig10Performance()
{
    Scenario scenario;
    scenario.name = "fig10_performance";
    scenario.tags = {"perf"};
    scenario.title = "Figure 10: normalized performance at NRH=1024";
    scenario.notes = "paper: tprac mean 0.966 (worst 0.917), abo+acb "
                     "0.993, abo-only ~1.0; TPRAC must stay "
                     "Alert-free";
    scenario.grid
        .axis("design", {"abo-only", "abo+acb-rfm", "tprac"})
        .axis("entry", toValues(suiteEntryNames()))
        .constant("nrh", 1024)
        .constant("warmup", 50'000)
        .constant("measure", 250'000);

    scenario.runPoint = [](const ParamSet &params) {
        const DesignConfig design = designFromLabel(
            params.getString("design"),
            params.getUint32("nrh"), 1);
        return std::vector<ResultRow>{perfRow(
            params.getString("entry"), design, budgetFrom(params))};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::vector<ResultRow> out =
            meanBy(filterBy(rows, "class", "high"),
                   {"design"});
        for (ResultRow &row : out)
            row.set("subset", "high");
        for (ResultRow row : meanBy(rows, {"design"})) {
            row.set("subset", "all");
            out.push_back(std::move(row));
        }
        const std::string &tb_rfms = rfmColumn(RfmReason::TimingBased);
        std::int64_t tpracRfms = 0;
        std::int64_t tpracAlerts = 0;
        for (const ResultRow &row : filterBy(rows, "design", "tprac")) {
            tpracRfms += row.get(tb_rfms)->asInt();
            tpracAlerts += row.get("alerts")->asInt();
        }
        ResultRow security = JsonValue::object();
        security.set("design", "tprac");
        security.set("subset", "security");
        security.set(tb_rfms, tpracRfms);
        security.set("alerts_must_be_zero", tpracAlerts);
        out.push_back(std::move(security));
        return out;
    };
    return scenario;
}

// --- Figure 11 -----------------------------------------------------

Scenario
fig11PracLevels()
{
    Scenario scenario;
    scenario.name = "fig11_prac_levels";
    scenario.tags = {"perf"};
    scenario.title = "Figure 11: sensitivity to the PRAC level "
                     "(NRH=1024, high-RBMPKI subset)";
    scenario.notes = "paper: flat across levels; tprac ~0.966, "
                     "abo+acb ~0.993, abo-only ~1.0";
    scenario.grid
        .axis("design", {"abo-only", "abo+acb-rfm", "tprac"})
        .axis("nmit", {1, 2, 4})
        .axis("entry", toValues(suiteEntryNames(MemIntensity::High)))
        .constant("nrh", 1024)
        .constant("warmup", 50'000)
        .constant("measure", 150'000);

    scenario.runPoint = [](const ParamSet &params) {
        const DesignConfig design = designFromLabel(
            params.getString("design"),
            params.getUint32("nrh"),
            params.getUint32("nmit"));
        return std::vector<ResultRow>{perfRow(
            params.getString("entry"), design, budgetFrom(params))};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        return meanBy(rows, {"design", "nmit"});
    };
    return scenario;
}

// --- Figure 12 -----------------------------------------------------

Scenario
fig12TrefSensitivity()
{
    Scenario scenario;
    scenario.name = "fig12_tref_sensitivity";
    scenario.tags = {"perf"};
    scenario.title = "Figure 12: TPRAC vs Targeted-Refresh rate "
                     "(NRH=1024)";
    scenario.notes = "paper: 0.966 -> 0.976 -> 0.980 -> 0.986 -> ~1.0 "
                     "as TREFs replace TB-RFMs";
    scenario.grid.axis("tref_period", {0, 4, 3, 2, 1})
        .axis("entry", toValues(suiteEntryNames()))
        .constant("nrh", 1024)
        .constant("warmup", 50'000)
        .constant("measure", 150'000);

    scenario.runPoint = [](const ParamSet &params) {
        DesignConfig design = designFromLabel(
            "tprac",
            params.getUint32("nrh"), 1);
        design.trefPeriodRefs = params.getUint32("tref_period");
        return std::vector<ResultRow>{perfRow(
            params.getString("entry"), design, budgetFrom(params))};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::vector<ResultRow> out;
        for (const char *subset : {"high", "medium", "low"}) {
            for (ResultRow row :
                 meanBy(filterBy(rows, "class", subset),
                        {"tref_period"})) {
                row.set("subset", subset);
                out.push_back(std::move(row));
            }
        }
        for (ResultRow row : meanBy(rows, {"tref_period"})) {
            row.set("subset", "all");
            out.push_back(std::move(row));
        }
        std::map<std::int64_t, std::int64_t> skips;
        for (const ResultRow &row : rows)
            skips[row.get("tref_period")->asInt()] +=
                row.get("tb_rfms_skipped")->asInt();
        for (ResultRow &row : out)
            if (row.get("subset")->asString() == "all")
                row.set("tb_rfms_skipped",
                        skips[row.get("tref_period")->asInt()]);
        return out;
    };
    return scenario;
}

// --- Figure 13 -----------------------------------------------------

Scenario
fig13NrhSweep()
{
    Scenario scenario;
    scenario.name = "fig13_nrh_sweep";
    scenario.tags = {"perf"};
    scenario.title = "Figure 13: normalized performance vs NRH "
                     "(high+medium subset)";
    scenario.notes = "paper (all-suite): tprac 0.774/0.859/0.935/"
                     "0.966/0.984/0.994 at NRH 128..4096; abo+acb "
                     "0.893..0.993; abo-only ~1";
    scenario.grid
        .axis("design", {"abo-only", "abo+acb-rfm", "tprac",
                         "tprac+tref/4", "tprac+tref/1"})
        .axis("nrh", {128, 256, 512, 1024, 2048, 4096})
        .axis("entry", toValues(memoryIntensiveEntryNames()))
        .constant("warmup", 50'000)
        .constant("measure", 150'000);

    scenario.runPoint = [](const ParamSet &params) {
        const DesignConfig design = designFromLabel(
            params.getString("design"),
            params.getUint32("nrh"), 1);
        return std::vector<ResultRow>{perfRow(
            params.getString("entry"), design, budgetFrom(params))};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        return meanBy(rows, {"design", "nrh"});
    };
    return scenario;
}

// --- Figure 14 -----------------------------------------------------

Scenario
fig14CounterReset()
{
    Scenario scenario;
    scenario.name = "fig14_counter_reset";
    scenario.tags = {"perf"};
    scenario.title = "Figure 14: TPRAC counter-reset sensitivity "
                     "(high+medium subset)";
    scenario.notes = "paper: reset vs no-reset differs <1% at "
                     "NRH>=1024, ~3% at NRH=128";
    scenario.grid.axis("reset", {true, false})
        .axis("tref_period", {0, 1})
        .axis("nrh", {128, 256, 512, 1024, 4096})
        .axis("entry", toValues(memoryIntensiveEntryNames()))
        .constant("warmup", 50'000)
        .constant("measure", 150'000);

    scenario.runPoint = [](const ParamSet &params) {
        DesignConfig design = designFromLabel(
            "tprac",
            params.getUint32("nrh"), 1);
        design.counterReset = params.getBool("reset");
        design.trefPeriodRefs = params.getUint32("tref_period");
        return std::vector<ResultRow>{perfRow(
            params.getString("entry"), design, budgetFrom(params))};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::vector<ResultRow> out =
            meanBy(rows, {"reset", "tref_period", "nrh"});
        const FeintingParams fp =
            FeintingParams::fromSpec(DramSpec::ddr5_8000b());
        for (ResultRow &row : out) {
            const auto nrh = static_cast<std::uint32_t>(
                row.get("nrh")->asInt());
            const bool reset = row.get("reset")->asBool();
            row.set("tb_window_trefi",
                    maxSafeWindowNs(nrh, reset, fp) / fp.trefiNs);
        }
        return out;
    };
    return scenario;
}

// --- Table 4 -------------------------------------------------------

Scenario
table4Rbmpki()
{
    Scenario scenario;
    scenario.name = "table4_rbmpki";
    scenario.tags = {"perf"};
    scenario.title = "Table 4: RBMPKI categorization of the workload "
                     "suite";
    scenario.notes = "bands: High >= 10, Medium in [1, 10), Low < 1";
    scenario.grid.axis("entry", toValues(suiteEntryNames()))
        .constant("warmup", 100'000) // let cache footprints warm
        .constant("measure", 200'000);

    scenario.runPoint = [](const ParamSet &params) {
        const SuiteEntry &entry =
            findSuiteEntry(params.getString("entry"));
        const DesignConfig baseline = designFromLabel("baseline", 1024, 1);
        const RunResult result =
            runOne(entry, baseline, budgetFrom(params));

        const double rbmpki = result.rbmpki();
        bool inBand = false;
        switch (entry.intensity) {
          case MemIntensity::High: inBand = rbmpki >= 10.0; break;
          case MemIntensity::Medium:
            inBand = rbmpki >= 1.0 && rbmpki < 10.0;
            break;
          case MemIntensity::Low: inBand = rbmpki < 1.0; break;
        }

        ResultRow row = JsonValue::object();
        row.set("class", intensityName(entry.intensity));
        row.set("rbmpki", rbmpki);
        row.set("ipc_sum", result.ipcSum());
        row.set("in_band", inBand);
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::int64_t inBand = 0;
        for (const ResultRow &row : rows)
            inBand += row.get("in_band")->asBool() ? 1 : 0;
        ResultRow row = JsonValue::object();
        row.set("in_band", inBand);
        row.set("total", static_cast<std::int64_t>(rows.size()));
        return std::vector<ResultRow>{std::move(row)};
    };
    return scenario;
}

// --- Table 5 -------------------------------------------------------

Scenario
table5Energy()
{
    Scenario scenario;
    scenario.name = "table5_energy";
    scenario.tags = {"perf", "energy"};
    scenario.title = "Table 5: TPRAC energy overhead (high+medium "
                     "subset)";
    scenario.notes = "paper: 44.3 / 26.1 / 10.4 / 7.4 / 2.6 / 1.0 % "
                     "total at NRH 128..4096, mitigation share rising "
                     "as NRH falls";
    scenario.grid.axis("nrh", {128, 256, 512, 1024, 2048, 4096})
        .axis("entry", toValues(memoryIntensiveEntryNames()))
        .constant("warmup", 50'000)
        .constant("measure", 150'000);

    scenario.runPoint = [](const ParamSet &params) {
        const DesignConfig tprac = designFromLabel(
            "tprac",
            params.getUint32("nrh"), 1);
        const SuiteEntry &entry =
            findSuiteEntry(params.getString("entry"));
        const PairResult pair =
            runNormalizedPair(entry, tprac, budgetFrom(params));

        ResultRow row = JsonValue::object();
        row.set("base_total_nj", pair.baseline.energy.totalNj());
        row.set("tprac_total_nj", pair.design.energy.totalNj());
        row.set("tprac_mitigation_nj",
                pair.design.energy.mitigationNj);
        row.set("normalized",
                normalizedPerf(pair.design, pair.baseline));
        return std::vector<ResultRow>{std::move(row)};
    };

    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::vector<std::int64_t> order;
        std::map<std::int64_t, std::array<double, 3>> byNrh;
        for (const ResultRow &row : rows) {
            const std::int64_t nrh = row.get("nrh")->asInt();
            if (byNrh.find(nrh) == byNrh.end())
                order.push_back(nrh);
            auto &sums = byNrh[nrh];
            sums[0] += row.get("base_total_nj")->asDouble();
            sums[1] += row.get("tprac_total_nj")->asDouble();
            sums[2] += row.get("tprac_mitigation_nj")->asDouble();
        }
        std::vector<ResultRow> out;
        for (const std::int64_t nrh : order) {
            const auto &sums = byNrh[nrh];
            const double total =
                100.0 * (sums[1] - sums[0]) / sums[0];
            const double mitigation = 100.0 * sums[2] / sums[0];
            ResultRow row = JsonValue::object();
            row.set("nrh", nrh);
            row.set("mitigation_pct", mitigation);
            row.set("non_mitigation_pct", total - mitigation);
            row.set("total_pct", total);
            out.push_back(std::move(row));
        }
        return out;
    };
    return scenario;
}

} // namespace

void
registerPerfScenarios(ScenarioRegistry &registry)
{
    registry.add(fig10Performance());
    registry.add(fig11PracLevels());
    registry.add(fig12TrefSensitivity());
    registry.add(fig13NrhSweep());
    registry.add(fig14CounterReset());
    registry.add(table4Rbmpki());
    registry.add(table5Energy());
}

} // namespace pracleak::sim
