/**
 * @file
 * Golden-value regression tests: three cheap scenarios pinned to the
 * exact numbers the seed tree produced (fig07's analytic table, a
 * small table2 covert grid, and the obfuscation-ablation endpoints).
 * Future refactors of the hot loop, the controller, or the runner
 * cannot silently shift paper numbers past these.
 *
 * Integer metrics must match exactly; doubles are integer-derived
 * and allowed only cross-compiler last-ulp noise.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/design.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace pracleak::sim {
namespace {

const ResultRow &
rowAt(const std::vector<ResultRow> &rows, std::size_t index)
{
    EXPECT_LT(index, rows.size());
    return rows[index];
}

std::int64_t
intOf(const ResultRow &row, const char *key)
{
    const JsonValue *value = row.get(key);
    EXPECT_NE(value, nullptr) << key;
    return value ? value->asInt() : -1;
}

double
doubleOf(const ResultRow &row, const char *key)
{
    const JsonValue *value = row.get(key);
    EXPECT_NE(value, nullptr) << key;
    return value ? value->asDouble() : -1.0;
}

void
expectNear(double actual, double golden, const char *what)
{
    EXPECT_NEAR(actual, golden, 1e-9 * std::abs(golden) + 1e-12)
        << what;
}

TEST(Golden, Fig07TmaxAnalysis)
{
    registerBuiltinScenarios();
    RunOptions options;
    options.progress = false;
    const SweepResult result =
        runScenarioByName("fig07_tmax_analysis", options);

    // One row per window_trefi grid value (0.25 .. 4), columns:
    // {tmax_reset, tmax_noreset, acts_per_window}.
    const std::int64_t rows[][3] = {
        {125, 143, 12},   {301, 365, 30},   {474, 601, 49},
        {640, 835, 68},   {1252, 1762, 143}, {2367, 3616, 293},
    };
    ASSERT_EQ(result.rows.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(intOf(rowAt(result.rows, i), "tmax_reset"),
                  rows[i][0]) << "row " << i;
        EXPECT_EQ(intOf(rowAt(result.rows, i), "tmax_noreset"),
                  rows[i][1]) << "row " << i;
        EXPECT_EQ(intOf(rowAt(result.rows, i), "acts_per_window"),
                  rows[i][2]) << "row " << i;
    }

    // (nbo, safe_window reset/noreset in tREFI, safe BAT)
    const double summary[][4] = {
        {128, 0.26, 0.23, 12},  {256, 0.43, 0.38, 25},
        {512, 0.80, 0.64, 53},  {1024, 1.62, 1.20, 114},
        {2048, 3.40, 2.31, 248}, {4096, 7.40, 4.51, 548},
    };
    ASSERT_EQ(result.summary.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        const ResultRow &row = rowAt(result.summary, i);
        EXPECT_EQ(intOf(row, "nbo"),
                  static_cast<std::int64_t>(summary[i][0]));
        expectNear(doubleOf(row, "safe_window_trefi_reset"),
                   summary[i][1], "safe window (reset)");
        expectNear(doubleOf(row, "safe_window_trefi_noreset"),
                   summary[i][2], "safe window (no reset)");
        EXPECT_EQ(intOf(row, "safe_bat"),
                  static_cast<std::int64_t>(summary[i][3]));
    }
}

TEST(Golden, Table2CovertChannelsSmallGrid)
{
    registerBuiltinScenarios();
    RunOptions options;
    options.progress = false;
    options.overrides["nbo"] = {JsonValue(std::int64_t{256})};
    options.overrides["bits"] = {JsonValue(std::int64_t{16})};
    options.overrides["symbols"] = {JsonValue(std::int64_t{8})};
    const SweepResult result =
        runScenarioByName("table2_covert_channels", options);

    ASSERT_EQ(result.rows.size(), 2u);
    const ResultRow &activity = rowAt(result.rows, 0);
    EXPECT_EQ(activity.get("channel")->asString(), "activity");
    expectNear(doubleOf(activity, "period_us"), 37.9615,
               "activity period");
    expectNear(doubleOf(activity, "rate_kbps"), 26.342478563808069,
               "activity rate");
    EXPECT_EQ(intOf(activity, "symbols_sent"), 16);
    expectNear(doubleOf(activity, "error_pct"), 0.0,
               "activity errors");

    const ResultRow &count = rowAt(result.rows, 1);
    EXPECT_EQ(count.get("channel")->asString(), "count");
    expectNear(doubleOf(count, "period_us"), 79.07034375,
               "count period");
    expectNear(doubleOf(count, "rate_kbps"), 50.587866579244505,
               "count rate");
    EXPECT_EQ(intOf(count, "symbols_sent"), 8);
    expectNear(doubleOf(count, "error_pct"), 0.0, "count errors");
}

TEST(Golden, AblationObfuscationEndpoints)
{
    registerBuiltinScenarios();
    RunOptions options;
    options.progress = false;
    options.overrides["defense"] = {JsonValue("none"),
                                    JsonValue("tprac")};
    options.overrides["message_bits"] = {JsonValue(std::int64_t{16})};
    const SweepResult result =
        runScenarioByName("ablation_obfuscation", options);

    ASSERT_EQ(result.rows.size(), 2u);
    const ResultRow &none = rowAt(result.rows, 0);
    EXPECT_EQ(none.get("defense")->asString(), "none");
    expectNear(doubleOf(none, "channel_accuracy_pct"), 100.0,
               "undefended accuracy");
    expectNear(doubleOf(none, "perf_overhead_pct"), 0.0,
               "undefended overhead");

    const ResultRow &tprac = rowAt(result.rows, 1);
    EXPECT_EQ(tprac.get("defense")->asString(), "tprac");
    expectNear(doubleOf(tprac, "channel_accuracy_pct"), 62.5,
               "tprac accuracy (chance-ish)");
    // Overhead is a ratio of IPCs; give it a slightly wider berth
    // than the pure-integer metrics but still pin the value.
    EXPECT_NEAR(doubleOf(tprac, "perf_overhead_pct"), 6.4237551,
                1e-6);
}

/**
 * Golden equivalence for the mitigation-subsystem port: each of the
 * seed tree's five mitigation modes, selected by its registry key
 * and run through the pluggable defense framework, must reproduce
 * the exact RunResult the pre-refactor seed tree produced (captured
 * on the seed at warmup 5k / measure 30k, h_rand_heavy, NBO 512).
 */
TEST(Golden, MitigationPortBitIdentical)
{
    struct ModeGolden
    {
        const char *label;          //!< registry key
        bool perBank;
        double randomP;             //!< <0 = keep default
        Cycle measureCycles;
        std::uint64_t rowMisses, acbRfms, tbRfms;
        std::uint64_t acts, reads, refreshes, mitigatedRows;
        double ipcSum;
    };
    const ModeGolden goldens[] = {
        {"none", false, -1.0, 68703,
         7248, 0, 0, 7248, 7134, 18, 0, 2.0489360293490995},
        {"abo-only", false, -1.0, 68703,
         7248, 0, 0, 7248, 7134, 18, 0, 2.0489360293490995},
        {"abo+acb-rfm", false, -1.0, 69962,
         7278, 1, 0, 7278, 7140, 18, 128, 2.0192470280532815},
        {"tprac", false, -1.0, 80032, 7390, 0,
         7, 7390, 7143, 21, 895, 1.8080590938067311},
        {"tprac", true, -1.0, 70729, 7318, 0,
         324, 7318, 7163, 18, 284, 1.9985431032256193},
        {"obfuscation", false, 0.5,
         72853, 7386, 0, 0, 7386, 7195, 19, 384,
         1.9574388751809564},
    };

    RunBudget budget;
    budget.warmup = 5'000;
    budget.measure = 30'000;
    const SuiteEntry &entry = findSuiteEntry("h_rand_heavy");

    for (const ModeGolden &golden : goldens) {
        DesignConfig design;
        design.label = golden.label;
        design.mitigation = golden.label;
        design.nbo = 512;
        design.perBankRfm = golden.perBank;
        if (golden.randomP >= 0.0)
            design.randomRfmPerTrefi = golden.randomP;

        const RunResult result = runOne(entry, design, budget);
        EXPECT_EQ(result.measureCycles, golden.measureCycles)
            << golden.label;
        EXPECT_EQ(result.rowMisses, golden.rowMisses) << golden.label;
        EXPECT_EQ(result.acbRfms, golden.acbRfms) << golden.label;
        EXPECT_EQ(result.tbRfms, golden.tbRfms) << golden.label;
        EXPECT_EQ(result.aboRfms, 0u) << golden.label;
        EXPECT_EQ(result.alerts, 0u) << golden.label;
        EXPECT_EQ(result.energyCounts.acts, golden.acts)
            << golden.label;
        EXPECT_EQ(result.energyCounts.reads, golden.reads)
            << golden.label;
        EXPECT_EQ(result.energyCounts.refreshes, golden.refreshes)
            << golden.label;
        EXPECT_EQ(result.energyCounts.mitigatedRows,
                  golden.mitigatedRows)
            << golden.label;
        expectNear(result.ipcSum(), golden.ipcSum, "ipcSum");
    }
}

} // namespace
} // namespace pracleak::sim
