/**
 * @file
 * Unit tests for the scenario-runner subsystem: JSON emission,
 * parameter grids, the thread pool (including nested fan-out), the
 * scenario registry, and an end-to-end sweep through the runner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "sim/json.h"
#include "sim/param_grid.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/thread_pool.h"

namespace pracleak::sim {
namespace {

// --- JSON ----------------------------------------------------------

TEST(Json, ScalarsDump)
{
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(std::int64_t{-7}).dump(), "-7");
    EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
    EXPECT_EQ(JsonValue("hi \"there\"\n").dump(),
              "\"hi \\\"there\\\"\\n\"");
}

TEST(Json, ObjectPreservesInsertionOrderAndOverwrites)
{
    JsonValue obj = JsonValue::object();
    obj.set("b", 1);
    obj.set("a", 2);
    obj.set("b", 3);
    EXPECT_EQ(obj.dump(), "{\"b\": 3, \"a\": 2}");
    ASSERT_NE(obj.get("a"), nullptr);
    EXPECT_EQ(obj.get("a")->asInt(), 2);
    EXPECT_EQ(obj.get("missing"), nullptr);
}

TEST(Json, NestedDumpRoundTripsThroughPython)
{
    JsonValue root = JsonValue::object();
    JsonValue arr = JsonValue::array();
    arr.push(1);
    arr.push("two");
    arr.push(3.0);
    root.set("items", std::move(arr));
    EXPECT_EQ(root.dump(), "{\"items\": [1, \"two\", 3]}");
    // Indented form contains newlines but the same tokens.
    EXPECT_NE(root.dump(2).find("\"items\": ["), std::string::npos);
}

TEST(Json, ParseScalarDetectsTypes)
{
    EXPECT_EQ(parseScalar("true").kind(), JsonValue::Kind::Bool);
    EXPECT_EQ(parseScalar("42").kind(), JsonValue::Kind::Int);
    EXPECT_EQ(parseScalar("42").asInt(), 42);
    EXPECT_EQ(parseScalar("0.5").kind(), JsonValue::Kind::Double);
    EXPECT_EQ(parseScalar("tprac").kind(), JsonValue::Kind::String);
}

TEST(Json, NumbersCompareAcrossKinds)
{
    EXPECT_TRUE(JsonValue(2).scalarEquals(JsonValue(2.0)));
    EXPECT_FALSE(JsonValue(2).scalarEquals(JsonValue("2")));
}

// --- Param grid ----------------------------------------------------

TEST(ParamGrid, EnumeratesCartesianProductRowMajor)
{
    ParamGrid grid;
    grid.axis("a", {1, 2}).axis("b", {"x", "y", "z"});
    ASSERT_EQ(grid.size(), 6u);

    // Last axis varies fastest.
    EXPECT_EQ(grid.point(0).label(), "a=1 b=x");
    EXPECT_EQ(grid.point(1).label(), "a=1 b=y");
    EXPECT_EQ(grid.point(3).label(), "a=2 b=x");

    std::set<std::string> labels;
    for (std::size_t i = 0; i < grid.size(); ++i)
        labels.insert(grid.point(i).label());
    EXPECT_EQ(labels.size(), 6u);
}

TEST(ParamGrid, EmptyGridHasOnePoint)
{
    ParamGrid grid;
    EXPECT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid.point(0).entries().size(), 0u);
}

TEST(ParamGrid, OverrideReplacesValuesAndRejectsUnknownAxes)
{
    ParamGrid grid;
    grid.axis("nrh", {128, 1024}).constant("measure", 1000);
    grid.overrideAxis("nrh", {std::vector<JsonValue>{512}[0]});
    EXPECT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid.point(0).getInt("nrh"), 512);
    EXPECT_THROW(grid.overrideAxis("bogus", {1}),
                 std::invalid_argument);
}

/**
 * An override must fit the kind its axis was declared with: the
 * coercive getters would read "abc" as 0 and "yes" as false, and a
 * negative count wraps.  String axes are left to their scenarios.
 */
TEST(ParamGrid, OverrideValuesMustFitTheAxisKind)
{
    ParamGrid grid;
    grid.axis("nrh", {128, 1024})
        .constant("window_ms", 2.0)
        .axis("with_victim", {true, false})
        .constant("mitigation", "tprac");
    // {axis, --set text, how the error message shows the value}
    const std::tuple<const char *, const char *, const char *> bad[] = {
        {"nrh", "abc", "abc"},
        {"nrh", "-5", "-5"},
        {"nrh", "1.5", "1.5"},
        {"nrh", "true", "true"},
        {"window_ms", "abc", "abc"},
        {"window_ms", "nan", "null"},
        {"window_ms", "false", "false"},
        {"with_victim", "yes", "yes"},
        {"with_victim", "1", "1"},
    };
    for (const auto &[axis, text, shown] : bad) {
        ParamGrid copy = grid;
        try {
            // A fitting first value: every value is checked.
            copy.overrideAxis(axis, {copy.findAxis(axis)->values[0],
                                     parseScalar(text)});
            ADD_FAILURE() << axis << "=" << text << " accepted";
        } catch (const std::invalid_argument &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find(std::string("axis '") + axis + "'"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find(std::string("'") + shown + "'"),
                      std::string::npos)
                << what;
        }
    }

    grid.overrideAxis("nrh", {parseScalar("0"), parseScalar("512")});
    grid.overrideAxis("window_ms", {parseScalar("1")});
    grid.overrideAxis("with_victim", {parseScalar("false")});
    grid.overrideAxis("mitigation", {parseScalar("anything")});
    ASSERT_EQ(grid.size(), 2u);
    EXPECT_EQ(grid.point(1).getInt("nrh"), 512);
    EXPECT_DOUBLE_EQ(grid.point(0).getDouble("window_ms"), 1.0);
    EXPECT_FALSE(grid.point(0).getBool("with_victim"));
}

TEST(ParamSet, CoerciveGettersAndMissingKeyThrows)
{
    ParamSet set;
    set.add("n", 1024);
    set.add("flag", true);
    set.add("name", "tprac");
    EXPECT_EQ(set.getInt("n"), 1024);
    EXPECT_DOUBLE_EQ(set.getDouble("n"), 1024.0);
    EXPECT_TRUE(set.getBool("flag"));
    EXPECT_EQ(set.getString("name"), "tprac");
    EXPECT_THROW(set.at("missing"), std::out_of_range);
}

// --- Thread pool ---------------------------------------------------

TEST(ThreadPool, MapPreservesOrder)
{
    ThreadPool pool(4);
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 100; ++i)
        jobs.push_back([i] { return i * i; });
    const std::vector<int> results = pool.map(std::move(jobs));
    ASSERT_EQ(results.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPool, NestedMapDoesNotDeadlock)
{
    ThreadPool pool(2); // fewer workers than nested collectors
    std::vector<std::function<int()>> outer;
    for (int i = 0; i < 8; ++i)
        outer.push_back([&pool, i] {
            std::vector<std::function<int()>> inner;
            for (int j = 0; j < 8; ++j)
                inner.push_back([i, j] { return i + j; });
            int sum = 0;
            for (const int v : pool.map(std::move(inner)))
                sum += v;
            return sum;
        });
    const std::vector<int> sums = pool.map(std::move(outer));
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(sums[i], 8 * i + 28);
}

TEST(ThreadPool, MapPropagatesExceptionsAfterDraining)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::vector<std::function<int()>> jobs;
    for (int i = 0; i < 10; ++i)
        jobs.push_back([&ran, i]() -> int {
            ++ran;
            if (i == 3)
                throw std::runtime_error("boom");
            return i;
        });
    EXPECT_THROW(pool.map(std::move(jobs)), std::runtime_error);
    EXPECT_EQ(ran.load(), 10);
}

// --- Registry + runner ---------------------------------------------

TEST(ScenarioRegistry, BuiltinsCoverEveryFigureAndTable)
{
    registerBuiltinScenarios();
    registerBuiltinScenarios(); // idempotent
    const ScenarioRegistry &registry = ScenarioRegistry::instance();
    // EXACT name set: registering a new scenario must update this
    // list AND the PRACLEAK_SMOKE_SCENARIOS list in CMakeLists.txt
    // (so every scenario keeps `ctest -L smoke` coverage).
    const char *names[] = {
        "fig03_timing_variation", "fig04_side_channel_trace",
        "fig05_key_sweep", "fig07_tmax_analysis",
        "fig09_defense_validation", "fig10_performance",
        "fig11_prac_levels", "fig12_tref_sensitivity",
        "fig13_nrh_sweep", "fig14_counter_reset",
        "table2_covert_channels", "table4_rbmpki", "table5_energy",
        "ablation_obfuscation", "ablation_queues", "ablation_rfmpb",
        "perf_channel_sweep", "sidechannel_cross_channel",
        "covert_channel_parallel", "defense_matrix_adaptive",
        "defense_matrix_leakage", "defense_matrix_perf",
        "defense_matrix_security", "trace_replay_defense_sweep",
        "leakage_timeline"};
    EXPECT_EQ(registry.size(), std::size(names));
    for (const char *name : names)
        EXPECT_NE(registry.find(name), nullptr) << name;
    EXPECT_EQ(registry.find("nope"), nullptr);

    // Every scenario carries at least one catalog tag (--list).
    for (const Scenario *scenario : registry.all())
        EXPECT_FALSE(scenario->tags.empty()) << scenario->name;
}

TEST(ScenarioRegistry, DefenseAxesRejectUnknownLabels)
{
    // A row must simulate the defense it names: a label no defense
    // answers to is an error, never a silent fallback defense.
    registerBuiltinScenarios();
    const std::pair<const char *, const char *> axes[] = {
        {"perf_channel_sweep", "design"},
        {"ablation_rfmpb", "design"},
        {"fig09_defense_validation", "mode"}};
    for (const auto &[name, axis] : axes) {
        const Scenario *scenario =
            ScenarioRegistry::instance().find(name);
        ASSERT_NE(scenario, nullptr) << name;
        RunOptions options;
        options.jobs = 1;
        options.progress = false;
        options.firstPointOnly = true;
        options.overrides[axis] = {JsonValue("bogus")};
        EXPECT_THROW(runScenario(*scenario, options),
                     std::invalid_argument)
            << name;
    }
}

TEST(Runner, SweepMergesParamsAndSummarizes)
{
    Scenario scenario;
    scenario.name = "unit_square";
    scenario.title = "squares";
    scenario.grid.axis("x", {1, 2, 3, 4});
    scenario.runPoint = [](const ParamSet &params) {
        ResultRow row = JsonValue::object();
        row.set("square", params.getInt("x") * params.getInt("x"));
        return std::vector<ResultRow>{std::move(row)};
    };
    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        std::int64_t sum = 0;
        for (const ResultRow &row : rows)
            sum += row.get("square")->asInt();
        ResultRow total = JsonValue::object();
        total.set("sum", sum);
        return std::vector<ResultRow>{std::move(total)};
    };

    RunOptions options;
    options.jobs = 2;
    options.progress = false;
    const SweepResult result = runScenario(scenario, options);

    ASSERT_EQ(result.rows.size(), 4u);
    // Point order matches grid enumeration; params merged into rows.
    EXPECT_EQ(result.rows[2].get("x")->asInt(), 3);
    EXPECT_EQ(result.rows[2].get("square")->asInt(), 9);
    ASSERT_EQ(result.summary.size(), 1u);
    EXPECT_EQ(result.summary[0].get("sum")->asInt(), 30);

    const JsonValue json = result.toJson();
    EXPECT_EQ(json.get("scenario")->asString(), "unit_square");
    EXPECT_EQ(json.get("rows")->items().size(), 4u);

    const std::string csv = result.toCsv();
    EXPECT_NE(csv.find("x,square"), std::string::npos);
    EXPECT_NE(csv.find("3,9"), std::string::npos);
}

TEST(Runner, OverridesNarrowTheSweepAndBadAxisThrows)
{
    Scenario scenario;
    scenario.name = "unit_override";
    scenario.title = "override";
    scenario.grid.axis("x", {1, 2, 3, 4});
    scenario.runPoint = [](const ParamSet &params) {
        ResultRow row = JsonValue::object();
        row.set("value", params.getInt("x"));
        return std::vector<ResultRow>{std::move(row)};
    };

    RunOptions options;
    options.progress = false;
    options.overrides["x"] = {JsonValue(7), JsonValue(9)};
    const SweepResult result = runScenario(scenario, options);
    ASSERT_EQ(result.rows.size(), 2u);
    EXPECT_EQ(result.rows[1].get("value")->asInt(), 9);

    options.overrides.clear();
    options.overrides["bogus"] = {JsonValue(1)};
    EXPECT_THROW(runScenario(scenario, options),
                 std::invalid_argument);
}

TEST(Runner, EmptyPointRowsAreSkipped)
{
    Scenario scenario;
    scenario.name = "unit_skip";
    scenario.title = "skip";
    scenario.grid.axis("x", {1, 2, 3});
    scenario.runPoint = [](const ParamSet &params) {
        if (params.getInt("x") == 2)
            return std::vector<ResultRow>{};
        ResultRow row = JsonValue::object();
        row.set("kept", true);
        return std::vector<ResultRow>{std::move(row)};
    };
    RunOptions options;
    options.progress = false;
    const SweepResult result = runScenario(scenario, options);
    EXPECT_EQ(result.rows.size(), 2u);
    EXPECT_EQ(result.points, 3u);
}

} // namespace
} // namespace pracleak::sim
