/**
 * @file
 * Unit tests for the scenario-runner subsystem: JSON emission,
 * parameter grids, the parallel loop (including nested loops), the
 * scenario registry, and an end-to-end sweep through the runner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "common/parallel.h"
#include "sim/json.h"
#include "sim/param_grid.h"
#include "sim/runner.h"
#include "sim/scenario.h"

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
    // Past int64 the literal is the double it spells, not INT64_MAX,
    // so an integer axis rejects it.
    const JsonValue huge = parseScalar("99999999999999999999");
    EXPECT_EQ(huge.kind(), JsonValue::Kind::Double);
    EXPECT_DOUBLE_EQ(huge.asDouble(), 1e20);
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

TEST(ParamSet, Uint32ReadRejectsValuesPastThirtyTwoBits)
{
    ParamSet set;
    set.add("nbo", std::int64_t{4294967295});
    set.add("nrh", std::int64_t{4294967296});
    set.add("nmit", -1);
    EXPECT_EQ(set.getUint32("nbo"), 4294967295u);
    // 2^32 would wrap to 0: an NBO of 0 alerts on every activation.
    try {
        set.getUint32("nrh");
        ADD_FAILURE() << "getUint32 accepted 4294967296";
    } catch (const std::invalid_argument &error) {
        EXPECT_EQ(std::string(error.what()),
                  "axis 'nrh' takes an integer in [0, 4294967295], got "
                  "4294967296");
    }
    EXPECT_THROW(set.getUint32("nmit"), std::invalid_argument);
}

// --- Parallel loop -----------------------------------------------

TEST(Parallel, MapPreservesOrder)
{
    std::vector<std::atomic<int>> runs(100);
    std::vector<std::size_t> squares(runs.size());
    parallelFor(runs.size(), 4, [&](std::size_t i) {
        ++runs[i];
        squares[i] = i * i;
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
        EXPECT_EQ(squares[i], i * i);
    }
}

TEST(Parallel, NestedMapDoesNotDeadlock)
{
    std::vector<std::size_t> sums(8);
    parallelFor(sums.size(), 2, [&sums](std::size_t i) {
        std::vector<std::size_t> inner(8);
        parallelFor(inner.size(), 2,
                    [&inner, i](std::size_t j) { inner[j] = i + j; });
        sums[i] = std::accumulate(inner.begin(), inner.end(),
                                  std::size_t{0});
    });
    for (std::size_t i = 0; i < sums.size(); ++i)
        EXPECT_EQ(sums[i], 8 * i + 28);
}

TEST(Parallel, MapPropagatesExceptionsAfterDraining)
{
    // Index 3 throws only after index 7 has thrown, so the rethrown
    // exception is the lowest index's, not the first in time.
    std::atomic<int> ran{0};
    std::atomic<bool> sevenThrew{false};
    const auto waitForSeven = [&sevenThrew] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!sevenThrew && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
    };
    try {
        parallelFor(10, 2, [&](std::size_t i) {
            ++ran;
            if (i == 3) {
                waitForSeven();
                throw std::runtime_error("index 3");
            }
            if (i == 7) {
                sevenThrew = true;
                throw std::runtime_error("index 7");
            }
        });
        ADD_FAILURE() << "parallelFor swallowed the exceptions";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "index 3");
    }
    EXPECT_TRUE(sevenThrew);
    EXPECT_EQ(ran.load(), 10);
}

TEST(Parallel, ThreadsBoundTheIndicesRunningAtOnce)
{
    // Four indices meet at a latch, so four threads run at once: the
    // caller on lane -1 and the three it started on lanes 0..2.
    std::mutex mutex;
    std::multiset<int> lanes;
    std::latch meet(4);
    parallelFor(4, 4, [&](std::size_t) {
        meet.arrive_and_wait();
        const std::lock_guard<std::mutex> lock(mutex);
        lanes.insert(parallelLane());
    });
    EXPECT_EQ(lanes, (std::multiset<int>{-1, 0, 1, 2}));
    EXPECT_EQ(parallelLane(), -1);

    // No more threads start than there are indices: two indices run
    // on the caller and at most one started thread (lane 0).
    lanes.clear();
    parallelFor(2, 16, [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        lanes.insert(parallelLane());
    });
    EXPECT_EQ(lanes.size(), 2u);
    for (const int lane : lanes)
        EXPECT_LE(lane, 0);

    // And never more than that.
    std::atomic<int> active{0};
    std::atomic<int> peak{0};
    parallelFor(24, 3, [&](std::size_t) {
        const int now = ++active;
        int seen = peak;
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --active;
    });
    EXPECT_LE(peak.load(), 3);
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

TEST(Runner, OneJobRunsEveryPointOnTheCallingThread)
{
    // Each point sleeps, so a second thread would have time to take
    // one; with --jobs 1 none may, and the points run in grid order.
    std::mutex mutex;
    std::vector<std::pair<std::int64_t, std::thread::id>> calls;
    Scenario scenario;
    scenario.name = "unit_one_job";
    scenario.title = "one job";
    scenario.grid.axis("x", {0, 1, 2, 3, 4, 5, 6, 7});
    scenario.runPoint = [&](const ParamSet &params) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        {
            const std::lock_guard<std::mutex> lock(mutex);
            calls.emplace_back(params.getInt("x"),
                               std::this_thread::get_id());
        }
        ResultRow row = JsonValue::object();
        row.set("ran", true);
        return std::vector<ResultRow>{std::move(row)};
    };

    RunOptions options;
    options.jobs = 1;
    options.progress = false;
    const SweepResult result = runScenario(scenario, options);
    EXPECT_EQ(result.jobs, 1u);
    EXPECT_EQ(result.rows.size(), 8u);
    ASSERT_EQ(calls.size(), 8u);
    for (std::size_t k = 0; k < calls.size(); ++k) {
        EXPECT_EQ(calls[k].first, static_cast<std::int64_t>(k));
        EXPECT_EQ(calls[k].second, std::this_thread::get_id())
            << "point " << k << " ran off the calling thread";
    }
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
