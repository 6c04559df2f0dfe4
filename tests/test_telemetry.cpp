/**
 * @file
 * Telemetry subsystem tests: Histogram JSON round-trip through the
 * strict parser, sweep-output invariance under tracing (the
 * zero-interference contract), Chrome-trace structure and span
 * nesting, the atomic file writer, and log-level parsing.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "sim/json.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "telemetry/io.h"
#include "telemetry/trace.h"

namespace pracleak {
namespace {

using sim::JsonValue;
using sim::ParamSet;
using sim::parseJson;
using sim::ResultRow;
using sim::RunOptions;
using sim::runScenario;
using sim::Scenario;
using sim::SweepResult;

/** A cheap deterministic scenario for sweep-level telemetry tests. */
Scenario
telemetryScenario()
{
    Scenario scenario;
    scenario.name = "unit_telemetry";
    scenario.title = "telemetry unit scenario";
    scenario.grid.axis("x", {1, 2, 3})
        .axis("tag", {JsonValue("a"), JsonValue("b")});
    scenario.runPoint = [](const ParamSet &params) {
        ResultRow row = JsonValue::object();
        row.set("ratio",
                static_cast<double>(params.getInt("x")) / 3.0);
        row.set("label", params.getString("tag"));
        return std::vector<ResultRow>{std::move(row)};
    };
    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        double sum = 0.0;
        for (const ResultRow &row : rows)
            sum += row.get("ratio")->asDouble();
        ResultRow total = JsonValue::object();
        total.set("sum_ratio", sum);
        return std::vector<ResultRow>{std::move(total)};
    };
    return scenario;
}

/** Sweep JSON with its only nondeterministic fields zeroed. */
std::string
canonical(const SweepResult &result)
{
    JsonValue json = result.toJson();
    json.set("wall_seconds", 0.0);
    JsonValue provenance = *json.get("provenance");
    provenance.set("generated_at", "");
    json.set("provenance", provenance);
    return json.dump(2);
}

class TelemetryTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        directory_ =
            (std::filesystem::temp_directory_path() /
             ("pracleak_telemetry_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter_++)))
                .string();
        std::filesystem::create_directories(directory_);
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(directory_, ec);
    }

    std::string readFile(const std::string &path) const
    {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    }

    std::string directory_;
    static int counter_;
};

int TelemetryTest::counter_ = 0;

TEST(HistogramJson, RoundTripsThroughStrictParser)
{
    Histogram histogram(1.0, 4);
    histogram.sample(0.5); // bucket 0
    histogram.sample(1.5); // bucket 1
    histogram.sample(1.6); // bucket 1
    histogram.sample(9.0); // overflow

    const std::string text = histogram.toJson();
    std::string error;
    const JsonValue parsed = parseJson(text, &error);
    ASSERT_TRUE(error.empty()) << error << " in " << text;

    EXPECT_DOUBLE_EQ(parsed.get("bucket_width")->asDouble(), 1.0);
    EXPECT_EQ(parsed.get("count")->asInt(), 4);
    EXPECT_DOUBLE_EQ(parsed.get("sum")->asDouble(), 12.6);
    EXPECT_DOUBLE_EQ(parsed.get("min")->asDouble(), 0.5);
    EXPECT_DOUBLE_EQ(parsed.get("max")->asDouble(), 9.0);
    // Percentiles are exported precomputed and must round-trip to
    // exactly what percentile() reports: p50 lands mid-bucket-1,
    // p95/p99 run past the buckets into max().
    EXPECT_DOUBLE_EQ(parsed.get("p50")->asDouble(),
                     histogram.percentile(50.0));
    EXPECT_DOUBLE_EQ(parsed.get("p50")->asDouble(), 1.5);
    EXPECT_DOUBLE_EQ(parsed.get("p95")->asDouble(), 9.0);
    EXPECT_DOUBLE_EQ(parsed.get("p99")->asDouble(), 9.0);
    EXPECT_EQ(parsed.get("overflow")->asInt(), 1);
    const JsonValue &buckets = *parsed.get("buckets");
    ASSERT_EQ(buckets.items().size(), 2u); // trailing zeros trimmed
    EXPECT_EQ(buckets.items()[0].asInt(), 1);
    EXPECT_EQ(buckets.items()[1].asInt(), 2);

    // An empty histogram must still parse (and stay compact).
    const Histogram empty(2.0, 8);
    const JsonValue reparsed = parseJson(empty.toJson(), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(reparsed.get("count")->asInt(), 0);
    EXPECT_DOUBLE_EQ(reparsed.get("p99")->asDouble(), 0.0);
    EXPECT_EQ(reparsed.get("buckets")->items().size(), 0u);
}

TEST_F(TelemetryTest, SweepOutputIsInvariantUnderTracing)
{
    RunOptions plain;
    plain.jobs = 2;
    plain.progress = false;
    const std::string reference =
        canonical(runScenario(telemetryScenario(), plain));

    RunOptions traced = plain;
    traced.telemetry.traceOut = directory_ + "/trace.json";
    traced.checkpoint.directory = directory_;
    const std::string withTrace =
        canonical(runScenario(telemetryScenario(), traced));

    // The zero-interference contract: rows, summary, grid -- every
    // byte of the sweep JSON -- identical with tracing on or off.
    EXPECT_EQ(reference, withTrace);
    EXPECT_TRUE(
        std::filesystem::exists(directory_ + "/trace.json"));
}

TEST_F(TelemetryTest, TraceJsonParsesAndSpansNestPerLane)
{
    RunOptions options;
    options.jobs = 2;
    options.progress = false;
    options.telemetry.traceOut = directory_ + "/trace.json";
    options.checkpoint.directory = directory_;
    runScenario(telemetryScenario(), options);

    std::string error;
    const JsonValue root =
        parseJson(readFile(options.telemetry.traceOut), &error);
    ASSERT_TRUE(error.empty()) << error;
    const JsonValue &events = *root.get("traceEvents");
    ASSERT_EQ(events.kind(), JsonValue::Kind::Array);

    bool sawProcessName = false;
    std::size_t pointSpans = 0;
    std::size_t checkpointInstants = 0;
    // Per tid, the X events in buffer order: spans recorded by one
    // lane must nest (a stack discipline), since phases live inside
    // their point span.
    std::map<std::int64_t, std::vector<std::pair<std::uint64_t,
                                                 std::uint64_t>>>
        spansByTid;
    for (const JsonValue &event : events.items()) {
        const std::string phase = event.get("ph")->asString();
        if (phase == "M") {
            sawProcessName =
                sawProcessName ||
                event.get("name")->asString() == "process_name";
            continue;
        }
        ASSERT_TRUE(event.get("ts"));
        ASSERT_TRUE(event.get("tid"));
        if (phase == "i") {
            if (event.get("name")->asString() ==
                "checkpoint-write")
                ++checkpointInstants;
            continue;
        }
        ASSERT_EQ(phase, "X");
        ASSERT_TRUE(event.get("dur"));
        if (event.get("cat")->asString() == "point")
            ++pointSpans;
        spansByTid[event.get("tid")->asInt()].push_back(
            {static_cast<std::uint64_t>(
                 event.get("ts")->asInt()),
             static_cast<std::uint64_t>(
                 event.get("dur")->asInt())});
    }
    EXPECT_TRUE(sawProcessName);
    EXPECT_EQ(pointSpans, 6u); // one per grid point
    EXPECT_EQ(checkpointInstants, 6u);

    for (auto &[tid, spans] : spansByTid) {
        (void)tid;
        // Events are buffered in end order (TraceSpan emits at
        // end()), so walk them and require every pair to be either
        // nested or disjoint.
        for (std::size_t a = 0; a < spans.size(); ++a)
            for (std::size_t b = a + 1; b < spans.size(); ++b) {
                const auto [ts1, dur1] = spans[a];
                const auto [ts2, dur2] = spans[b];
                const bool disjoint = ts1 + dur1 <= ts2 ||
                                      ts2 + dur2 <= ts1;
                const bool nested1 = ts2 <= ts1 &&
                                     ts1 + dur1 <= ts2 + dur2;
                const bool nested2 = ts1 <= ts2 &&
                                     ts2 + dur2 <= ts1 + dur1;
                EXPECT_TRUE(disjoint || nested1 || nested2)
                    << "spans overlap without nesting: [" << ts1
                    << "," << ts1 + dur1 << ") vs [" << ts2 << ","
                    << ts2 + dur2 << ")";
            }
    }
}

TEST_F(TelemetryTest, WriteAtomicAndFileAge)
{
    // Parent directories are created on the way.
    const std::string path = directory_ + "/nested/dir/file.json";
    ASSERT_TRUE(telemetry::writeAtomic(path, "{\"ok\": true}\n"));
    EXPECT_EQ(readFile(path), "{\"ok\": true}\n");

    // Push the file an hour into the past; an overwrite through the
    // same temp+rename path lands a fresh file with the new bytes.
    using Clock = std::filesystem::file_time_type::clock;
    std::filesystem::last_write_time(
        path, Clock::now() - std::chrono::hours(1));
    ASSERT_TRUE(telemetry::writeAtomic(path, "{}\n"));
    EXPECT_EQ(readFile(path), "{}\n");
    EXPECT_LT(Clock::now() - std::filesystem::last_write_time(path),
              std::chrono::minutes(1));
}

/** The atomic writer's replace-or-leave-alone contract. */
class WriteFileAtomic : public TelemetryTest
{
};

TEST_F(WriteFileAtomic, ReplacesExistingFileOrLeavesItAlone)
{
    const std::string path = directory_ + "/atomic.json";
    ASSERT_TRUE(telemetry::writeAtomic(path, "first\n"));
    ASSERT_TRUE(telemetry::writeAtomic(path, "second\n"));
    EXPECT_EQ(readFile(path), "second\n");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // A rename that cannot land (the target is a non-empty
    // directory) fails, leaves the target alone, and cleans up.
    const std::string blocked = directory_ + "/blocked";
    std::filesystem::create_directories(blocked + "/child");
    EXPECT_FALSE(telemetry::writeAtomic(blocked, "lost\n"));
    EXPECT_TRUE(std::filesystem::is_directory(blocked + "/child"));
    EXPECT_FALSE(std::filesystem::exists(blocked + ".tmp"));
}

TEST(ParseLogLevel, MapsNamesAndDigits)
{
    EXPECT_EQ(parseLogLevel("quiet"), 0);
    EXPECT_EQ(parseLogLevel("warn"), 1);
    EXPECT_EQ(parseLogLevel("info"), 2);
    EXPECT_EQ(parseLogLevel("debug"), 3);
    EXPECT_EQ(parseLogLevel("0"), 0);
    EXPECT_EQ(parseLogLevel("3"), 3);
    EXPECT_EQ(parseLogLevel("verbose"), -1);
    EXPECT_EQ(parseLogLevel(""), -1);
    EXPECT_EQ(parseLogLevel("10"), -1);
}

} // namespace
} // namespace pracleak
