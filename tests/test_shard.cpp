/**
 * @file
 * Distributed-sweep tests: shard partition properties (disjoint,
 * exhaustive, stable across worker counts), merge byte-identity
 * against a single-host golden (including a whole-grid journal that
 * overlaps the shards), merge rejections (mismatched grid hash,
 * overlapping ownership with conflicting rows, missing points,
 * tampered embedded grid), and run-option validation.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/provenance.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace pracleak::sim {
namespace {

/**
 * A deterministic scenario with the awkward corners: one point emits
 * two rows, one emits none, and the doubles do not terminate in
 * decimal, so any drift through a journal shows in the byte-compare.
 */
Scenario
shardScenario()
{
    Scenario scenario;
    scenario.name = "unit_shard";
    scenario.title = "shard unit scenario";
    scenario.grid.axis("x", {1, 2, 3, 4})
        .axis("tag", {JsonValue("a"), JsonValue("b")});
    scenario.checkpointEvery = 1;
    scenario.runPoint = [](const ParamSet &params) {
        const std::int64_t x = params.getInt("x");
        const std::string tag = params.getString("tag");
        if (x == 3 && tag == "b")
            return std::vector<ResultRow>{};
        std::vector<ResultRow> rows;
        const int copies = x == 2 ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
            ResultRow row = JsonValue::object();
            row.set("x", x);
            row.set("tag", tag);
            row.set("ratio", static_cast<double>(x) / 7.0 +
                                 (tag == "a" ? 0.0 : 1e-13) + c);
            row.set("big", std::int64_t{1} << (40 + x));
            rows.push_back(std::move(row));
        }
        return rows;
    };
    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        double sum = 0.0;
        for (const ResultRow &row : rows)
            sum += row.get("ratio")->asDouble();
        ResultRow total = JsonValue::object();
        total.set("mean_ratio",
                  sum / static_cast<double>(rows.size()));
        total.set("count", static_cast<std::int64_t>(rows.size()));
        return std::vector<ResultRow>{std::move(total)};
    };
    return scenario;
}

constexpr std::size_t kPoints = 8;

/** The sweep JSON with its only nondeterministic fields zeroed. */
std::string
canonical(const SweepResult &result)
{
    JsonValue json = result.toJson();
    json.set("wall_seconds", 0.0);
    JsonValue provenance = *json.get("provenance");
    provenance.set("generated_at", "");
    json.set("provenance", provenance);
    return json.dump(2) + "\n" + result.toCsv();
}

JsonValue
gridJson()
{
    ParamGrid grid = shardScenario().grid;
    return grid.toJson();
}

class ShardTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        directory_ =
            (std::filesystem::temp_directory_path() /
             ("pracleak_shard_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++)))
                .string();
        std::filesystem::create_directories(directory_);
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(directory_, ec);
    }

    RunOptions baseOptions(unsigned jobs) const
    {
        RunOptions options;
        options.jobs = jobs;
        options.progress = false;
        return options;
    }

    SweepResult run(const RunOptions &options)
    {
        return runScenario(shardScenario(), options);
    }

    /** A fresh subdirectory for tests that need several dirs. */
    std::string subdir(const std::string &name) const
    {
        const std::string path = directory_ + "/" + name;
        std::filesystem::create_directories(path);
        return path;
    }

    static int counter_;
    std::string directory_;
};

int ShardTest::counter_ = 0;

TEST(ShardPartition, DisjointExhaustiveAndStable)
{
    for (unsigned count = 1; count <= 5; ++count) {
        for (std::size_t point = 0; point < 1000; ++point) {
            unsigned owners = 0;
            for (unsigned index = 0; index < count; ++index)
                if (shardOwns(point, ShardSpec{index, count}))
                    ++owners;
            // Exactly one shard owns every point: the union is the
            // whole index space, pairwise disjoint.
            EXPECT_EQ(owners, 1u)
                << "point " << point << " of " << count;
        }
    }
    // An inactive spec owns everything.
    EXPECT_TRUE(shardOwns(123, ShardSpec{}));
    // Ownership is a pure function of (point, spec): nothing else
    // (worker count, time, prior calls) can perturb it, so repeated
    // evaluation is trivially stable.
    const ShardSpec shard{2, 5};
    for (std::size_t point = 0; point < 100; ++point)
        EXPECT_EQ(shardOwns(point, shard), point % 5 == 2);
    EXPECT_EQ(shard.label(), "2/5");
}

TEST_F(ShardTest, ShardJournalsIndependentOfJobs)
{
    // The same shard swept serially and on a saturated pool must
    // journal the same record *set* (order varies with scheduling)
    // and emit identical partial results.
    const Scenario scenario = shardScenario();
    const std::string dirSerial = subdir("serial");
    const std::string dirWide = subdir("wide");

    RunOptions serial = baseOptions(1);
    serial.checkpoint.directory = dirSerial;
    serial.shard = ShardSpec{1, 3};
    RunOptions wide = baseOptions(8);
    wide.checkpoint.directory = dirWide;
    wide.shard = ShardSpec{1, 3};
    const std::string serialResult = canonical(run(serial));
    const std::string wideResult = canonical(run(wide));
    // jobs differs between the two results by construction; that is
    // the only allowed difference.
    EXPECT_EQ(serialResult.find("\"jobs\": 1") != std::string::npos
                  ? serialResult
                  : "",
              serialResult);
    const auto neutralize = [](std::string text,
                               const std::string &from) {
        for (std::size_t at = text.find(from);
             at != std::string::npos; at = text.find(from, at))
            text.replace(at, from.size(), "\"jobs\": 0");
        return text;
    };
    EXPECT_EQ(neutralize(serialResult, "\"jobs\": 1"),
              neutralize(wideResult, "\"jobs\": 8"));

    const auto sortedPoints = [](const std::string &path) {
        const JournalFile journal = readJournalFile(path);
        std::vector<std::size_t> indices;
        for (const auto &[index, rows] : journal.rowsByPoint) {
            (void)rows;
            indices.push_back(index);
        }
        return indices;
    };
    const auto serialIndices = sortedPoints(
        shardJournalPath(dirSerial, scenario.name, serial.shard));
    EXPECT_EQ(serialIndices,
              sortedPoints(shardJournalPath(dirWide, scenario.name,
                                            wide.shard)));
    // And the owned set is exactly {i : i % 3 == 1}.
    for (const std::size_t i : serialIndices)
        EXPECT_EQ(i % 3, 1u);
    EXPECT_EQ(serialIndices.size(), (kPoints + 1) / 3);
}

TEST_F(ShardTest, MergeMatchesSingleHostGolden)
{
    const Scenario scenario = shardScenario();
    const std::string reference = canonical(run(baseOptions(2)));

    std::vector<std::string> shardPaths;
    for (unsigned index = 0; index < 3; ++index) {
        RunOptions options = baseOptions(2);
        options.checkpoint.directory = directory_;
        options.shard = ShardSpec{index, 3};
        run(options);
        shardPaths.push_back(shardJournalPath(
            directory_, scenario.name, options.shard));
    }
    // A whole-grid journal of the same sweep in the same directory
    // repeats every shard's points byte for byte: the one legitimate
    // source of overlap, which must fuse to the same result.
    RunOptions whole = baseOptions(2);
    whole.checkpoint.directory = directory_;
    run(whole);
    const std::vector<std::string> paths =
        journalFilesFor(directory_, scenario.name);
    ASSERT_EQ(paths.size(), 4u);

    SweepResult merged =
        assembleMergedResult(scenario, mergeJournals(paths), 2);
    EXPECT_EQ(canonical(merged), reference);

    // Kill-and-resume one shard (keep only its header plus one
    // record), re-run it, merge the shards alone (the whole-grid
    // journal would cover any gap): still byte-identical.
    const std::string shard0 =
        shardJournalPath(directory_, scenario.name, ShardSpec{0, 3});
    std::string text;
    {
        std::ifstream in(shard0, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    const std::size_t cut = text.find('\n', text.find('\n') + 1) + 1;
    {
        std::ofstream out(shard0,
                          std::ios::binary | std::ios::trunc);
        out << text.substr(0, cut);
    }
    RunOptions resumed = baseOptions(2);
    resumed.checkpoint.directory = directory_;
    resumed.checkpoint.resume = true;
    resumed.shard = ShardSpec{0, 3};
    run(resumed);
    merged = assembleMergedResult(scenario, mergeJournals(shardPaths),
                                  2);
    EXPECT_EQ(canonical(merged), reference);
}

TEST_F(ShardTest, MergeRefusesMismatchedGridHash)
{
    RunOptions shard0 = baseOptions(1);
    shard0.checkpoint.directory = directory_;
    shard0.shard = ShardSpec{0, 2};
    shard0.overrides["x"] = {JsonValue(1), JsonValue(2)};
    run(shard0);

    RunOptions shard1 = baseOptions(1);
    shard1.checkpoint.directory = directory_;
    shard1.shard = ShardSpec{1, 2};
    run(shard1);

    try {
        mergeJournals(journalFilesFor(directory_, "unit_shard"));
        FAIL() << "merged journals from different grids";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("grid hash"),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(ShardTest, MergeRefusesConflictingOverlap)
{
    // A whole-grid journal and a shard-0-of-2 journal both cover
    // point 0; write it into each with the given marker.
    const JsonValue grid = gridJson();
    const auto writeBoth = [&](const char *wholeMarker,
                               const char *shardMarker) {
        const ShardSpec shard{0, 2};
        for (const bool sharded : {false, true}) {
            JournalWriter journal(
                sharded ? shardJournalPath(directory_, "unit_shard",
                                           shard)
                        : journalPath(directory_, "unit_shard"),
                journalHeader("unit_shard", grid, kPoints,
                              sharded ? shard : ShardSpec{}),
                /*append=*/false, 0, 1);
            ResultRow row = JsonValue::object();
            row.set("marker", sharded ? shardMarker : wholeMarker);
            journal.writePoint(0, {row});
        }
    };
    writeBoth("whole", "shard");
    try {
        mergeJournals(journalFilesFor(directory_, "unit_shard"));
        FAIL() << "merged conflicting rows for one point";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("conflict"),
                  std::string::npos)
            << error.what();
    }

    // Byte-identical overlap, by contrast, is legal -- but the two
    // journals cover only point 0, so coverage must refuse.
    writeBoth("same", "same");
    try {
        mergeJournals(journalFilesFor(directory_, "unit_shard"));
        FAIL() << "merged an incomplete point set";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("no journal"),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(ShardTest, MergeRefusesTamperedEmbeddedGrid)
{
    RunOptions options = baseOptions(1);
    options.checkpoint.directory = directory_;
    run(options);
    const std::string path = journalPath(directory_, "unit_shard");

    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    // Flip an axis value inside the embedded grid copy only; the
    // pinned hash no longer matches, so the merge path must refuse
    // to trust the grid.
    const std::size_t at = text.find("\"x\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t digit = text.find('4', at);
    ASSERT_NE(digit, std::string::npos);
    text[digit] = '9';
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }
    EXPECT_THROW(readJournalFile(path), std::runtime_error);
}

TEST_F(ShardTest, ShardJournalRefusesForeignPoints)
{
    // A shard journal claiming a point outside its ownership is
    // structural corruption: merge disjointness rests on it.
    const JsonValue grid = gridJson();
    const std::string path =
        shardJournalPath(directory_, "unit_shard", ShardSpec{0, 2});
    {
        JournalWriter journal(
            path,
            journalHeader("unit_shard", grid, kPoints,
                          ShardSpec{0, 2}),
            false, 0, 1);
        ResultRow row = JsonValue::object();
        row.set("marker", "foreign");
        journal.writePoint(1, {row}); // 1 % 2 != 0: not ours
    }
    EXPECT_THROW(readJournalFile(path), std::runtime_error);
    EXPECT_THROW(loadJournal(path, "unit_shard", grid, kPoints,
                             ShardSpec{0, 2}),
                 std::runtime_error);
}

TEST_F(ShardTest, RunOptionValidation)
{
    // Inconsistent shard options die before any work runs.
    RunOptions noDir = baseOptions(1);
    noDir.shard = ShardSpec{0, 2};
    EXPECT_THROW(run(noDir), std::invalid_argument);

    RunOptions badIndex = baseOptions(1);
    badIndex.checkpoint.directory = directory_;
    badIndex.shard = ShardSpec{2, 2};
    EXPECT_THROW(run(badIndex), std::invalid_argument);

    // A shard with its journal directory is the valid form.
    RunOptions valid = baseOptions(1);
    valid.checkpoint.directory = directory_;
    valid.shard = ShardSpec{1, 2};
    EXPECT_NO_THROW(run(valid));
    EXPECT_TRUE(std::filesystem::exists(
        shardJournalPath(directory_, "unit_shard", valid.shard)));
}

} // namespace
} // namespace pracleak::sim
