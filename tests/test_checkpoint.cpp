/**
 * @file
 * Sweep checkpoint/resume tests: the golden every-prefix kill walk
 * (a sweep killed after any number of journaled points and resumed
 * must emit JSON byte-identical -- modulo wall_seconds and the
 * provenance timestamp -- to an uninterrupted run), journal
 * robustness (torn tails, duplicate records, interior corruption,
 * identity mismatches), resume across worker counts, and the JSON
 * parser the journal reader is built on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <unistd.h>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/provenance.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace pracleak::sim {
namespace {

/**
 * A deterministic scenario with awkward corners: one point emits two
 * rows, one emits none (a skipped grid combination), and the metrics
 * mix exact ints, strings, and doubles whose decimal expansions do
 * not terminate -- so any precision loss through the journal would
 * surface in the byte-compare.
 */
Scenario
checkpointScenario()
{
    Scenario scenario;
    scenario.name = "unit_checkpoint";
    scenario.title = "checkpoint unit scenario";
    scenario.grid.axis("x", {1, 2, 3, 4})
        .axis("tag", {JsonValue("a"), JsonValue("b")});
    scenario.runPoint = [](const ParamSet &params) {
        const std::int64_t x = params.getInt("x");
        const std::string tag = params.getString("tag");
        if (x == 3 && tag == "b")
            return std::vector<ResultRow>{};
        std::vector<ResultRow> rows;
        const int copies = x == 2 ? 2 : 1;
        for (int c = 0; c < copies; ++c) {
            ResultRow row = JsonValue::object();
            row.set("ratio", static_cast<double>(x) / 7.0 +
                                 (tag == "a" ? 0.0 : 1e-13) + c);
            row.set("label", tag + std::to_string(x));
            row.set("big", std::int64_t{1} << (40 + x));
            rows.push_back(std::move(row));
        }
        return rows;
    };
    scenario.summarize = [](const std::vector<ResultRow> &rows) {
        // Accumulated in row order from the ratio doubles: only
        // bit-identical merged rows reproduce this byte-identically.
        double sum = 0.0;
        for (const ResultRow &row : rows)
            sum += row.get("ratio")->asDouble();
        ResultRow total = JsonValue::object();
        total.set("mean_ratio",
                  sum / static_cast<double>(rows.size()));
        total.set("count",
                  static_cast<std::int64_t>(rows.size()));
        return std::vector<ResultRow>{std::move(total)};
    };
    return scenario;
}

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

class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        directory_ =
            (std::filesystem::temp_directory_path() /
             ("pracleak_ckpt_" + std::to_string(::getpid()) +
              "_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + std::to_string(counter_++)))
                .string();
        std::filesystem::create_directories(directory_);
        path_ = directory_ + "/unit_checkpoint.jsonl";
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(directory_, ec);
    }

    SweepResult run(const RunOptions &options)
    {
        return runScenario(checkpointScenario(), options);
    }

    RunOptions baseOptions(unsigned jobs) const
    {
        RunOptions options;
        options.jobs = jobs;
        options.progress = false;
        return options;
    }

    std::string journalText() const
    {
        std::ifstream in(path_, std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    void writeJournal(const std::string &text) const
    {
        std::ofstream out(path_,
                          std::ios::binary | std::ios::trunc);
        out << text;
    }

    static int counter_;
    std::string directory_;
    std::string path_;
};

int CheckpointTest::counter_ = 0;

TEST_F(CheckpointTest, GoldenResumeAtEveryKillPrefix)
{
    const std::string reference = canonical(run(baseOptions(2)));

    RunOptions checkpointed = baseOptions(2);
    checkpointed.checkpoint.directory = directory_;
    EXPECT_EQ(canonical(run(checkpointed)), reference);

    const std::string full = journalText();
    ASSERT_FALSE(full.empty());
    ASSERT_EQ(full.back(), '\n');
    std::vector<std::string> lines;
    for (std::size_t pos = 0; pos < full.size();) {
        const std::size_t newline = full.find('\n', pos);
        lines.push_back(full.substr(pos, newline - pos + 1));
        pos = newline + 1;
    }
    ASSERT_EQ(lines.size(), 9u); // header + 8 points

    RunOptions resumed = baseOptions(2);
    resumed.checkpoint.directory = directory_;
    resumed.checkpoint.resume = true;

    // Kill after every prefix of journaled records, with and
    // without a torn record in flight -- like the trace-format
    // truncation walk, every cut must resume to the same bytes.
    for (std::size_t keep = 0; keep <= lines.size(); ++keep) {
        std::string prefix;
        for (std::size_t i = 0; i < keep; ++i)
            prefix += lines[i];
        writeJournal(prefix);
        EXPECT_EQ(canonical(run(resumed)), reference)
            << "resume after " << keep << " records";

        if (keep == lines.size())
            break;
        writeJournal(prefix +
                     lines[keep].substr(0, lines[keep].size() / 2));
        EXPECT_EQ(canonical(run(resumed)), reference)
            << "resume after " << keep << " records + torn tail";
    }

    // After any resume the journal is complete again: a second
    // resume recomputes nothing (runPoint would throw if called).
    Scenario poisoned = checkpointScenario();
    poisoned.runPoint = [](const ParamSet &) -> std::vector<ResultRow> {
        throw std::logic_error("resume re-ran a journaled point");
    };
    EXPECT_EQ(canonical(runScenario(poisoned, resumed)), reference);
}

TEST_F(CheckpointTest, SkippedPointsAreJournaledAsCompleted)
{
    RunOptions checkpointed = baseOptions(1);
    checkpointed.checkpoint.directory = directory_;
    run(checkpointed);

    const Scenario scenario = checkpointScenario();
    const CheckpointState state =
        loadJournal(path_, scenario.name,
                    [&] {
                        ParamGrid grid = scenario.grid;
                        return grid.toJson();
                    }(),
                    8);
    EXPECT_TRUE(state.hasHeader);
    EXPECT_FALSE(state.droppedTornTail);
    ASSERT_EQ(state.rowsByPoint.size(), 8u);
    // Point (x=3, tag=b) produced no rows but still counts as done.
    bool sawEmpty = false;
    for (const auto &[index, rows] : state.rowsByPoint)
        sawEmpty = sawEmpty || rows.empty();
    EXPECT_TRUE(sawEmpty);
}

TEST_F(CheckpointTest, DuplicatePointRecordsLastWins)
{
    const Scenario scenario = checkpointScenario();
    const JsonValue grid = [&] {
        ParamGrid copy = scenario.grid;
        return copy.toJson();
    }();
    ResultRow stale = JsonValue::object();
    stale.set("marker", "stale");
    ResultRow fresh = JsonValue::object();
    fresh.set("marker", "fresh");

    std::string text =
        journalHeader(scenario.name, grid, 8).dump() + "\n";
    for (const ResultRow *row : {&stale, &fresh}) {
        JsonValue record = JsonValue::object();
        record.set("kind", "point");
        record.set("index", std::int64_t{5});
        record.set("rows", JsonValue::array().push(*row));
        text += record.dump() + "\n";
    }
    writeJournal(text);

    const CheckpointState state =
        loadJournal(path_, scenario.name, grid, 8);
    ASSERT_EQ(state.rowsByPoint.size(), 1u);
    ASSERT_EQ(state.rowsByPoint.at(5).size(), 1u);
    EXPECT_EQ(state.rowsByPoint.at(5)[0].get("marker")->asString(),
              "fresh");
}

TEST_F(CheckpointTest, MismatchedJournalsAreRefused)
{
    RunOptions checkpointed = baseOptions(1);
    checkpointed.checkpoint.directory = directory_;
    run(checkpointed);

    RunOptions resumed = checkpointed;
    resumed.checkpoint.resume = true;

    // Grid change (an override narrows an axis) => hash mismatch.
    RunOptions narrowed = resumed;
    narrowed.overrides["x"] = {JsonValue(1), JsonValue(2)};
    EXPECT_THROW(run(narrowed), std::runtime_error);
    try {
        run(narrowed);
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("grid hash"),
                  std::string::npos);
    }

    // Tampered identity fields: scenario name, git revision,
    // version, points.  (A *renamed* scenario no longer even finds
    // this journal -- the directory-keyed path embeds the name --
    // so the mismatch only arises when the file itself lies.)
    const std::string original = journalText();
    const auto tamper = [&](const std::string &from,
                            const std::string &to) {
        std::string text = original;
        const std::size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
        writeJournal(text);
    };
    tamper("\"scenario\": \"unit_checkpoint\"",
           "\"scenario\": \"unit_checkpoint_other\"");
    EXPECT_THROW(run(resumed), std::runtime_error);
    tamper("\"git_rev\": \"", "\"git_rev\": \"bogus-");
    EXPECT_THROW(run(resumed), std::runtime_error);
    tamper("\"version\": " + std::to_string(kJournalVersion),
           "\"version\": 999");
    EXPECT_THROW(run(resumed), std::runtime_error);
    tamper("\"points\": 8", "\"points\": 9");
    EXPECT_THROW(run(resumed), std::runtime_error);
}

TEST_F(CheckpointTest, InteriorCorruptionIsNotRecoverable)
{
    RunOptions checkpointed = baseOptions(1);
    checkpointed.checkpoint.directory = directory_;
    run(checkpointed);

    // A newline-terminated garbage record is corruption, not a torn
    // tail: records are written newline-last, so a complete line
    // that fails to parse means the file itself is damaged.
    std::string text = journalText();
    const std::size_t second = text.find('\n') + 1;
    text.insert(second, "{\"kind\": \"point\", garbage}\n");
    writeJournal(text);

    RunOptions resumed = checkpointed;
    resumed.checkpoint.resume = true;
    EXPECT_THROW(run(resumed), std::runtime_error);
}

TEST_F(CheckpointTest, ResumeWithDifferentWorkerCount)
{
    const std::string reference = canonical(run(baseOptions(8)));

    // First leg serial, killed after three records; resume on 8
    // threads.  The merged output is keyed by grid index, so
    // the worker count of either leg must not matter.
    RunOptions serial = baseOptions(1);
    serial.checkpoint.directory = directory_;
    run(serial);
    std::string text = journalText();
    std::size_t cut = 0;
    for (int i = 0; i < 4; ++i)
        cut = text.find('\n', cut) + 1;
    writeJournal(text.substr(0, cut));

    RunOptions wide = baseOptions(8);
    wide.checkpoint.directory = directory_;
    wide.checkpoint.resume = true;
    EXPECT_EQ(canonical(run(wide)), reference);
}

TEST_F(CheckpointTest, DeterministicUnderSaturatedPool)
{
    // Two full checkpointed runs on 8 threads: identical
    // output and, record order aside, identical journals.
    RunOptions checkpointed = baseOptions(8);
    checkpointed.checkpoint.directory = directory_;
    const std::string first = canonical(run(checkpointed));
    const std::string firstJournal = journalText();
    const std::string second = canonical(run(checkpointed));
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, canonical(run(baseOptions(8))));

    // Record order varies with scheduling; the record *set* must
    // not.  Drop the timestamped header, then sort the point records
    // and compare them byte for byte.
    const auto sortedPoints = [](const std::string &text) {
        std::vector<std::string> lines;
        std::size_t pos = 0;
        while (pos < text.size()) {
            const std::size_t newline = text.find('\n', pos);
            lines.push_back(text.substr(pos, newline - pos));
            pos = newline + 1;
        }
        lines.erase(lines.begin());
        std::sort(lines.begin(), lines.end());
        return lines;
    };
    EXPECT_EQ(sortedPoints(firstJournal),
              sortedPoints(journalText()));
}

TEST_F(CheckpointTest, FreshRunOverwritesStaleJournal)
{
    writeJournal("not even close to a journal");
    RunOptions checkpointed = baseOptions(2);
    checkpointed.checkpoint.directory = directory_; // no resume: fresh
    const std::string result = canonical(run(checkpointed));
    EXPECT_EQ(result, canonical(run(baseOptions(2))));
    EXPECT_EQ(journalText().find("\"kind\": \"header\""), 1u);
}

TEST(ParseJson, RoundTripsRunnerOutput)
{
    JsonValue root = JsonValue::object();
    root.set("int", std::int64_t{-42});
    root.set("big", std::int64_t{1} << 62);
    root.set("pi", 3.141592653589793);
    // Integral doubles up to ~1e17 render under %.17g with no '.'
    // or exponent; the exact dump must mark them (".0") or a parse
    // would restore an Int whose re-dump differs byte-wise.
    root.set("whole", 12345678901.0);
    root.set("tiny", 4.9e-324);
    root.set("neg_zero", -0.0);
    root.set("inf", 1.0 / 0.0);
    root.set("text", "quote \" slash \\ newline \n tab \t");
    root.set("flag", true);
    root.set("nothing", JsonValue());
    JsonValue nested = JsonValue::array();
    nested.push(JsonValue::object().set("k", 1.0 / 3.0));
    nested.push(JsonValue::array());
    root.set("nested", std::move(nested));

    // Exact-double dumps parse back to bit-identical values: the
    // journal stores these, so a resumed row re-dumps (in either
    // format) to the same bytes a freshly computed one would --
    // which is what resume's byte-identity rests on.
    std::string error;
    const std::string exact = root.dumpRoundTrip();
    const JsonValue parsed = parseJson(exact, &error);
    EXPECT_EQ(error, "");
    EXPECT_EQ(parsed.dumpRoundTrip(), exact);
    EXPECT_EQ(parsed.dump(2), root.dump(2));

    // Display dumps truncate doubles to 10 digits, but are still
    // parse/re-dump fixpoints.
    const std::string display = root.dump(2);
    const JsonValue reparsed = parseJson(display, &error);
    EXPECT_EQ(error, "");
    EXPECT_EQ(reparsed.dump(2), display);
}

TEST(ParseJson, RejectsMalformedDocuments)
{
    const char *broken[] = {
        "",
        "{",
        "[1, 2",
        "{\"a\" 1}",
        "{\"a\": 1} trailing",
        "\"unterminated",
        "\"bad \\q escape\"",
        "01x",
        "nul",
        "[1, ]",
        "{\"a\": }",
        "--5",
    };
    for (const char *text : broken) {
        std::string error;
        parseJson(text, &error);
        EXPECT_NE(error, "") << "accepted: " << text;
    }
    // A bare null document is valid and clears the error.
    std::string error = "stale";
    EXPECT_TRUE(parseJson("  null  ", &error).isNull());
    EXPECT_EQ(error, "");
}

} // namespace
} // namespace pracleak::sim
