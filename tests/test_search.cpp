/**
 * @file
 * Attacker registry and automated-search tests.
 *
 * The registry round-trip pins the string-keyed attacker surface
 * (attack/adversaries.h): every catalog name constructs from a
 * default AttackerConfig, reports itself back, and survives ticking
 * against its target defense.  The search tests pin the determinism
 * contract of sim/search.h -- byte-identical JSON at any --jobs
 * width and across an interrupted/resumed journal -- plus the
 * structural guarantee the defense_matrix_adaptive table relies on:
 * the reported best candidate is never worse than the oblivious
 * baseline, because the baseline is candidate 0 and is exempt from
 * successive-halving elimination.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "attack/adversaries.h"
#include "attack/harness.h"
#include "mem/controller.h"
#include "mitigation/registry.h"
#include "sim/search.h"

namespace pracleak {
namespace {

using sim::runAttackerSearch;
using sim::SearchOptions;
using sim::SearchResult;

/** The scaled security-matrix universe every search test runs in. */
DramSpec
testSpec()
{
    DramSpec spec = specByName("ddr5-8000b");
    spec.prac.nbo = 128;
    spec.timing.tREFW = nsToCycles(2.0e6);
    return spec;
}

/** Small-but-real options: enough rounds to exercise elimination. */
SearchOptions
testOptions(const std::string &defense)
{
    SearchOptions options;
    options.targetDefense = defense;
    options.budget = 4;
    options.rounds = 2;
    options.nbo = 128;
    options.windowMs = 0.5;
    return options;
}

TEST(AttackerRegistry, CatalogRoundTrip)
{
    const std::vector<std::string> names = attackerNames();
    EXPECT_GE(names.size(), 6u);
    for (const std::string &name : names) {
        const AttackerInfo *info = findAttacker(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_EQ(info->name, name);

        // Defense-specific adversaries must name a registered
        // defense; "" marks the oblivious ones.
        const std::string defense = info->targetDefense;
        if (!defense.empty())
            EXPECT_NE(findMitigation(defense), nullptr) << name;

        // Constructible from an all-default config against the
        // defense it targets, self-identifying, and tickable.
        const DramSpec spec = testSpec();
        ControllerConfig controller;
        configureDefense(controller,
                         defense.empty() ? "graphene" : defense,
                         spec);
        AttackHarness harness(spec, controller);
        AttackerConfig config;
        config.attacker = name;
        const std::unique_ptr<AttackerAgent> agent =
            attackerByName(name, config, harness.mem());
        ASSERT_NE(agent, nullptr) << name;
        EXPECT_EQ(std::string(agent->name()), name);
        harness.add(agent.get());
        harness.run(nsToCycles(20'000.0));
    }
    EXPECT_EQ(findAttacker("no-such-attacker"), nullptr);
}

TEST(AttackerRegistry, KnobSpacesAreSane)
{
    for (const std::string &name : attackerNames()) {
        for (const AttackerKnob &knob : attackerKnobSpace(name)) {
            EXPECT_LE(knob.lo, knob.hi) << name << "." << knob.knob;
            EXPECT_GT(knob.hi, 0u) << name << "." << knob.knob;
            // Only the table's tunable knobs are searched.
            const AttackerField *field = findAttackerField(knob.knob);
            ASSERT_NE(field, nullptr) << name << "." << knob.knob;
            EXPECT_TRUE(field->tunable) << name << "." << knob.knob;
        }
    }
    // The oblivious baseline has nothing to tune: the search space
    // belongs to the adaptive adversaries.
    EXPECT_TRUE(attackerKnobSpace("hammer").empty());
    EXPECT_FALSE(attackerKnobSpace("pb-parallel").empty());
}

TEST(AttackerRegistry, DefenseMatching)
{
    EXPECT_EQ(attackerForDefense("graphene"), "graphene-thrash");
    EXPECT_EQ(attackerForDefense("para"), "para-retry");
    EXPECT_EQ(attackerForDefense("pb-rfm"), "pb-parallel");
    EXPECT_EQ(attackerForDefense("tprac"), "feinting");
}

TEST(SearchTest, ByteIdenticalAcrossJobsWidths)
{
    SearchOptions narrow = testOptions("graphene");
    narrow.jobs = 1;
    SearchOptions wide = narrow;
    wide.jobs = 8;
    const std::string a = runAttackerSearch(narrow).toJson().dump();
    const std::string b = runAttackerSearch(wide).toJson().dump();
    EXPECT_EQ(a, b);
}

TEST(SearchTest, ResumeIsByteIdentical)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "pracleak_search_resume_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    SearchOptions options = testOptions("para");
    options.checkpointDir = dir.string();
    const std::string first =
        runAttackerSearch(options).toJson().dump();

    // Simulate a kill between the final round's points: truncate the
    // round-2 journal to its first line and resume.  The journals
    // are named <tag>.<defense>.r<k>.jsonl.
    const fs::path journal = dir / "search.para.r2.jsonl";
    ASSERT_TRUE(fs::exists(journal));
    std::string head;
    {
        std::ifstream in(journal);
        std::getline(in, head);
    }
    {
        std::ofstream out(journal, std::ios::trunc);
        out << head << "\n";
    }
    options.resume = true;
    const std::string resumed =
        runAttackerSearch(options).toJson().dump();
    EXPECT_EQ(first, resumed);
    fs::remove_all(dir);
}

TEST(SearchTest, BestNeverWorseThanOblivious)
{
    for (const std::string defense :
         {"graphene", "para", "pb-rfm"}) {
        const SearchResult result =
            runAttackerSearch(testOptions(defense));
        // Candidate 0 is the oblivious hammer, evaluated at the full
        // window in the final round alongside the tuned survivors.
        EXPECT_EQ(result.oblivious.id, 0u) << defense;
        EXPECT_EQ(result.oblivious.config.attacker, "hammer")
            << defense;
        EXPECT_GT(result.oblivious.maxCounter, 0u) << defense;
        EXPECT_GE(result.best.maxCounter,
                  result.oblivious.maxCounter)
            << defense;
        // The tuned attacker matches the defense under search.
        EXPECT_EQ(result.attacker, attackerForDefense(defense))
            << defense;
        ASSERT_EQ(result.rounds.size(), 2u) << defense;
        // Round 1 evaluates the whole budget at half the window;
        // round 2 the survivors (plus the protected baseline) at
        // the full window.
        EXPECT_EQ(result.rounds[0].candidates.size(), 4u) << defense;
        EXPECT_LT(result.rounds[1].candidates.size(), 4u) << defense;
        EXPECT_DOUBLE_EQ(result.rounds[0].windowMs,
                         result.rounds[1].windowMs / 2.0)
            << defense;
    }
}

TEST(SearchTest, PinnedKnobsAreNotSampled)
{
    // pb-parallel searches every tunable knob; pin each table entry
    // in turn and sample the rest.
    for (const AttackerField &field : kAttackerFields) {
        SearchOptions options = testOptions("pb-rfm");
        options.base.*field.field = 3;
        const SearchResult result = runAttackerSearch(options);
        for (const sim::SearchCandidate &candidate :
             result.rounds[0].candidates) {
            if (candidate.id == 0 && field.tunable)
                continue;  // the oblivious baseline ignores the pin
            EXPECT_EQ(candidate.config.*field.field, 3u)
                << field.name << " candidate " << candidate.id;
        }
    }
}

} // namespace
} // namespace pracleak
