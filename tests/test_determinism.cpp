/**
 * @file
 * Determinism tests for the sweep runner: the same scenario grid run
 * at --jobs 1 and at --jobs 8 must produce byte-identical rows and
 * summaries -- thread scheduling (and the memoized-baseline cache the
 * threads race on) must never leak into results.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/design.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace pracleak::sim {
namespace {

std::string
dumpRows(const SweepResult &result)
{
    std::string out;
    for (const ResultRow &row : result.rows)
        out += row.dump() + '\n';
    out += "--\n";
    for (const ResultRow &row : result.summary)
        out += row.dump() + '\n';
    return out;
}

SweepResult
runWithJobs(const std::string &name, const RunOptions &base,
            unsigned jobs)
{
    RunOptions options = base;
    options.jobs = jobs;
    options.progress = false;
    // Memoized baselines persist across sweeps; drop them so each
    // run recomputes from scratch and a scheduling-dependent cache
    // fill cannot mask (or cause) a divergence.
    clearBaselineCache();
    return runScenarioByName(name, options);
}

TEST(Determinism, PerfSweepIdenticalAcrossJobCounts)
{
    registerBuiltinScenarios();
    RunOptions options;
    options.overrides["channels"] = {JsonValue(std::int64_t{1}),
                                     JsonValue(std::int64_t{2})};
    options.overrides["design"] = {JsonValue("tprac")};
    options.overrides["entry"] = {JsonValue("h_rand_heavy"),
                                  JsonValue("m_blend")};
    options.overrides["warmup"] = {JsonValue(std::int64_t{5'000})};
    options.overrides["measure"] = {JsonValue(std::int64_t{30'000})};

    const std::string serial =
        dumpRows(runWithJobs("perf_channel_sweep", options, 1));
    const std::string parallel =
        dumpRows(runWithJobs("perf_channel_sweep", options, 8));
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("tprac"), std::string::npos);
}

TEST(Determinism, AttackSweepIdenticalAcrossJobCounts)
{
    registerBuiltinScenarios();
    RunOptions options;
    options.overrides["k0"] = {JsonValue(std::int64_t{0}),
                               JsonValue(std::int64_t{64}),
                               JsonValue(std::int64_t{128})};
    options.overrides["encryptions"] = {JsonValue(std::int64_t{120})};
    options.overrides["repeats"] = {JsonValue(std::int64_t{1})};

    const std::string serial =
        dumpRows(runWithJobs("fig05_key_sweep", options, 1));
    const std::string parallel =
        dumpRows(runWithJobs("fig05_key_sweep", options, 8));
    EXPECT_EQ(serial, parallel);
}

TEST(Determinism, DefenseSweepIdenticalAcrossJobCounts)
{
    // The stochastic defenses draw from counter-based per-channel RNG
    // streams (common/rng.h), so a PARA sweep must be byte-identical
    // at any worker count.
    registerBuiltinScenarios();
    RunOptions options;
    options.overrides["mitigation"] = {JsonValue("para"),
                                       JsonValue("graphene")};
    options.overrides["entry"] = {JsonValue("h_rand_heavy"),
                                  JsonValue("m_blend")};
    options.overrides["warmup"] = {JsonValue(std::int64_t{5'000})};
    options.overrides["measure"] = {JsonValue(std::int64_t{30'000})};

    const std::string serial =
        dumpRows(runWithJobs("defense_matrix_perf", options, 1));
    const std::string parallel =
        dumpRows(runWithJobs("defense_matrix_perf", options, 8));
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("para"), std::string::npos);
}

TEST(Determinism, RepeatedRunsIdentical)
{
    registerBuiltinScenarios();
    RunOptions options;
    options.overrides["channels"] = {JsonValue(std::int64_t{2})};

    const std::string first =
        dumpRows(runWithJobs("covert_channel_parallel", options, 8));
    const std::string second =
        dumpRows(runWithJobs("covert_channel_parallel", options, 8));
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace pracleak::sim
