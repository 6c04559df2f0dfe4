/**
 * @file
 * DesignConfig construction contract: the struct stays an aggregate
 * (designated initializers are the scenario idiom), and the baseline
 * memoization cache distinguishes every baseline-visible knob, so a
 * design never reuses another design's stale baseline.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "sim/design.h"

namespace pracleak::sim {
namespace {

TEST(DesignConfig, AggregateWithDesignatedInitializers)
{
    static_assert(std::is_aggregate_v<DesignConfig>);
    const DesignConfig design{.label = "x",
                              .mitigation = "tprac",
                              .nbo = 512,
                              .channels = 2};
    EXPECT_EQ(design.label, "x");
    EXPECT_EQ(design.mitigation, "tprac");
    EXPECT_EQ(design.nbo, 512u);
    EXPECT_EQ(design.channels, 2u);
    // Unmentioned fields keep their member defaults.
    EXPECT_EQ(design.nmit, 1u);
}

TEST(DesignConfig, BaselineCacheDistinguishesChannelCount)
{
    // Two designs differing only in a baseline-visible knob must get
    // different memoized baselines; if the knob were missing from the
    // cache key, the second pair would reuse the first baseline and
    // report the wrong channel count.
    clearBaselineCache();
    RunBudget budget;
    budget.warmup = 1'000;
    budget.measure = 5'000;
    const SuiteEntry &entry = findSuiteEntry("l_tiny_hot");

    DesignConfig one{.label = "one", .mitigation = "tprac"};
    DesignConfig two{.label = "two", .mitigation = "tprac",
                     .channels = 2};
    const PairResult first =
        runNormalizedPair(entry, one, budget, 2);
    const PairResult second =
        runNormalizedPair(entry, two, budget, 2);
    EXPECT_EQ(first.baseline.channels.size(), 1u);
    EXPECT_EQ(second.baseline.channels.size(), 2u);
    clearBaselineCache();
}

} // namespace
} // namespace pracleak::sim
