/**
 * @file
 * Tests of the benchmark itself: runs repeat bit for bit, the traced
 * run reproduces the untraced outcome, and the protocol gate turns
 * an illegal command into a failed op.  Ops run at the benchmark's
 * own sizes.
 */

#include <gtest/gtest.h>

#include "bench.h"

namespace perfbench {
namespace {

std::vector<OpOutcome>
runAll(Workload &workload, LayerTrace *trace)
{
    std::vector<OpOutcome> ops;
    for (std::size_t i = 0; i < workload.ops().size(); ++i)
        ops.push_back(workload.run(i, trace));
    return ops;
}

class PerWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PerWorkload, RepeatsAndTracedRunMatchExactly)
{
    const std::unique_ptr<Workload> workload =
        makeWorkload(GetParam());
    workload->setup(7, nullptr);
    const std::vector<OpOutcome> first = runAll(*workload, nullptr);
    const std::vector<OpOutcome> second = runAll(*workload, nullptr);
    LayerTrace trace;
    const std::vector<OpOutcome> traced = runAll(*workload, &trace);

    ASSERT_EQ(first.size(), workload->ops().size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE(first[i].name);
        EXPECT_EQ(first[i].failure, "");
        EXPECT_EQ(traced[i].failure, "");
        EXPECT_GT(first[i].simCycles(), 0U);
        EXPECT_EQ(first[i].fingerprint(), second[i].fingerprint());
        EXPECT_EQ(first[i].fingerprint(), traced[i].fingerprint());
    }
    EXPECT_FALSE(trace.capture.commands.empty());
    EXPECT_FALSE(trace.capture.requests.empty());
    EXPECT_EQ(trace.violations, 0U);
    EXPECT_GT(trace.sched.ticksFired, 0U);
    EXPECT_GT(weightedSpeedup(first), 0.0);
}

TEST_P(PerWorkload, SeedChangesTheInputs)
{
    const std::unique_ptr<Workload> workload =
        makeWorkload(GetParam());
    workload->setup(1, nullptr);
    const std::vector<OpOutcome> one = runAll(*workload, nullptr);
    workload->setup(2, nullptr);
    const std::vector<OpOutcome> two = runAll(*workload, nullptr);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < one.size(); ++i)
        moved += one[i].fingerprint() != two[i].fingerprint();
    EXPECT_GT(moved, 0U);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::ValuesIn(workloadNames()));

TEST(ProtocolGate, IllegalCommandFailsTheOp)
{
    const pracleak::DramSpec spec = pracleak::DramSpec::ddr5_8000b();
    ProtocolGate gate(spec, 2);
    const pracleak::Command act{pracleak::CmdType::ACT, 0, 0, 0, 7, 0};
    gate.observe(1, act, 100);
    OpOutcome legal;
    gate.judge(legal);
    EXPECT_EQ(legal.failure, "");

    // A second ACT to the still-open bank one cycle later breaks tRC
    // and the open-bank rule.
    gate.observe(1, act, 101);
    EXPECT_GT(gate.violations(), 0U);
    OpOutcome illegal;
    gate.judge(illegal);
    EXPECT_NE(illegal.failure.find("channel 1"), std::string::npos);
}

TEST(LayerCosts, MicrocasesRunOnACapture)
{
    const std::unique_ptr<Workload> workload =
        makeWorkload("system_tprac");
    workload->setup(0, nullptr);
    LayerTrace trace;
    workload->run(0, &trace);

    const LayerCosts costs = measureLayers(trace.capture);
    EXPECT_GT(costs.clockReadS, 0.0);
    EXPECT_GT(costs.tagLookupNs, 0.0);
    for (const std::size_t depth : {8, 32, 64})
        EXPECT_GT(costs.tickNs.at(depth), 0.0);
    EXPECT_GT(costs.issueNs, 0.0);
    EXPECT_GT(costs.pracOnActivateNs, 0.0);
    EXPECT_EQ(costs.mitigation.size(), defenses().size());
    EXPECT_EQ(costs.mitigation.at("none").rfms, 0U);
}

} // namespace
} // namespace perfbench
