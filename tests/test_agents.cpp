/**
 * @file
 * Unit tests for the attack building-block agents (probe, hammer,
 * Feinting wave) and the AttackHarness itself.
 */

#include <gtest/gtest.h>

#include <map>

#include "attack/agents.h"
#include "attack/harness.h"
#include "dram/timing_checker.h"

namespace pracleak {
namespace {

ControllerConfig
quietConfig()
{
    ControllerConfig config;
    config.refreshEnabled = false;
    return config;
}

TEST(ProbeAgentTest, KeepsExactlyOneReadInFlight)
{
    AttackHarness harness(DramSpec::ddr5_8000b(), quietConfig());
    ProbeAgent probe(harness.mem().mapper().compose(
        DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);

    std::size_t max_depth = 0;
    for (int i = 0; i < 50000; ++i) {
        harness.step();
        max_depth = std::max(max_depth, harness.mem().queueDepth());
    }
    EXPECT_EQ(max_depth, 1u);
    EXPECT_GT(probe.completed(), 500u);
}

TEST(ProbeAgentTest, SamplesAreMonotoneInTime)
{
    AttackHarness harness(DramSpec::ddr5_8000b(), quietConfig());
    ProbeAgent probe(harness.mem().mapper().compose(
        DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);
    harness.run(nsToCycles(50000));

    Cycle prev = 0;
    for (const auto &sample : probe.samples()) {
        EXPECT_GT(sample.doneAt, prev);
        prev = sample.doneAt;
    }
}

TEST(ProbeAgentTest, OpenPageProbingAvoidsSelfActivations)
{
    // The spy's whole point: its own row stays open, so its counter
    // never climbs and it cannot self-trigger an Alert.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 64;
    ControllerConfig config;
    config.mitigation = "abo-only";
    config.refreshEnabled = false;
    AttackHarness harness(spec, config);
    ProbeAgent probe(harness.mem().mapper().compose(
        DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);

    harness.run(nsToCycles(500000));
    EXPECT_GT(probe.completed(), 5000u); // far more reads than NBO
    EXPECT_EQ(harness.mem().prac().alerts(), 0u);
    EXPECT_LE(harness.mem().prac().counters().maxEverSeen(), 2u);
}

TEST(HammerAgentTest, DeliversExactTargetActivations)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 100000; // never alert
    AttackHarness harness(spec, quietConfig());
    const AddressMapper &mapper = harness.mem().mapper();

    const DramAddress target{0, 4, 2, 0x100, 0};
    std::vector<DramAddress> decoys{{0, 4, 2, 0x200, 0},
                                    {0, 4, 2, 0x201, 0}};
    HammerAgent hammer(mapper, target, decoys);
    harness.add(&hammer);

    hammer.startHammer(150);
    harness.runUntil([&] { return hammer.done(); }, nsToCycles(1e6));

    ASSERT_TRUE(hammer.done());
    EXPECT_EQ(hammer.targetActsDone(), 150u);
    // Ground truth: the PRAC counter saw exactly those activations.
    EXPECT_EQ(harness.mem().prac().counters().get(
                  mapper.flatBank(target), target.row),
              150u);
}

TEST(HammerAgentTest, DecoysShareTheRemainingActivations)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 100000;
    AttackHarness harness(spec, quietConfig());
    const AddressMapper &mapper = harness.mem().mapper();

    const DramAddress target{0, 4, 2, 0x100, 0};
    std::vector<DramAddress> decoys;
    for (std::uint32_t i = 0; i < 4; ++i)
        decoys.push_back(DramAddress{0, 4, 2, 0x200 + i, 0});
    HammerAgent hammer(mapper, target, decoys);
    harness.add(&hammer);

    hammer.startHammer(160);
    harness.runUntil([&] { return hammer.done(); }, nsToCycles(1e6));

    // Each of the 4 decoys got ~1/4 of the target's count.
    for (std::uint32_t i = 0; i < 4; ++i) {
        const std::uint32_t count =
            harness.mem().prac().counters().get(
                mapper.flatBank(target), 0x200 + i);
        EXPECT_NEAR(static_cast<double>(count), 40.0, 3.0);
    }
}

TEST(HammerAgentTest, StopAbortsBurst)
{
    AttackHarness harness(DramSpec::ddr5_8000b(), quietConfig());
    const AddressMapper &mapper = harness.mem().mapper();
    const DramAddress target{0, 4, 2, 0x100, 0};
    HammerAgent hammer(mapper, target, {{0, 4, 2, 0x200, 0}});
    harness.add(&hammer);

    hammer.startHammer(100000);
    harness.run(nsToCycles(5000));
    hammer.stop();
    const std::uint32_t at_stop = hammer.targetActsDone();
    harness.run(nsToCycles(5000));
    // Only the in-flight tail may complete after stop().
    EXPECT_LE(hammer.targetActsDone(), at_stop + 2);
}

TEST(HammerAgentTest, RateApproachesBankPipelineLimit)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    AttackHarness harness(spec, quietConfig());
    const AddressMapper &mapper = harness.mem().mapper();
    const DramAddress target{0, 4, 2, 0x100, 0};
    HammerAgent hammer(mapper, target,
                       {{0, 4, 2, 0x200, 0}, {0, 4, 2, 0x201, 0}});
    harness.add(&hammer);

    hammer.startHammer(200);
    const Cycle start = harness.now();
    harness.runUntil([&] { return hammer.done(); }, nsToCycles(1e6));
    const Cycle elapsed = harness.now() - start;

    // Two row cycles (target + decoy) per target activation; the bank
    // pipeline is tRP + tRCD + tRTP per row cycle.
    const Cycle per_act =
        2 * (spec.timing.tRP + spec.timing.tRCD + spec.timing.tRTP);
    EXPECT_LT(elapsed, 200 * per_act * 12 / 10);
}

TEST(FeintingAgentTest, RefusedEnqueueSkipsNoRow)
{
    // A one-entry queue refuses most of the wave's requests.  Every
    // row of the pool must still be activated: a row drawn for a
    // refused request would be skipped for the rest of the wave and
    // then pruned as mitigated (its counter still 0).
    ControllerConfig config = quietConfig();
    config.queueCapacity = 1;
    AttackHarness harness(DramSpec::ddr5_8000b(), config);
    std::map<std::uint32_t, std::uint32_t> acts; // bank 0 row -> ACTs
    harness.mem().dram().setTraceSink([&](const Command &cmd, Cycle) {
        if (cmd.type == CmdType::ACT && cmd.rank == 0 &&
            cmd.bankGroup == 0 && cmd.bank == 0)
            ++acts[cmd.row];
    });
    AttackerConfig wave_config;
    wave_config.poolSize = 8;
    wave_config.targetRow = 5000;
    FeintingAgent wave(harness.mem(), wave_config);
    harness.add(&wave);
    harness.run(20000);

    for (std::uint32_t row = 5000; row <= 5008; ++row)
        EXPECT_GE(acts[row], 5u) << "row " << row;
}

TEST(HarnessTest, RunUntilStopsOnPredicate)
{
    AttackHarness harness(DramSpec::ddr5_8000b(), quietConfig());
    ProbeAgent probe(harness.mem().mapper().compose(
        DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);

    harness.runUntil([&] { return probe.completed() >= 10; },
                     nsToCycles(1e6));
    EXPECT_GE(probe.completed(), 10u);
    EXPECT_LE(probe.completed(), 12u);
}

TEST(HarnessTest, AgentTrafficIsTimingClean)
{
    // Probe + hammer traffic cross-checked by the independent timing
    // verifier.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 256;
    ControllerConfig config;
    config.mitigation = "abo-only";
    AttackHarness harness(spec, config);
    TimingChecker checker(spec);
    harness.mem().dram().setTraceSink(
        [&](const Command &cmd, Cycle now) {
            checker.observe(cmd, now);
        });

    const AddressMapper &mapper = harness.mem().mapper();
    ProbeAgent probe(mapper.compose(DramAddress{0, 0, 0, 3, 0}));
    const DramAddress target{0, 4, 2, 0x100, 0};
    HammerAgent hammer(mapper, target,
                       {{0, 4, 2, 0x200, 0}, {0, 4, 2, 0x201, 0}});
    harness.add(&probe);
    harness.add(&hammer);

    hammer.startHammer(300);
    harness.run(nsToCycles(100000));

    EXPECT_TRUE(checker.clean())
        << checker.violations().front();
}

} // namespace
} // namespace pracleak
