/**
 * @file
 * Tests for the Section-7.2 extension: per-bank RFM (RFMpb) and the
 * TPRAC-PB variant that uses it.
 */

#include <gtest/gtest.h>

#include "attack/agents.h"
#include "attack/harness.h"
#include "mem/controller.h"
#include "tprac/tb_rfm.h"

namespace pracleak {
namespace {

TEST(RfmPb, BlocksOnlyTargetBank)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(Command{CmdType::RFMpb, 0, 0, 0, 0, 0}, 0);

    // Target bank gated for tRFMpb; a neighbour is free immediately.
    EXPECT_GE(dev.earliestIssue(Command{CmdType::ACT, 0, 0, 0, 5, 0}),
              spec.timing.tRFMpb);
    EXPECT_EQ(dev.earliestIssue(Command{CmdType::ACT, 0, 0, 1, 5, 0}),
              0u);
    EXPECT_EQ(dev.channelBlockedUntil(), 0u);
}

TEST(RfmPb, RequiresClosedBank)
{
    DramDevice dev(DramSpec::ddr5_8000b());
    dev.issue(Command{CmdType::ACT, 0, 0, 0, 7, 0}, 0);
    EXPECT_EQ(dev.earliestIssue(Command{CmdType::RFMpb, 0, 0, 0, 0, 0}),
              kNeverCycle);
}

TEST(RfmPb, ListenerMitigatesOneBank)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 1024;
    PracEngineConfig config;
    config.queue = QueueKind::Ideal;
    PracEngine engine(spec, config);

    engine.onActivate(3, 42, 0);
    engine.onActivate(7, 43, 1);
    engine.onRfmPb(3, 100);
    EXPECT_EQ(engine.counters().get(3, 42), 0u);  // mitigated
    EXPECT_EQ(engine.counters().get(7, 43), 1u);  // untouched
    EXPECT_EQ(engine.mitigatedRows(), 1u);
}

TEST(TpracPb, RotatesThroughEveryBank)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 1024;

    ControllerConfig config;
    config.mitigation = "tprac";
    config.tbRfm = TbRfmConfig::forNbo(1024, true, spec);
    config.tbRfm.perBank = true;
    MemoryController mem(spec, config);

    // One full window must produce one RFMpb per bank.
    mem.run(config.tbRfm.windowCycles + spec.timing.tREFI);
    const std::uint64_t pbs = mem.dram().issueCount(CmdType::RFMpb);
    EXPECT_GE(pbs, static_cast<std::uint64_t>(
                       spec.org.totalBanks()));
    EXPECT_EQ(mem.dram().issueCount(CmdType::RFMab), 0u);
}

TEST(TpracPb, StillPreventsAlerts)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 512;
    spec.timing.tREFW = nsToCycles(2.0e6); // scaled universe

    ControllerConfig config;
    config.mitigation = "tprac";
    config.tbRfm = TbRfmConfig::forNbo(512, true, spec);
    config.tbRfm.perBank = true;

    AttackHarness harness(spec, config);
    AttackerConfig hammer_config;
    hammer_config.poolSize = 4;
    hammer_config.burstSpacing = 0x100;
    hammer_config.targetBank = 18;
    hammer_config.targetRow = 0x100;
    HammerAgent hammer(harness.mem(), hammer_config);
    harness.add(&hammer);

    // Aggressive re-hammering across many windows.
    const Cycle end = config.tbRfm.windowCycles * 24;
    while (harness.now() < end) {
        if (hammer.done())
            hammer.startHammer(400);
        harness.step();
    }
    EXPECT_EQ(harness.mem().prac().alerts(), 0u);
    EXPECT_LT(harness.mem().prac().counters().maxEverSeen(), 512u);
}

TEST(TpracPb, NeverStallsOtherBanksObservably)
{
    // The receiver's probe (different bank) must not see RFM-scale
    // spikes under TPRAC-PB even at an aggressive window.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 128;

    ControllerConfig config;
    config.mitigation = "tprac";
    config.tbRfm = TbRfmConfig::forNbo(128, true, spec);
    config.tbRfm.perBank = true;
    config.refreshEnabled = false;

    AttackHarness harness(spec, config);
    AttackerConfig probe_config;
    probe_config.targetRow = 3;
    ProbeAgent probe(harness.mem(), probe_config);
    harness.add(&probe);
    harness.run(nsToCycles(200000));

    ASSERT_GT(probe.completed(), 500u);
    for (const auto &sample : probe.samples()) {
        // tRFMpb (210 ns) on the probe's own bank once per rotation
        // is the worst admissible delay; the channel-wide 350 ns+
        // stall of RFMab must never appear.
        EXPECT_LT(cyclesToNs(sample.latency), 330.0);
    }
}

} // namespace
} // namespace pracleak
