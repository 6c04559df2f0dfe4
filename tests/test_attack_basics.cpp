/**
 * @file
 * Integration tests for the attack building blocks: the probe's
 * ability to observe RFM latency spikes, the hammer agent's ability
 * to trigger Alert Back-Off, and the characterization behaviour of
 * Section 3.1 (latency grows with the PRAC level).
 */

#include <gtest/gtest.h>

#include "attack/agents.h"
#include "attack/harness.h"
#include "common/types.h"

namespace pracleak {
namespace {

DramSpec
specWith(std::uint32_t nbo, std::uint32_t nmit)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = nbo;
    spec.prac.nmit = nmit;
    return spec;
}

ControllerConfig
aboOnlyConfig()
{
    ControllerConfig config;
    config.mitigation = "abo-only";
    return config;
}

TEST(AttackBasics, HammerTriggersAlert)
{
    const DramSpec spec = specWith(256, 1);
    AttackHarness harness(spec, aboOnlyConfig());
    const AddressMapper &mapper = harness.mem().mapper();

    const DramAddress target{0, 4, 2, 0x100, 0};
    std::vector<DramAddress> decoys{{0, 4, 2, 0x200, 0},
                                    {0, 4, 2, 0x201, 0},
                                    {0, 4, 2, 0x202, 0},
                                    {0, 4, 2, 0x203, 0}};
    HammerAgent hammer(mapper, target, decoys);
    harness.add(&hammer);

    hammer.startHammer(300);
    harness.runUntil([&] { return harness.mem().prac().alerts() > 0; },
                     nsToCycles(200000));

    EXPECT_EQ(harness.mem().prac().alerts(), 1u);
    EXPECT_EQ(harness.mem().prac().lastAlertRow(), 0x100u);
    // Service completes with one ABO-RFM at PRAC level 1.
    harness.run(nsToCycles(2000));
    EXPECT_EQ(harness.mem().rfmCount(RfmReason::Abo), 1u);
}

TEST(AttackBasics, BelowNboNeverAlerts)
{
    const DramSpec spec = specWith(256, 1);
    AttackHarness harness(spec, aboOnlyConfig());
    const AddressMapper &mapper = harness.mem().mapper();

    const DramAddress target{0, 4, 2, 0x100, 0};
    std::vector<DramAddress> decoys{{0, 4, 2, 0x200, 0},
                                    {0, 4, 2, 0x201, 0},
                                    {0, 4, 2, 0x202, 0},
                                    {0, 4, 2, 0x203, 0}};
    HammerAgent hammer(mapper, target, decoys);
    harness.add(&hammer);

    hammer.startHammer(200); // < NBO
    harness.runUntil([&] { return hammer.done(); },
                     nsToCycles(200000));
    EXPECT_TRUE(hammer.done());
    EXPECT_EQ(harness.mem().prac().alerts(), 0u);
}

TEST(AttackBasics, ProbeSeesRfmSpike)
{
    const DramSpec spec = specWith(256, 4);
    ControllerConfig base_config = aboOnlyConfig();
    // Disable refresh so the only >300 ns events are RFMs; the real
    // receiver separates REF from RFM with the two-rank coincidence
    // detector (see covert.cpp) instead.
    base_config.refreshEnabled = false;
    AttackHarness harness(spec, base_config);
    const AddressMapper &mapper = harness.mem().mapper();

    // Probe in a different bank from the hammer.
    ProbeAgent probe(mapper.compose(DramAddress{0, 0, 0, 3, 0}));
    const DramAddress target{0, 4, 2, 0x100, 0};
    std::vector<DramAddress> decoys{{0, 4, 2, 0x200, 0},
                                    {0, 4, 2, 0x201, 0},
                                    {0, 4, 2, 0x202, 0},
                                    {0, 4, 2, 0x203, 0}};
    HammerAgent hammer(mapper, target, decoys);
    harness.add(&probe);
    harness.add(&hammer);

    // Quiet period: no spike beyond refresh.
    harness.run(spec.timing.tREFI);
    const Cycle quiet_mark = harness.now();

    hammer.startHammer(280);
    harness.runUntil([&] { return probe.spikeSince(quiet_mark); },
                     nsToCycles(300000));
    EXPECT_TRUE(probe.spikeSince(quiet_mark));
    EXPECT_GT(harness.mem().prac().alerts(), 0u);
}

TEST(AttackBasics, ProbeLatencyStableWithoutAbo)
{
    const DramSpec spec = specWith(1024, 1);
    ControllerConfig config = aboOnlyConfig();
    config.refreshEnabled = false; // isolate: no REF spikes either
    AttackHarness harness(spec, config);
    const AddressMapper &mapper = harness.mem().mapper();

    ProbeAgent probe(mapper.compose(DramAddress{0, 0, 0, 3, 0}));
    harness.add(&probe);
    harness.run(nsToCycles(100000));

    ASSERT_GT(probe.completed(), 100u);
    for (const auto &sample : probe.samples())
        EXPECT_LT(sample.latency, ProbeAgent::spikeThreshold());
}

/**
 * Section 3.1 characterization: the observed spike latency grows with
 * the number of RFMs per ABO (paper: ~545/976/1669 ns for 1/2/4).
 */
class PracLevelLatency : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PracLevelLatency, SpikeScalesWithPracLevel)
{
    const std::uint32_t nmit = GetParam();
    const DramSpec spec = specWith(256, nmit);
    ControllerConfig config = aboOnlyConfig();
    config.refreshEnabled = false;
    AttackHarness harness(spec, config);
    const AddressMapper &mapper = harness.mem().mapper();

    ProbeAgent probe(mapper.compose(DramAddress{0, 0, 0, 3, 0}));
    const DramAddress target{0, 4, 2, 0x100, 0};
    std::vector<DramAddress> decoys{{0, 4, 2, 0x200, 0},
                                    {0, 4, 2, 0x201, 0},
                                    {0, 4, 2, 0x202, 0},
                                    {0, 4, 2, 0x203, 0}};
    HammerAgent hammer(mapper, target, decoys);
    harness.add(&probe);
    harness.add(&hammer);

    hammer.startHammer(280);
    harness.runUntil([&] { return probe.lastSpikeAt() != 0; },
                     nsToCycles(300000));
    ASSERT_NE(probe.lastSpikeAt(), 0u);

    // Find the largest observed latency: it must bracket the RFM
    // burst duration nmit * 350 ns.
    Cycle max_lat = 0;
    for (const auto &sample : probe.samples())
        max_lat = std::max(max_lat, sample.latency);
    EXPECT_GE(cyclesToNs(max_lat), 350.0 * nmit);
    EXPECT_LE(cyclesToNs(max_lat), 350.0 * nmit + 900.0);
}

INSTANTIATE_TEST_SUITE_P(Levels, PracLevelLatency,
                         ::testing::Values(1u, 2u, 4u));

} // namespace
} // namespace pracleak
