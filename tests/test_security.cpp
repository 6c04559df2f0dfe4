/**
 * @file
 * Security property tests: the Feinting/Wave attack (the proven
 * worst-case pattern for RFM-based mitigations) is run against the
 * full controller, and TPRAC configured from the analytic TB-Window
 * must never let any row reach the Back-Off threshold (Section 4.2.3).
 * A FIFO mitigation queue, by contrast, must be beatable -- the
 * motivation for the frequency-based queue.
 */

#include <gtest/gtest.h>

#include "attack/agents.h"
#include "attack/harness.h"
#include "mem/controller.h"
#include "tprac/analysis.h"
#include "tprac/tb_rfm.h"

namespace pracleak {
namespace {

/** The Feinting wave: @p pool decoys above target row 5000 of bank 0. */
AttackerConfig
feinting(std::uint32_t pool)
{
    AttackerConfig config;
    config.poolSize = pool;
    config.targetRow = 5000;
    return config;
}

/** Feinting vs TPRAC across NBO values and reset policies. */
class FeintingVsTprac
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>>
{
};

TEST_P(FeintingVsTprac, NoRowEverReachesNbo)
{
    const auto [nbo, counter_reset] = GetParam();

    // Full worst-case pressure is reached within one tREFW; scale the
    // refresh window down (a consistent scaled universe: the analytic
    // TB-Window shrinks with it) so the complete Feinting attack fits
    // in a unit-test budget.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = nbo;
    spec.timing.tREFW = nsToCycles(2.0e6); // 2 ms

    ControllerConfig config;
    config.mitigation = "tprac";
    config.prac.queue = QueueKind::SingleEntry;
    config.prac.counterResetAtTrefw = counter_reset;
    config.tbRfm = TbRfmConfig::forNbo(nbo, counter_reset, spec);

    AttackHarness harness(spec, config);

    // Pool sized at the analytic optimum for this (scaled) window.
    const FeintingParams fp = FeintingParams::fromSpec(spec);
    const double window_ns = cyclesToNs(config.tbRfm.windowCycles);
    const std::uint64_t act_w = actsPerWindow(window_ns, fp);
    const auto pool = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::min<std::uint64_t>(
            maxActsPerTrefw(window_ns, fp) /
                std::max<std::uint64_t>(act_w, 1),
            fp.rowsPerBank),
        2048));

    FeintingAgent attacker(harness.mem(), feinting(pool));
    harness.add(&attacker);

    // Run the complete attack: every decoy must be eliminated plus
    // the final all-on-target round.
    harness.run(config.tbRfm.windowCycles * (pool + 16));

    EXPECT_EQ(harness.mem().prac().alerts(), 0u)
        << "TPRAC let the Alert fire";
    EXPECT_EQ(harness.mem().rfmCount(RfmReason::Abo), 0u);
    const std::uint32_t reached =
        harness.mem().prac().counters().maxEverSeen();
    EXPECT_LT(reached, nbo);
    // The attack must have exerted real pressure: at least one full
    // window of concentrated activations on some row.
    EXPECT_GT(reached, static_cast<std::uint32_t>(act_w));
    EXPECT_GT(harness.mem().rfmCount(RfmReason::TimingBased), 32u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FeintingVsTprac,
    ::testing::Combine(::testing::Values(128u, 256u, 512u, 1024u),
                       ::testing::Bool()));

TEST(Security, SingleEntryQueueMatchesIdealUnderFeinting)
{
    // Section 4.2.3: the single-entry frequency queue achieves the
    // same security as the UPRAC oracle.  Run the same attack against
    // both and compare the worst counter value seen.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 512;

    auto max_count = [&](QueueKind queue) {
        ControllerConfig config;
        config.mitigation = "tprac";
        config.prac.queue = queue;
        config.tbRfm = TbRfmConfig::forNbo(512, true, spec);
        AttackHarness harness(spec, config);
        FeintingAgent attacker(harness.mem(), feinting(256));
        harness.add(&attacker);
        harness.run(config.tbRfm.windowCycles * 48);
        EXPECT_EQ(harness.mem().prac().alerts(), 0u);
        return harness.mem().prac().counters().maxEverSeen();
    };

    const std::uint32_t single = max_count(QueueKind::SingleEntry);
    const std::uint32_t ideal = max_count(QueueKind::Ideal);
    EXPECT_LT(single, 512u);
    EXPECT_LT(ideal, 512u);
    // "Equivalent security": within one TB-Window of activations.
    EXPECT_NEAR(static_cast<double>(single),
                static_cast<double>(ideal), 80.0);
}

TEST(Security, AboOnlyIsBreachedByFeinting)
{
    // Sanity for the attack itself: with no proactive mitigation the
    // same pattern must reach NBO and raise Alerts.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 256;

    ControllerConfig config;
    config.mitigation = "abo-only";
    config.prac.queue = QueueKind::SingleEntry;

    AttackHarness harness(spec, config);
    FeintingAgent attacker(harness.mem(), feinting(64));
    harness.add(&attacker);
    harness.run(nsToCycles(2.0e6));

    EXPECT_GT(harness.mem().prac().alerts(), 0u);
}

TEST(Security, FifoQueueWastesMitigations)
{
    // QPRAC/MOAT motivation: a FIFO queue mitigates stale rows while
    // the attacker redirects to fresh ones; the frequency queue does
    // not.  Compare ABO pressure under the same TB-RFM budget with a
    // FIFO whose enqueue threshold the attacker straddles.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 256;

    auto alerts_with = [&](QueueKind queue) {
        ControllerConfig config;
        config.mitigation = "tprac";
        config.prac.queue = queue;
        config.prac.fifoThreshold = 32;
        // Deliberately lax window: 4x the safe one.
        config.tbRfm.windowCycles =
            TbRfmConfig::forNbo(256, true, spec).windowCycles * 4;
        AttackHarness harness(spec, config);
        FeintingAgent attacker(harness.mem(), feinting(128));
        harness.add(&attacker);
        harness.run(config.tbRfm.windowCycles * 32);
        return harness.mem().prac().counters().maxEverSeen();
    };

    // Under an under-provisioned window the frequency queue still
    // suppresses the maximum better than (or equal to) FIFO.
    EXPECT_LE(alerts_with(QueueKind::SingleEntry),
              alerts_with(QueueKind::Fifo));
}

} // namespace
} // namespace pracleak
