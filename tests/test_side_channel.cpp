/**
 * @file
 * End-to-end tests of the PRACLeak AES side channel (Section 3.3) and
 * of TPRAC's empirical security validation (Section 6.1, Fig. 9).
 */

#include <gtest/gtest.h>

#include "attack/side_channel.h"
#include "common/rng.h"

namespace pracleak {
namespace {

Aes128T::Key
randomKey(std::uint64_t seed)
{
    Rng rng(seed);
    Aes128T::Key key;
    for (auto &byte : key)
        byte = static_cast<std::uint8_t>(rng.range(256));
    return key;
}

TEST(SideChannel, VictimHotLineDominates)
{
    SideChannelParams params;
    params.key = randomKey(1);
    params.p0 = 0x30;
    params.encryptions = 200;

    const SideChannelResult result = runAesSideChannel(params);

    // The line of x0 = p0 ^ k0 must have roughly double the
    // activations of any other line after the victim phase (paper
    // Fig. 4: ~1.19 vs ~0.19 per encryption for round-1-only traffic,
    // i.e. clearly separated).
    const int hot = (params.p0 ^ params.key[0]) >> 4;
    const std::uint32_t hot_count = result.victimActsPerRow[hot];
    EXPECT_GT(hot_count, 150u);
    for (int row = 0; row < 16; ++row) {
        if (row == hot)
            continue;
        EXPECT_LT(result.victimActsPerRow[row] * 2, hot_count)
            << "row " << row;
    }
}

TEST(SideChannel, RecoversKeyNibble)
{
    SideChannelParams params;
    params.key = randomKey(2);
    params.p0 = 0;
    params.encryptions = 200;

    const SideChannelResult result = runAesSideChannel(params);

    ASSERT_TRUE(result.spikeObserved);
    EXPECT_EQ(result.recoveredKeyNibble, params.key[0] >> 4);
    // Ground truth agrees: the Alert really came from the hot row.
    EXPECT_EQ(result.trueTriggerRow,
              (params.p0 ^ params.key[0]) >> 4);
}

TEST(SideChannel, RecoveryWorksForNonzeroPlaintextByte)
{
    SideChannelParams params;
    params.key = randomKey(3);
    params.p0 = 0xA5;
    params.encryptions = 200;

    const SideChannelResult result = runAesSideChannel(params);
    ASSERT_TRUE(result.spikeObserved);
    EXPECT_EQ(result.recoveredKeyNibble, params.key[0] >> 4);
}

TEST(SideChannel, AttackerActsComplementVictim)
{
    // Fig. 5(b): attacker activations to the trigger row plus victim
    // activations sum to ~NBO.
    SideChannelParams params;
    params.key = randomKey(4);
    params.encryptions = 200;

    const SideChannelResult result = runAesSideChannel(params);
    ASSERT_TRUE(result.spikeObserved);
    ASSERT_GE(result.trueTriggerRow, 0);

    const std::uint32_t victim =
        result.victimActsPerRow[result.trueTriggerRow];
    const std::uint32_t attacker = result.attackerActsToTrigger;
    EXPECT_NEAR(static_cast<double>(victim + attacker), 256.0, 16.0);
}

TEST(SideChannel, TpracPreventsLeak)
{
    // Fig. 9: with the defense, the row triggering the first RFM is
    // unrelated to the key.  Statistically: across several keys the
    // recovery rate must collapse to chance (~1/16).
    int correct = 0;
    const int trials = 8;
    for (int t = 0; t < trials; ++t) {
        SideChannelParams params;
        params.key = randomKey(100 + t);
        params.defense = "tprac";
        params.encryptions = 200;
        params.probeLag = 3; // defense run: no calibration oracle

        const SideChannelResult result = runAesSideChannel(params);
        // TPRAC must never let the Alert fire.
        EXPECT_EQ(result.trueTriggerRow, -1);
        if (result.spikeObserved &&
            result.recoveredKeyNibble == (params.key[0] >> 4))
            ++correct;
    }
    EXPECT_LE(correct, 3) << "defense leaks: recovery above chance";
}

TEST(SideChannel, FewerEncryptionsThanPaperSuffice)
{
    // "leaking secret key bits in under 200 encryptions".
    SideChannelParams params;
    params.key = randomKey(5);
    params.encryptions = 160;

    const SideChannelResult result = runAesSideChannel(params);
    ASSERT_TRUE(result.spikeObserved);
    EXPECT_EQ(result.recoveredKeyNibble, params.key[0] >> 4);
}

/** Fig. 5 sweep: recovery holds across key-byte values. */
class KeySweep : public ::testing::TestWithParam<int>
{
};

TEST_P(KeySweep, RecoversTopNibble)
{
    SideChannelParams params;
    params.key = randomKey(40);
    params.key[0] = static_cast<std::uint8_t>(GetParam());
    params.encryptions = 200;
    params.seed = 9;

    const SideChannelResult result =
        runAesSideChannelMajority(params, 3);
    ASSERT_TRUE(result.spikeObserved);
    EXPECT_EQ(result.recoveredKeyNibble, GetParam() >> 4);
}

INSTANTIATE_TEST_SUITE_P(KeyByteValues, KeySweep,
                         ::testing::Values(0x00, 0x13, 0x2a, 0x47,
                                           0x5c, 0x6f, 0x81, 0x9e,
                                           0xb2, 0xc5, 0xd8, 0xeb,
                                           0xff));

} // namespace
} // namespace pracleak
