/**
 * @file
 * End-to-end tests of the PRACLeak covert channels (Section 3.2) and
 * of TPRAC's ability to close them.
 */

#include <gtest/gtest.h>

#include "attack/covert.h"
#include "common/rng.h"

namespace pracleak {
namespace {

std::vector<bool>
randomBits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<bool> bits(n);
    for (std::size_t i = 0; i < n; ++i)
        bits[i] = rng.chance(0.5);
    return bits;
}

std::vector<std::uint32_t>
randomSymbols(std::size_t n, std::uint32_t bound, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint32_t> symbols(n);
    for (std::size_t i = 0; i < n; ++i)
        symbols[i] = static_cast<std::uint32_t>(rng.range(bound));
    return symbols;
}

TEST(CovertActivity, TransmitsBitsAtNbo256)
{
    CovertParams params;
    params.nbo = 256;
    const auto message = randomBits(24, 7);
    const CovertResult result = runActivityCovert(params, message);

    EXPECT_EQ(result.symbolsSent, message.size());
    EXPECT_EQ(result.symbolErrors, 0u)
        << "decoded bits diverge from the message";
    // Paper Table 2: 24.1 us period / 41.4 Kbps at NBO=256.  Accept a
    // generous band around that shape.
    EXPECT_GT(result.bitrateKbps(), 15.0);
    EXPECT_LT(result.bitrateKbps(), 80.0);
}

TEST(CovertActivity, AllZerosProducesNoRfms)
{
    CovertParams params;
    params.nbo = 256;
    const std::vector<bool> message(16, false);
    const CovertResult result = runActivityCovert(params, message);
    EXPECT_EQ(result.symbolErrors, 0u);
    for (const auto decoded : result.decoded)
        EXPECT_EQ(decoded, 0u);
}

TEST(CovertActivity, TpracClosesChannel)
{
    CovertParams params;
    params.nbo = 256;
    params.defense = "tprac";
    const auto message = randomBits(16, 11);
    const CovertResult result = runActivityCovert(params, message);

    // Under TPRAC every window contains TB-RFM spikes regardless of
    // the sender, so the receiver decodes all-ones: zero mutual
    // information with the message.
    for (const auto decoded : result.decoded)
        EXPECT_EQ(decoded, 1u);
}

TEST(CovertCount, TransmitsSymbolsAtNbo256)
{
    CovertParams params;
    params.nbo = 256;
    const auto symbols = randomSymbols(16, 16, 13);
    const CovertResult result = runCountCovert(params, symbols);

    EXPECT_EQ(result.symbolsSent, symbols.size());
    EXPECT_EQ(result.symbolErrors, 0u)
        << "count channel should decode nearly every symbol";
    // Paper Table 2: 64.7 us period, 123.6 Kbps at NBO=256 (8 bits);
    // we transmit 7 bits/window -- accept the same decade.
    EXPECT_GT(result.bitrateKbps(), 30.0);
    EXPECT_LT(result.bitrateKbps(), 250.0);
}

TEST(CovertCount, HigherBitrateThanActivityChannel)
{
    CovertParams params;
    params.nbo = 256;
    const auto bits = randomBits(12, 5);
    const auto symbols = randomSymbols(12, 16, 5);
    const CovertResult activity = runActivityCovert(params, bits);
    const CovertResult count = runCountCovert(params, symbols);

    // Table 2's headline comparison: more bits per (longer) window
    // still wins on bitrate.
    EXPECT_GT(count.bitrateKbps(), activity.bitrateKbps());
    EXPECT_GT(count.periodUs(), activity.periodUs());
}

TEST(CovertCount, TpracDestroysSymbols)
{
    CovertParams params;
    params.nbo = 256;
    params.defense = "tprac";
    const auto symbols = randomSymbols(12, 16, 17);
    const CovertResult result = runCountCovert(params, symbols);

    // TB-RFM spikes arrive on the defense's clock, so the decoded
    // count no longer tracks the sent symbol.  Require that most
    // symbols fail (a couple may collide by chance).
    EXPECT_GE(result.symbolErrors, result.symbolsSent - 2);
}

/** Table-2 sweep: the channels function across NBO values. */
class CovertSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CovertSweep, ActivityChannelWorks)
{
    CovertParams params;
    params.nbo = GetParam();
    const auto message = randomBits(10, params.nbo);
    const CovertResult result = runActivityCovert(params, message);
    EXPECT_EQ(result.symbolErrors, 0u) << "nbo=" << params.nbo;
}

TEST_P(CovertSweep, BitrateFallsWithNbo)
{
    CovertParams params;
    params.nbo = GetParam();
    const auto message = randomBits(6, 3);
    const CovertResult result = runActivityCovert(params, message);
    // Transmission period scales with NBO * tRC: at least NBO * 104ns.
    EXPECT_GT(result.periodUs(), params.nbo * 0.104 * 0.9);
}

INSTANTIATE_TEST_SUITE_P(NboValues, CovertSweep,
                         ::testing::Values(256u, 512u, 1024u));

TEST(CovertParallel, ConcurrentPairsStayIsolatedAndErrorFree)
{
    CovertParams params;
    params.nbo = 256;
    const std::vector<std::vector<bool>> messages = {
        randomBits(8, 21), randomBits(8, 22)};
    const auto results = runActivityCovertParallel(params, messages);

    ASSERT_EQ(results.size(), 2u);
    for (std::size_t c = 0; c < results.size(); ++c) {
        EXPECT_EQ(results[c].symbolErrors, 0u) << "channel " << c;
        EXPECT_EQ(results[c].symbolsSent, messages[c].size());
        // Decoded bits are the channel's own message, not a mix of
        // both senders (cross-channel isolation).
        for (std::size_t i = 0; i < messages[c].size(); ++i)
            EXPECT_EQ(results[c].decoded[i],
                      messages[c][i] ? 1u : 0u)
                << "channel " << c << " bit " << i;
    }
}

// (No standalone-vs-parallel N=1 equivalence test here on purpose:
// runActivityCovert *is* the N=1 parallel path, so such a test would
// compare the code against itself.  The pre-refactor single-channel
// numbers are pinned by Golden.Table2CovertChannelsSmallGrid.)

} // namespace
} // namespace pracleak
