/**
 * @file
 * Multi-channel memory-system tests:
 *
 *  - Address-mapper bijectivity over every channel/rank/granularity
 *    configuration (round trips in both directions, channel routing
 *    consistency), and channel balance on a linear sweep.
 *  - N=1 equivalence: the refactored multi-channel System must
 *    reproduce the pre-refactor single-channel RunResult
 *    field-for-field (golden values captured from the seed tree),
 *    with fast-forward on and off.
 *  - Multi-channel runs: per-channel results sum to the aggregates,
 *    traffic reaches every channel, and added channels add
 *    bandwidth.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cpu/system.h"
#include "mem/address_mapper.h"
#include "sim/design.h"
#include "workload/suite.h"

namespace pracleak {
namespace {

// --- Mapper bijectivity and balance --------------------------------

std::vector<ChannelInterleave>
interleaveConfigs()
{
    std::vector<ChannelInterleave> configs;
    for (const std::uint32_t channels : {1u, 2u, 4u, 8u})
        for (const std::uint32_t granularity : {64u, 256u, 4096u})
            for (const bool fold : {true, false})
                configs.push_back(
                    ChannelInterleave{channels, granularity, fold});
    return configs;
}

TEST(MultiChannelMapper, RoundTripAllConfigs)
{
    Rng rng(11);
    for (const std::uint32_t ranks : {1u, 2u, 4u}) {
        DramOrg org;
        org.ranks = ranks;
        for (const ChannelInterleave &interleave :
             interleaveConfigs()) {
            for (const MappingScheme scheme :
                 {MappingScheme::Mop4, MappingScheme::RowInterleaved}) {
                const AddressMapper mapper(org, scheme, interleave);
                const Addr space = org.totalLines() *
                                   interleave.channels * kLineBytes;
                for (int i = 0; i < 500; ++i) {
                    const Addr addr =
                        (rng.next() % space) &
                        ~static_cast<Addr>(kLineBytes - 1);
                    const DramAddress da = mapper.map(addr);
                    ASSERT_EQ(mapper.compose(da), addr)
                        << "channels=" << interleave.channels
                        << " gran=" << interleave.granularityBytes
                        << " fold=" << interleave.xorFold
                        << " ranks=" << ranks;
                    ASSERT_LT(da.channel, interleave.channels);
                    ASSERT_EQ(da.channel, mapper.channelOf(addr));
                }
            }
        }
    }
}

TEST(MultiChannelMapper, ComposeMapInverseWithChannels)
{
    const DramOrg org;
    const AddressMapper mapper(org, MappingScheme::Mop4,
                               ChannelInterleave{4, 256, true});
    Rng rng(12);
    for (int i = 0; i < 2000; ++i) {
        DramAddress da;
        da.channel = static_cast<std::uint32_t>(rng.range(4));
        da.rank = static_cast<std::uint32_t>(rng.range(org.ranks));
        da.bankGroup =
            static_cast<std::uint32_t>(rng.range(org.bankGroups));
        da.bank =
            static_cast<std::uint32_t>(rng.range(org.banksPerGroup));
        da.row =
            static_cast<std::uint32_t>(rng.range(org.rowsPerBank));
        da.col =
            static_cast<std::uint32_t>(rng.range(org.colsPerRow));
        const DramAddress back = mapper.map(mapper.compose(da));
        EXPECT_EQ(back.channel, da.channel);
        EXPECT_TRUE(back.sameRow(da));
        EXPECT_EQ(back.col, da.col);
    }
}

TEST(MultiChannelMapper, DistinctAddressesDistinctCoordinates)
{
    const AddressMapper mapper(DramOrg{}, MappingScheme::Mop4,
                               ChannelInterleave{4, 256, true});
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t>>
        seen;
    for (Addr line = 0; line < 8192; ++line) {
        const DramAddress da = mapper.map(line << kLineShift);
        seen.insert({da.channel, mapper.flatBank(da), da.row, da.col});
    }
    EXPECT_EQ(seen.size(), 8192u);
}

TEST(MultiChannelMapper, LinearSweepBalancesChannels)
{
    for (const ChannelInterleave &interleave : interleaveConfigs()) {
        const AddressMapper mapper(DramOrg{}, MappingScheme::Mop4,
                                   interleave);
        const std::size_t lines = 1 << 16;
        std::vector<std::size_t> perChannel(interleave.channels, 0);
        for (Addr line = 0; line < lines; ++line)
            ++perChannel[mapper.channelOf(line << kLineShift)];
        const double even =
            static_cast<double>(lines) / interleave.channels;
        for (const std::size_t count : perChannel)
            EXPECT_NEAR(static_cast<double>(count), even,
                        0.01 * even)
                << "channels=" << interleave.channels
                << " gran=" << interleave.granularityBytes
                << " fold=" << interleave.xorFold;
    }
}

TEST(MultiChannelMapper, SingleChannelMatchesLegacyMapper)
{
    // channels == 1 must be bit-identical to the pre-multi-channel
    // mapper: same coordinates, identity strip, channel always 0.
    const AddressMapper multi(DramOrg{}, MappingScheme::Mop4,
                              ChannelInterleave{1, 256, true});
    const AddressMapper legacy(DramOrg{}, MappingScheme::Mop4);
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = (rng.next() & ((1ULL << 37) - 1)) &
                          ~static_cast<Addr>(kLineBytes - 1);
        const DramAddress a = multi.map(addr);
        const DramAddress b = legacy.map(addr);
        ASSERT_EQ(a.channel, 0u);
        ASSERT_EQ(multi.stripChannel(addr), addr);
        ASSERT_TRUE(a.sameRow(b));
        ASSERT_EQ(a.col, b.col);
    }
}

// --- N=1 equivalence against pre-refactor golden values ------------

/** Golden RunResult captured from the seed (pre-refactor) tree. */
struct Golden
{
    const char *entry;
    const char *mitigation;
    Cycle measureCycles;
    std::uint64_t tbRfms, alerts, rowMisses;
    std::uint32_t maxCounterSeen;
    std::uint64_t acts, reads, writes, refreshes, mitigatedRows;
    double totalNj, mitigationNj;
    Cycle cycles0, cycles1; //!< per-core measure cycles
};

// Captured with: warmup=20000, measure=100000, cores=2, nbo=1024,
// DramSpec::ddr5_8000b(), on the seed (single-channel) tree.
const Golden kGolden[] = {
    {"h_rand_heavy", "tprac", 135545, 6, 0, 10163, 3,
     10163, 10071, 0, 35, 768, 75341.800000000003, 3072.0, 133621,
     135545},
    {"m_blend", "none", 38808, 0, 0, 1460, 3,
     1460, 3293, 0, 10, 0, 19108.700000000001, 0.0, 38334, 38808},
    {"l_resident", "abo-only", 54550, 0, 0, 1334, 14,
     1334, 4483, 0, 14, 0, 25683.900000000001, 0.0, 54550, 52188},
};

void
expectMatchesGolden(const RunResult &result, const Golden &golden)
{
    EXPECT_EQ(result.measureCycles, golden.measureCycles);
    EXPECT_EQ(result.tbRfms, golden.tbRfms);
    EXPECT_EQ(result.alerts, golden.alerts);
    EXPECT_EQ(result.aboRfms, 0u);
    EXPECT_EQ(result.acbRfms, 0u);
    EXPECT_EQ(result.rowMisses, golden.rowMisses);
    EXPECT_EQ(result.maxCounterSeen, golden.maxCounterSeen);
    EXPECT_EQ(result.energyCounts.acts, golden.acts);
    EXPECT_EQ(result.energyCounts.reads, golden.reads);
    EXPECT_EQ(result.energyCounts.writes, golden.writes);
    EXPECT_EQ(result.energyCounts.refreshes, golden.refreshes);
    EXPECT_EQ(result.energyCounts.mitigatedRows,
              golden.mitigatedRows);
    EXPECT_EQ(result.energyCounts.elapsed, golden.measureCycles);
    // Doubles are derived from the integer counts; tolerate only
    // cross-compiler last-ulp noise (FMA contraction).
    EXPECT_NEAR(result.energy.totalNj(), golden.totalNj,
                1e-9 * golden.totalNj);
    EXPECT_NEAR(result.energy.mitigationNj, golden.mitigationNj,
                1e-9 * golden.mitigationNj + 1e-12);
    ASSERT_EQ(result.cores.size(), 2u);
    EXPECT_EQ(result.cores[0].instrs, 100'000u);
    EXPECT_EQ(result.cores[1].instrs, 100'000u);
    EXPECT_EQ(result.cores[0].cycles, golden.cycles0);
    EXPECT_EQ(result.cores[1].cycles, golden.cycles1);

    // The single channel's breakdown is the aggregate.
    ASSERT_EQ(result.channels.size(), 1u);
    EXPECT_EQ(result.channels[0].energyCounts.acts, golden.acts);
    EXPECT_EQ(result.channels[0].tbRfms, golden.tbRfms);
    EXPECT_EQ(result.channels[0].alerts, golden.alerts);
}

TEST(MultiChannelSystem, SingleChannelMatchesPreRefactorGolden)
{
    for (const Golden &golden : kGolden) {
        for (const bool fast_forward : {false, true}) {
            sim::DesignConfig design;
            design.label = "equivalence";
            design.mitigation = golden.mitigation;
            design.fastForward = fast_forward;
            sim::RunBudget budget;
            budget.warmup = 20'000;
            budget.measure = 100'000;
            const RunResult result = sim::runOne(
                sim::findSuiteEntry(golden.entry), design, budget, 2);
            SCOPED_TRACE(std::string(golden.entry) +
                         (fast_forward ? " ff=on" : " ff=off"));
            expectMatchesGolden(result, golden);
        }
    }
}

// --- Multi-channel runs --------------------------------------------

TEST(MultiChannelSystem, PerChannelResultsSumToAggregates)
{
    sim::DesignConfig design;
    design.label = "tprac-2ch";
    design.mitigation = "tprac";
    design.channels = 2;
    sim::RunBudget budget;
    budget.warmup = 10'000;
    budget.measure = 60'000;
    const RunResult result = sim::runOne(
        sim::findSuiteEntry("h_rand_heavy"), design, budget, 2);

    ASSERT_EQ(result.channels.size(), 2u);
    std::uint64_t acts = 0, tb_rfms = 0, alerts = 0;
    double energy = 0.0;
    std::uint32_t max_counter = 0;
    for (const ChannelResult &channel : result.channels) {
        EXPECT_GT(channel.energyCounts.acts, 0u)
            << "a channel saw no traffic";
        acts += channel.energyCounts.acts;
        tb_rfms += channel.tbRfms;
        alerts += channel.alerts;
        energy += channel.energy.totalNj();
        max_counter =
            std::max(max_counter, channel.maxCounterSeen);
    }
    EXPECT_EQ(result.energyCounts.acts, acts);
    EXPECT_EQ(result.tbRfms, tb_rfms);
    EXPECT_EQ(result.alerts, alerts);
    EXPECT_EQ(result.maxCounterSeen, max_counter);
    EXPECT_NEAR(result.energy.totalNj(), energy, 1e-6);
    EXPECT_GT(result.tbRfms, 0u); // both channels mitigate
    EXPECT_EQ(result.alerts, 0u);
}

TEST(MultiChannelSystem, MoreChannelsMoreBandwidth)
{
    sim::RunBudget budget;
    budget.warmup = 10'000;
    budget.measure = 60'000;
    auto ipc = [&](std::uint32_t channels) {
        sim::DesignConfig design;
        design.label = "bw";
        design.channels = channels;
        return sim::runOne(sim::findSuiteEntry("h_rand_heavy"),
                           design, budget, 4)
            .ipcSum();
    };
    const double one = ipc(1);
    const double two = ipc(2);
    EXPECT_GT(two, one * 1.1)
        << "a second channel should relieve the bandwidth bottleneck";
}

TEST(MultiChannelSystem, RankSweepRuns)
{
    for (const std::uint32_t ranks : {1u, 2u}) {
        sim::DesignConfig design;
        design.label = "ranks";
        design.channels = 2;
        design.ranks = ranks;
        sim::RunBudget budget;
        budget.warmup = 5'000;
        budget.measure = 20'000;
        const RunResult result = sim::runOne(
            sim::findSuiteEntry("m_blend"), design, budget, 2);
        EXPECT_GT(result.ipcSum(), 0.0);
        EXPECT_EQ(result.channels.size(), 2u);
    }
}

} // namespace
} // namespace pracleak
