/**
 * @file
 * Unit tests for the DDR5 device model: spec defaults (Tables 1 and
 * 3), per-bank state, enforcement of every timing constraint, and the
 * monotonicity of earliestIssue() that the controller's cached bounds
 * rest on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dram/dram.h"
#include "dram/dram_spec.h"

namespace pracleak {
namespace {

Command
act(std::uint32_t rank, std::uint32_t bg, std::uint32_t bank,
    std::uint32_t row)
{
    return Command{CmdType::ACT, rank, bg, bank, row, 0};
}

Command
pre(std::uint32_t rank, std::uint32_t bg, std::uint32_t bank)
{
    return Command{CmdType::PRE, rank, bg, bank, 0, 0};
}

Command
rd(std::uint32_t rank, std::uint32_t bg, std::uint32_t bank,
   std::uint32_t row, std::uint32_t col = 0)
{
    return Command{CmdType::RD, rank, bg, bank, row, col};
}

TEST(DramSpec, Table3Configuration)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    EXPECT_EQ(spec.org.ranks, 4u);
    EXPECT_EQ(spec.org.bankGroups, 8u);
    EXPECT_EQ(spec.org.banksPerGroup, 4u);
    EXPECT_EQ(spec.org.totalBanks(), 128u);
    EXPECT_EQ(spec.org.rowsPerBank, 128u * 1024u);
    EXPECT_EQ(spec.org.colsPerRow * kLineBytes, 8u * 1024u); // 8 KB row

    EXPECT_EQ(cyclesToNs(spec.timing.tRCD), 16.0);
    EXPECT_EQ(cyclesToNs(spec.timing.tCL), 16.0);
    EXPECT_EQ(cyclesToNs(spec.timing.tRP), 36.0);   // PRAC-extended
    EXPECT_EQ(cyclesToNs(spec.timing.tWR), 10.0);   // PRAC-extended
    EXPECT_EQ(cyclesToNs(spec.timing.tRC), 52.0);
    EXPECT_EQ(cyclesToNs(spec.timing.tRFC), 410.0);
    EXPECT_EQ(cyclesToNs(spec.timing.tREFI), 3900.0);
    EXPECT_EQ(cyclesToNs(spec.timing.tRFMab), 350.0);
    EXPECT_EQ(cyclesToNs(spec.timing.tABOACT), 180.0);
}

TEST(DramSpec, Table1PracParameters)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    EXPECT_TRUE(spec.prac.nmit == 1 || spec.prac.nmit == 2 ||
                spec.prac.nmit == 4);
    EXPECT_EQ(spec.prac.aboAct, 3u);
    EXPECT_EQ(spec.prac.aboDelay(), spec.prac.nmit);
    EXPECT_EQ(spec.prac.victimsPerMitigation, 4u);
}

TEST(DramDevice, ActOpensRow)
{
    DramDevice dev(DramSpec::ddr5_8000b());
    EXPECT_FALSE(dev.isOpen(0, 0, 0));
    dev.issue(act(0, 0, 0, 7), 0);
    EXPECT_TRUE(dev.isOpen(0, 0, 0));
    EXPECT_EQ(dev.openRow(0, 0, 0), 7u);
}

TEST(DramDevice, ActToOpenBankIsIllegal)
{
    DramDevice dev(DramSpec::ddr5_8000b());
    dev.issue(act(0, 0, 0, 7), 0);
    EXPECT_EQ(dev.earliestIssue(act(0, 0, 0, 8)), kNeverCycle);
}

TEST(DramDevice, ReadRequiresMatchingRow)
{
    DramDevice dev(DramSpec::ddr5_8000b());
    dev.issue(act(0, 0, 0, 7), 0);
    EXPECT_EQ(dev.earliestIssue(rd(0, 0, 0, 8)), kNeverCycle);
    EXPECT_NE(dev.earliestIssue(rd(0, 0, 0, 7)), kNeverCycle);
}

TEST(DramDevice, TrcdGatesRead)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(act(0, 0, 0, 7), 0);
    EXPECT_EQ(dev.earliestIssue(rd(0, 0, 0, 7)), spec.timing.tRCD);
    EXPECT_FALSE(dev.canIssue(rd(0, 0, 0, 7), spec.timing.tRCD - 1));
    EXPECT_TRUE(dev.canIssue(rd(0, 0, 0, 7), spec.timing.tRCD));
}

TEST(DramDevice, TrasGatesPrecharge)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(act(0, 0, 0, 7), 0);
    EXPECT_EQ(dev.earliestIssue(pre(0, 0, 0)), spec.timing.tRAS);
}

TEST(DramDevice, TrpGatesReactivation)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(act(0, 0, 0, 7), 0);
    dev.issue(pre(0, 0, 0), spec.timing.tRAS);
    const Cycle ready = dev.earliestIssue(act(0, 0, 0, 8));
    EXPECT_EQ(ready, std::max(spec.timing.tRAS + spec.timing.tRP,
                              spec.timing.tRC));
}

TEST(DramDevice, TrcGatesSameBankActs)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(act(0, 0, 0, 7), 0);
    // Even with an instant precharge, the next ACT waits for tRC.
    dev.issue(pre(0, 0, 0), spec.timing.tRAS);
    EXPECT_GE(dev.earliestIssue(act(0, 0, 0, 9)), spec.timing.tRC);
}

TEST(DramDevice, TrrdGatesOtherBankActs)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(act(0, 0, 0, 7), 0);
    // Same bank group: tRRD_L; different group: tRRD_S.
    EXPECT_EQ(dev.earliestIssue(act(0, 0, 1, 7)), spec.timing.tRRD_L);
    EXPECT_EQ(dev.earliestIssue(act(0, 1, 0, 7)), spec.timing.tRRD_S);
}

TEST(DramDevice, FawLimitsActBursts)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    Cycle now = 0;
    // Four ACTs to different bank groups, spaced at tRRD_S.
    for (std::uint32_t bg = 0; bg < 4; ++bg) {
        const Command cmd = act(0, bg, 0, 1);
        now = dev.earliestIssue(cmd);
        dev.issue(cmd, now);
    }
    // The fifth ACT must wait for the tFAW window from the first.
    const Cycle fifth = dev.earliestIssue(act(0, 4, 0, 1));
    EXPECT_GE(fifth, spec.timing.tFAW);
}

TEST(DramDevice, RefreshBlocksOnlyItsRank)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(Command{CmdType::REFab, 1, 0, 0, 0, 0}, 0);
    EXPECT_EQ(dev.rankBlockedUntil(1), spec.timing.tRFC);
    EXPECT_GE(dev.earliestIssue(act(1, 0, 0, 5)), spec.timing.tRFC);
    EXPECT_EQ(dev.earliestIssue(act(0, 0, 0, 5)), 0u);
}

TEST(DramDevice, RfmBlocksWholeChannel)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(Command{CmdType::RFMab, 0, 0, 0, 0, 0}, 0);
    EXPECT_EQ(dev.channelBlockedUntil(), spec.timing.tRFMab);
    for (std::uint32_t rank = 0; rank < spec.org.ranks; ++rank)
        EXPECT_GE(dev.earliestIssue(act(rank, 0, 0, 5)),
                  spec.timing.tRFMab);
}

TEST(DramDevice, RfmRequiresAllBanksClosed)
{
    DramDevice dev(DramSpec::ddr5_8000b());
    dev.issue(act(2, 3, 1, 42), 0);
    EXPECT_EQ(dev.earliestIssue(Command{CmdType::RFMab, 0, 0, 0, 0, 0}),
              kNeverCycle);
}

TEST(DramDevice, ListenersSeeActivations)
{
    struct Recorder : DramListener
    {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> acts;
        int refs = 0;
        int rfms = 0;
        void
        onActivate(std::uint32_t bank, std::uint32_t row, Cycle) override
        {
            acts.emplace_back(bank, row);
        }
        void onRefresh(std::uint32_t, Cycle) override { ++refs; }
        void onRfm(Cycle) override { ++rfms; }
    };

    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    Recorder recorder;
    dev.addListener(&recorder);

    dev.issue(act(1, 2, 3, 77), 0);
    ASSERT_EQ(recorder.acts.size(), 1u);
    // Flat index: rank 1, bank-in-rank = 2*4+3 = 11 -> 32 + 11 = 43.
    EXPECT_EQ(recorder.acts[0].first, 43u);
    EXPECT_EQ(recorder.acts[0].second, 77u);

    dev.issue(pre(1, 2, 3), spec.timing.tRAS);
    dev.issue(Command{CmdType::REFab, 0, 0, 0, 0, 0},
              spec.timing.tRAS + spec.timing.tRP);
    EXPECT_EQ(recorder.refs, 1);

    const Cycle rfm_at =
        dev.earliestIssue(Command{CmdType::RFMab, 0, 0, 0, 0, 0});
    dev.issue(Command{CmdType::RFMab, 0, 0, 0, 0, 0}, rfm_at);
    EXPECT_EQ(recorder.rfms, 1);
}

TEST(DramDevice, IssueCountsTrack)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    dev.issue(act(0, 0, 0, 1), 0);
    dev.issue(rd(0, 0, 0, 1), spec.timing.tRCD);
    EXPECT_EQ(dev.issueCount(CmdType::ACT), 1u);
    EXPECT_EQ(dev.issueCount(CmdType::RD), 1u);
    EXPECT_EQ(dev.issueCount(CmdType::WR), 0u);
}

TEST(DramDevice, ReadLatencyIsClPlusBurst)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    DramDevice dev(spec);
    EXPECT_EQ(dev.readDoneAt(100),
              100 + spec.timing.tCL + spec.timing.tBL);
}

/**
 * The lower-bound property behind the controller's cached bounds
 * (src/mem/DESIGN.md): timing limits only move later as commands
 * issue.  Random legal command streams run on every registered spec;
 * after each issue, every bank whose open state and row it left alone
 * must report no earlier earliestIssue() for a fixed ACT, PRE, RD or
 * WR than before the issue.
 */
TEST(DramDevice, EarliestIssueNeverDecreasesWhileBankStateHolds)
{
    for (const std::string &name : specNames()) {
        const DramSpec spec = specByName(name);
        const DramOrg &org = spec.org;
        DramDevice dev(spec);
        Rng rng(0xB0B5ULL + org.totalBanks());

        struct Probe
        {
            bool open;
            std::uint32_t row;
            std::array<Cycle, 4> at;
        };
        auto coords = [&](std::uint32_t flat) {
            const std::uint32_t in_rank = flat % org.banksPerRank();
            return std::array<std::uint32_t, 3>{
                flat / org.banksPerRank(), in_rank / org.banksPerGroup,
                in_rank % org.banksPerGroup};
        };
        auto probe = [&](std::uint32_t flat) {
            const auto [r, bg, b] = coords(flat);
            Probe p{dev.isOpen(r, bg, b), dev.openRow(r, bg, b), {}};
            const std::uint32_t row = p.open ? p.row : 0;
            p.at = {dev.earliestIssue(act(r, bg, b, 3)),
                    dev.earliestIssue(pre(r, bg, b)),
                    dev.earliestIssue(rd(r, bg, b, row)),
                    dev.earliestIssue(
                        Command{CmdType::WR, r, bg, b, row, 0})};
            return p;
        };

        // Hot banks in two bank groups of the outer ranks: same- and
        // cross-group pairs keep tRRD, tFAW, tCCD and bus turnaround
        // limits binding; the other banks serve as closed probes.
        std::vector<std::uint32_t> hot;
        for (const std::uint32_t r : {0u, org.ranks - 1})
            for (std::uint32_t in_rank : {0u, 1u, org.banksPerGroup,
                                          org.banksPerGroup + 1})
                hot.push_back(org.flatBank(r, in_rank));

        Cycle now = 0;
        std::uint64_t issued = 0;
        std::uint64_t checked = 0;
        std::string first_failure;
        std::vector<Probe> before(org.totalBanks());
        auto issue_checked = [&](const Command &cmd) {
            for (std::uint32_t f = 0; f < org.totalBanks(); ++f)
                before[f] = probe(f);
            now = std::max(now, dev.earliestIssue(cmd)) + rng.range(3);
            dev.issue(cmd, now);
            ++issued;
            for (std::uint32_t f = 0; f < org.totalBanks(); ++f) {
                const Probe after = probe(f);
                if (after.open != before[f].open ||
                    after.row != before[f].row)
                    continue;
                for (std::size_t k = 0; k < after.at.size(); ++k) {
                    ++checked;
                    if (after.at[k] < before[f].at[k] &&
                        first_failure.empty())
                        first_failure =
                            name + ": bank " + std::to_string(f) +
                            " probe " + std::to_string(k) +
                            " moved earlier after " + cmd.str() +
                            " at " + std::to_string(now);
                }
            }
        };

        for (int step = 0; step < 6000; ++step) {
            const std::uint32_t flat = hot[rng.range(hot.size())];
            const auto [r, bg, b] = coords(flat);
            const bool open = dev.isOpen(r, bg, b);
            const std::uint64_t pick = rng.range(100);
            if (pick < 4) {
                // REF, RFMab or RFMpb, after closing the banks in its
                // scope -- each PRE a checked issue of its own.
                const Command cmd =
                    pick < 2   ? Command{CmdType::REFab, r, 0, 0, 0, 0}
                    : pick < 3 ? Command{CmdType::RFMab, 0, 0, 0, 0, 0}
                               : Command{CmdType::RFMpb, r, bg, b, 0, 0};
                for (const std::uint32_t h : hot) {
                    const auto [hr, hbg, hb] = coords(h);
                    const bool in_scope =
                        cmd.type == CmdType::RFMab ||
                        (cmd.type == CmdType::REFab && hr == r) ||
                        h == flat;
                    if (in_scope && dev.isOpen(hr, hbg, hb))
                        issue_checked(pre(hr, hbg, hb));
                }
                issue_checked(cmd);
            } else if (!open) {
                issue_checked(
                    act(r, bg, b, static_cast<std::uint32_t>(rng.range(4))));
            } else if (pick < 40) {
                issue_checked(pre(r, bg, b));
            } else {
                issue_checked(Command{
                    rng.chance(0.5) ? CmdType::WR : CmdType::RD, r, bg, b,
                    dev.openRow(r, bg, b), 0});
            }
        }
        EXPECT_TRUE(first_failure.empty()) << first_failure;
        EXPECT_GT(issued, 1000u) << name;
        EXPECT_GT(checked, 0u) << name;
        for (CmdType type : {CmdType::ACT, CmdType::PRE, CmdType::RD,
                             CmdType::WR, CmdType::REFab, CmdType::RFMab,
                             CmdType::RFMpb})
            EXPECT_GT(dev.issueCount(type), 0u)
                << name << " never issued " << cmdName(type);
    }
}

} // namespace
} // namespace pracleak
