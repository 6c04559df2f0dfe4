/**
 * @file
 * Unit tests for the DDR5 device model: spec defaults (Tables 1 and
 * 3), per-bank state, enforcement of every timing constraint, the
 * monotonicity of earliestIssue(), and its split into a bank part and
 * a shared part that the controller's demand scan rests on.
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

/** Flat bank @p flat as (rank, bank group, bank). */
std::array<std::uint32_t, 3>
coordsOf(const DramOrg &org, std::uint32_t flat)
{
    const std::uint32_t in_rank = flat % org.banksPerRank();
    return {flat / org.banksPerRank(), in_rank / org.banksPerGroup,
            in_rank % org.banksPerGroup};
}

/**
 * The ACT, PRE, RD and WR probes of flat bank @p flat: a fixed row for
 * the ACT, the open row (0 when closed) for the CAS.
 */
std::array<Command, 4>
probesOf(const DramDevice &dev, std::uint32_t flat)
{
    const auto [r, bg, b] = coordsOf(dev.spec().org, flat);
    const std::uint32_t row = dev.isOpen(r, bg, b) ? dev.openRow(r, bg, b)
                                                   : 0;
    return {act(r, bg, b, 3), pre(r, bg, b), rd(r, bg, b, row),
            Command{CmdType::WR, r, bg, b, row, 0}};
}

/**
 * A random legal command stream of @p steps steps on @p dev, each
 * command handed to @p issue, which must issue it at a legal cycle.
 * Hot banks in two bank groups of the outer ranks: same- and
 * cross-group pairs keep tRRD, tFAW, tCCD and bus turnaround limits
 * binding; the other banks serve as closed probes.  About 4% of the
 * steps are a REF, RFMab or RFMpb, after closing the banks in its
 * scope -- each PRE handed to @p issue on its own.
 */
template <typename Issue>
void
randomLegalStream(const DramDevice &dev, Rng &rng, int steps, Issue issue)
{
    const DramOrg &org = dev.spec().org;
    std::vector<std::uint32_t> hot;
    for (const std::uint32_t r : {0u, org.ranks - 1})
        for (std::uint32_t in_rank : {0u, 1u, org.banksPerGroup,
                                      org.banksPerGroup + 1})
            hot.push_back(org.flatBank(r, in_rank));

    for (int step = 0; step < steps; ++step) {
        const std::uint32_t flat = hot[rng.range(hot.size())];
        const auto [r, bg, b] = coordsOf(org, flat);
        const bool open = dev.isOpen(r, bg, b);
        const std::uint64_t pick = rng.range(100);
        if (pick < 4) {
            const Command cmd =
                pick < 2   ? Command{CmdType::REFab, r, 0, 0, 0, 0}
                : pick < 3 ? Command{CmdType::RFMab, 0, 0, 0, 0, 0}
                           : Command{CmdType::RFMpb, r, bg, b, 0, 0};
            for (const std::uint32_t h : hot) {
                const auto [hr, hbg, hb] = coordsOf(org, h);
                const bool in_scope =
                    cmd.type == CmdType::RFMab ||
                    (cmd.type == CmdType::REFab && hr == r) || h == flat;
                if (in_scope && dev.isOpen(hr, hbg, hb))
                    issue(pre(hr, hbg, hb));
            }
            issue(cmd);
        } else if (!open) {
            issue(act(r, bg, b, static_cast<std::uint32_t>(rng.range(4))));
        } else if (pick < 40) {
            issue(pre(r, bg, b));
        } else {
            issue(Command{rng.chance(0.5) ? CmdType::WR : CmdType::RD, r,
                          bg, b, dev.openRow(r, bg, b), 0});
        }
    }
}

/** Every command type went through @p dev at least once. */
void
expectEveryCommandIssued(const DramDevice &dev, const std::string &name)
{
    for (CmdType type : {CmdType::ACT, CmdType::PRE, CmdType::RD,
                         CmdType::WR, CmdType::REFab, CmdType::RFMab,
                         CmdType::RFMpb})
        EXPECT_GT(dev.issueCount(type), 0u)
            << name << " never issued " << cmdName(type);
}

/**
 * Timing limits only move later as commands issue: after each issue,
 * every bank whose open state and row it left alone must report no
 * earlier earliestIssue() for a fixed ACT, PRE, RD or WR than before
 * the issue.  The controller no longer rests on this (it caches bank
 * parts, which are exact: see the next test), so this pins a property
 * of the device model, checked on random legal command streams for
 * every registered spec.
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
        auto probe = [&](std::uint32_t flat) {
            const auto [r, bg, b] = coordsOf(org, flat);
            Probe p{dev.isOpen(r, bg, b), dev.openRow(r, bg, b), {}};
            const std::array<Command, 4> cmds = probesOf(dev, flat);
            for (std::size_t k = 0; k < cmds.size(); ++k)
                p.at[k] = dev.earliestIssue(cmds[k]);
            return p;
        };

        Cycle now = 0;
        std::uint64_t issued = 0;
        std::uint64_t checked = 0;
        std::string first_failure;
        std::vector<Probe> before(org.totalBanks());
        randomLegalStream(dev, rng, 6000, [&](const Command &cmd) {
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
        });
        EXPECT_TRUE(first_failure.empty()) << first_failure;
        EXPECT_GT(issued, 1000u) << name;
        EXPECT_GT(checked, 0u) << name;
        expectEveryCommandIssued(dev, name);
    }
}

/**
 * The split the controller's demand scan rests on (src/mem/DESIGN.md,
 * "Cached bank parts"), on random legal command streams for every
 * registered spec:
 *  - every ACT, PRE, RD and WR probe on every bank has earliestIssue()
 *    == max(bankReadyAt(), sharedReadyAt()), and its class floor
 *    (casChannelReadyAt(), actRankReadyAt()) never exceeds its shared
 *    part;
 *  - a bank part read before a command stays exact in the max with the
 *    shared part after it, on every bank the command did not address
 *    (REFab and RFMab address none).
 * The stream must also show both halves of the invalidation rule: a
 * REFab or RFMab moves the bank parts of banks it does not address
 * (so the max is needed), and an RFMpb leaves its own bank's old part
 * short of the truth (so the controller must drop its candidates).
 */
TEST(DramDevice, BankAndSharedPartsComposeEarliestIssue)
{
    for (const std::string &name : specNames()) {
        const DramSpec spec = specByName(name);
        const DramOrg &org = spec.org;
        DramDevice dev(spec);
        Rng rng(0x5B17ULL + org.totalBanks());

        struct Parts
        {
            std::array<Cycle, 4> bank;
            std::array<Cycle, 4> shared;
            std::array<Cycle, 4> at;
        };
        std::string first_failure;
        auto fail = [&](const std::string &what) {
            if (first_failure.empty())
                first_failure = name + ": " + what;
        };
        auto parts = [&](std::uint32_t flat) {
            Parts p{};
            const std::array<Command, 4> cmds = probesOf(dev, flat);
            for (std::size_t k = 0; k < cmds.size(); ++k) {
                const Command &c = cmds[k];
                p.bank[k] = dev.bankReadyAt(c);
                p.shared[k] = dev.sharedReadyAt(c.type, c.rank, c.bankGroup);
                p.at[k] = dev.earliestIssue(c);
                if (p.at[k] != std::max(p.bank[k], p.shared[k]))
                    fail(c.str() + " is not the max of its parts");
                const Cycle floor =
                    c.type == CmdType::ACT ? dev.actRankReadyAt(c.rank)
                    : c.type == CmdType::PRE
                        ? dev.channelBlockedUntil()
                        : dev.casChannelReadyAt(c.type == CmdType::RD);
                if (floor > p.shared[k])
                    fail(c.str() + " lies below its class floor");
            }
            return p;
        };

        Cycle now = 0;
        std::uint64_t checked = 0;
        std::uint64_t moved_unaddressed = 0;
        std::uint64_t rfmpb_stale = 0;
        std::vector<Parts> before(org.totalBanks());
        randomLegalStream(dev, rng, 6000, [&](const Command &cmd) {
            for (std::uint32_t f = 0; f < org.totalBanks(); ++f)
                before[f] = parts(f);
            now = std::max(now, dev.earliestIssue(cmd)) + rng.range(3);
            dev.issue(cmd, now);
            const bool addresses_bank = cmd.type != CmdType::REFab &&
                                        cmd.type != CmdType::RFMab;
            const std::uint32_t addressed = org.flatBank(
                cmd.rank, cmd.bankGroup * org.banksPerGroup + cmd.bank);
            for (std::uint32_t f = 0; f < org.totalBanks(); ++f) {
                const Parts after = parts(f);
                for (std::size_t k = 0; k < after.at.size(); ++k) {
                    const Cycle cached =
                        std::max(before[f].bank[k], after.shared[k]);
                    if (addresses_bank && f == addressed) {
                        rfmpb_stale += cmd.type == CmdType::RFMpb &&
                                       cached != after.at[k];
                        continue;
                    }
                    ++checked;
                    moved_unaddressed += before[f].bank[k] != after.bank[k];
                    if (cached != after.at[k])
                        fail("bank " + std::to_string(f) + " probe " +
                             std::to_string(k) + " went stale after " +
                             cmd.str() + " at " + std::to_string(now));
                }
            }
        });
        EXPECT_TRUE(first_failure.empty()) << first_failure;
        EXPECT_GT(checked, 0u) << name;
        EXPECT_GT(moved_unaddressed, 0u) << name;
        EXPECT_GT(rfmpb_stale, 0u) << name;
        expectEveryCommandIssued(dev, name);
    }
}

} // namespace
} // namespace pracleak
