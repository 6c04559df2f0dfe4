/**
 * @file
 * Cycle-level model of one DDR5 channel.
 *
 * The device tracks per-bank row state, per-rank ACT/CAS history, and
 * channel-level data-bus / blocking state, and enforces every timing
 * constraint in DramTiming.  The memory controller asks
 * earliestIssue() when it may legally send a command and then calls
 * issue(); issuing too early is a simulator bug (panic), not a
 * recoverable error.
 *
 * The legality of an ACT, PRE, RD or WR splits into two parts whose
 * max is earliestIssue(): the addressed bank's own limits
 * (bankReadyAt()) and a gate shared by every bank of the rank or
 * channel (sharedReadyAt()).  Only a command to the bank moves the
 * first, so the controller caches it per bank and reads the shared
 * gate live (src/mem/DESIGN.md, "Cached bank parts").
 *
 * PRAC bookkeeping (per-row counters, Alert Back-Off) is layered on
 * top through the DramListener interface so the device model stays a
 * pure timing engine.
 */

#ifndef PRACLEAK_DRAM_DRAM_H
#define PRACLEAK_DRAM_DRAM_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "dram/command.h"
#include "dram/dram_spec.h"

namespace pracleak {

/**
 * Observer interface for in-DRAM maintenance logic (PRAC, TREF).
 * Callbacks fire at command-issue time.
 */
class DramListener
{
  public:
    virtual ~DramListener() = default;

    /** A row was activated. @param flat_bank channel-wide bank index. */
    virtual void onActivate(std::uint32_t flat_bank, std::uint32_t row,
                            Cycle now) = 0;

    /** An all-bank refresh started on @p rank. */
    virtual void onRefresh(std::uint32_t rank, Cycle now) = 0;

    /** An RFMab started (affects every bank in the channel). */
    virtual void onRfm(Cycle now) = 0;

    /**
     * An RFMpb started on one bank (Section-7.2 extension).  Default
     * no-op so existing listeners stay source-compatible.
     */
    virtual void onRfmPb(std::uint32_t /*flat_bank*/, Cycle /*now*/) {}
};

/** One DDR5 channel with full timing-state tracking. */
class DramDevice
{
  public:
    explicit DramDevice(const DramSpec &spec);

    const DramSpec &spec() const { return spec_; }

    /** Register an observer (not owned). */
    void addListener(DramListener *listener);

    /**
     * Earliest cycle at which @p cmd could legally issue, considering
     * every timing and structural constraint.  Returns kNeverCycle if
     * the command is structurally illegal right now (e.g. ACT to a
     * bank with an open row).
     */
    Cycle earliestIssue(const Command &cmd) const;

    /**
     * The addressed bank's own limit on an ACT, PRE, RD or WR:
     * kNeverCycle when the command is structurally illegal (ACT to an
     * open bank, PRE to a closed one, CAS to a row that is not open).
     * Only a command to the bank itself (ACT, PRE, RD, WR, RFMpb)
     * changes it.  A REFab or RFMab raises it no further than a block
     * time sharedReadyAt() already contains, so a value read before
     * either stays exact in the max with the current shared gate.
     */
    Cycle bankReadyAt(const Command &cmd) const;

    /**
     * The rank- and channel-wide limits on an ACT, PRE, RD or WR to
     * bank group @p bg of @p rank: for every such @p cmd,
     * earliestIssue(cmd) == max(bankReadyAt(cmd), sharedReadyAt(
     * cmd.type, cmd.rank, cmd.bankGroup)).
     */
    Cycle sharedReadyAt(CmdType type, std::uint32_t rank,
                        std::uint32_t bg) const;

    /**
     * The part of sharedReadyAt() common to every RD (or WR) of the
     * channel: the RFMab block, the bus turnaround and the data bus.
     */
    Cycle casChannelReadyAt(bool is_read) const;

    /**
     * The part of sharedReadyAt() common to every ACT of @p rank: the
     * REFab and RFMab blocks, tFAW and tRRD_S.
     */
    Cycle actRankReadyAt(std::uint32_t rank) const;

    /** True if @p cmd may issue exactly at @p now. */
    bool canIssue(const Command &cmd, Cycle now) const;

    /** Issue @p cmd at @p now; panics if canIssue() would be false. */
    void issue(const Command &cmd, Cycle now);

    /** Whether the given bank has an open row. */
    bool
    isOpen(std::uint32_t rank, std::uint32_t bg, std::uint32_t bank) const
    {
        return banks_[bankIndex(rank, bg, bank)].open;
    }

    /** Open row of a bank (only valid when isOpen()). */
    std::uint32_t
    openRow(std::uint32_t rank, std::uint32_t bg, std::uint32_t bank) const
    {
        return banks_[bankIndex(rank, bg, bank)].row;
    }

    /** Channel blocked (RFMab in flight) until this cycle. */
    Cycle channelBlockedUntil() const { return channelBlockedUntil_; }

    /** Rank blocked (REFab in flight) until this cycle. */
    Cycle rankBlockedUntil(std::uint32_t rank) const;

    /**
     * Completion time of a read issued at @p issue_cycle (last data
     * beat on the bus).
     */
    Cycle readDoneAt(Cycle issue_cycle) const
    {
        return issue_cycle + spec_.timing.readLatency();
    }

    /** Optional sink receiving every issued command (for checkers). */
    void setTraceSink(std::function<void(const Command &, Cycle)> sink)
    {
        traceSink_ = std::move(sink);
    }

    /** Number of commands issued so far, by opcode. */
    std::uint64_t issueCount(CmdType type) const
    {
        return issueCounts_[static_cast<std::size_t>(type)];
    }

  private:
    struct BankState
    {
        bool open = false;
        std::uint32_t row = 0;
        Cycle nextAct = 0;
        Cycle nextPre = 0;
        Cycle nextRd = 0;
        Cycle nextWr = 0;
    };

    struct RankState
    {
        Cycle blockedUntil = 0;             //!< REFab
        std::array<Cycle, 4> actTimes{};    //!< tFAW ring buffer
        std::size_t actPtr = 0;
        Cycle lastActAny = kNeverCycle;     //!< tRRD_S reference
        std::vector<Cycle> lastActByBg;     //!< tRRD_L reference
        Cycle nextCasAny = 0;               //!< tCCD_S gate
        std::vector<Cycle> nextCasByBg;     //!< tCCD_L gate
        Cycle rdAllowedAt = 0;              //!< tWTR gate (same rank)
    };

    std::size_t
    bankIndex(std::uint32_t rank, std::uint32_t bg,
              std::uint32_t bank) const
    {
        return (static_cast<std::size_t>(rank) * spec_.org.bankGroups +
                bg) * spec_.org.banksPerGroup +
               bank;
    }
    const BankState &
    bankOf(const Command &cmd) const
    {
        return banks_[bankIndex(cmd.rank, cmd.bankGroup, cmd.bank)];
    }
    BankState &
    bankOf(const Command &cmd)
    {
        return banks_[bankIndex(cmd.rank, cmd.bankGroup, cmd.bank)];
    }

    /** Whether any bank in @p rank has an open row. */
    bool anyOpenInRank(std::uint32_t rank) const;

    /** Whether any bank in the channel has an open row. */
    bool anyOpen() const;

    Cycle earliestRef(const Command &cmd) const;
    Cycle earliestRfm() const;
    Cycle earliestRfmPb(const Command &cmd) const;

    void issueAct(const Command &cmd, Cycle now);
    void issuePre(const Command &cmd, Cycle now);
    void issueCas(const Command &cmd, Cycle now, bool is_read);
    void issueRef(const Command &cmd, Cycle now);
    void issueRfm(Cycle now);
    void issueRfmPb(const Command &cmd, Cycle now);

    DramSpec spec_;
    std::vector<BankState> banks_;      //!< [rank][bg][bank] flattened
    std::vector<RankState> ranks_;
    Cycle channelBlockedUntil_ = 0;
    Cycle busFreeAt_ = 0;
    Cycle busRdAllowedAt_ = 0;  //!< WR -> RD turnaround (channel-wide)
    Cycle busWrAllowedAt_ = 0;  //!< RD -> WR turnaround (channel-wide)
    std::vector<DramListener *> listeners_;
    std::function<void(const Command &, Cycle)> traceSink_;
    std::array<std::uint64_t, 7> issueCounts_{};
};

// The split parts are inline: the controller's demand scan reads
// them for every candidate it walks.

inline Cycle
DramDevice::bankReadyAt(const Command &cmd) const
{
    const BankState &bank = bankOf(cmd);
    switch (cmd.type) {
      case CmdType::ACT: return bank.open ? kNeverCycle : bank.nextAct;
      case CmdType::PRE: return bank.open ? bank.nextPre : kNeverCycle;
      case CmdType::RD:
      case CmdType::WR:
        if (!bank.open || bank.row != cmd.row)
            return kNeverCycle;
        return cmd.type == CmdType::RD ? bank.nextRd : bank.nextWr;
      default: return kNeverCycle;
    }
}

inline Cycle
DramDevice::casChannelReadyAt(bool is_read) const
{
    Cycle t = std::max(channelBlockedUntil_,
                       is_read ? busRdAllowedAt_ : busWrAllowedAt_);
    // The data bus must be free when the burst's data would start.
    const Cycle data_lead =
        is_read ? spec_.timing.tCL : spec_.timing.tCWL;
    if (busFreeAt_ > data_lead)
        t = std::max(t, busFreeAt_ - data_lead);
    return t;
}

inline Cycle
DramDevice::actRankReadyAt(std::uint32_t rank_index) const
{
    const RankState &rank = ranks_[rank_index];
    Cycle t = std::max(rank.blockedUntil, channelBlockedUntil_);
    // tFAW: at most four ACTs per rank per window.
    const Cycle oldest = rank.actTimes[rank.actPtr];
    if (oldest != kNeverCycle)
        t = std::max(t, oldest + spec_.timing.tFAW);
    // tRRD_S: ACT-to-ACT spacing within the rank.
    if (rank.lastActAny != kNeverCycle)
        t = std::max(t, rank.lastActAny + spec_.timing.tRRD_S);
    return t;
}

inline Cycle
DramDevice::sharedReadyAt(CmdType type, std::uint32_t rank_index,
                          std::uint32_t bg) const
{
    const RankState &rank = ranks_[rank_index];
    switch (type) {
      case CmdType::ACT: {
        const Cycle t = actRankReadyAt(rank_index);
        const Cycle last_same_bg = rank.lastActByBg[bg];
        return last_same_bg == kNeverCycle
                   ? t
                   : std::max(t, last_same_bg + spec_.timing.tRRD_L);
      }
      case CmdType::PRE:
        return std::max(rank.blockedUntil, channelBlockedUntil_);
      case CmdType::RD:
      case CmdType::WR: {
        const bool is_read = type == CmdType::RD;
        // The bus direction changes channel-wide; tWTR additionally
        // gates same-rank reads after a write.
        return std::max({casChannelReadyAt(is_read), rank.blockedUntil,
                         rank.nextCasAny, rank.nextCasByBg[bg],
                         is_read ? rank.rdAllowedAt : Cycle{0}});
      }
      default: return kNeverCycle;
    }
}

} // namespace pracleak

#endif // PRACLEAK_DRAM_DRAM_H
