#include "dram/dram.h"

#include <algorithm>

#include "common/log.h"

namespace pracleak {

DramDevice::DramDevice(const DramSpec &spec)
    : spec_(spec),
      banks_(spec.org.totalBanks()),
      ranks_(spec.org.ranks)
{
    for (auto &rank : ranks_) {
        rank.actTimes.fill(kNeverCycle);
        rank.lastActByBg.assign(spec_.org.bankGroups, kNeverCycle);
        rank.nextCasByBg.assign(spec_.org.bankGroups, 0);
    }
}

void
DramDevice::addListener(DramListener *listener)
{
    listeners_.push_back(listener);
}

bool
DramDevice::anyOpenInRank(std::uint32_t rank) const
{
    const std::size_t begin = bankIndex(rank, 0, 0);
    const std::size_t end = begin + spec_.org.banksPerRank();
    for (std::size_t i = begin; i < end; ++i)
        if (banks_[i].open)
            return true;
    return false;
}

bool
DramDevice::anyOpen() const
{
    return std::any_of(banks_.begin(), banks_.end(),
                       [](const BankState &b) { return b.open; });
}

Cycle
DramDevice::rankBlockedUntil(std::uint32_t rank) const
{
    return ranks_[rank].blockedUntil;
}

Cycle
DramDevice::earliestIssue(const Command &cmd) const
{
    switch (cmd.type) {
      case CmdType::ACT:
      case CmdType::PRE:
      case CmdType::RD:
      case CmdType::WR:
        return std::max(bankReadyAt(cmd),
                        sharedReadyAt(cmd.type, cmd.rank, cmd.bankGroup));
      case CmdType::REFab: return earliestRef(cmd);
      case CmdType::RFMab: return earliestRfm();
      case CmdType::RFMpb: return earliestRfmPb(cmd);
    }
    return kNeverCycle;
}

bool
DramDevice::canIssue(const Command &cmd, Cycle now) const
{
    const Cycle earliest = earliestIssue(cmd);
    return earliest != kNeverCycle && earliest <= now;
}

Cycle
DramDevice::earliestRef(const Command &cmd) const
{
    if (anyOpenInRank(cmd.rank))
        return kNeverCycle;

    const RankState &rank = ranks_[cmd.rank];
    Cycle t = std::max(rank.blockedUntil, channelBlockedUntil_);
    // All banks must have completed their precharges.
    const std::size_t begin = bankIndex(cmd.rank, 0, 0);
    const std::size_t end = begin + spec_.org.banksPerRank();
    for (std::size_t i = begin; i < end; ++i)
        t = std::max(t, banks_[i].nextAct);
    return t;
}

Cycle
DramDevice::earliestRfm() const
{
    if (anyOpen())
        return kNeverCycle;

    Cycle t = channelBlockedUntil_;
    for (const auto &rank : ranks_)
        t = std::max(t, rank.blockedUntil);
    for (const auto &bank : banks_)
        t = std::max(t, bank.nextAct);
    return t;
}

void
DramDevice::issue(const Command &cmd, Cycle now)
{
    if (!canIssue(cmd, now))
        panic("illegal command issue at cycle " + std::to_string(now) +
              ": " + cmd.str());

    switch (cmd.type) {
      case CmdType::ACT: issueAct(cmd, now); break;
      case CmdType::PRE: issuePre(cmd, now); break;
      case CmdType::RD: issueCas(cmd, now, true); break;
      case CmdType::WR: issueCas(cmd, now, false); break;
      case CmdType::REFab: issueRef(cmd, now); break;
      case CmdType::RFMab: issueRfm(now); break;
      case CmdType::RFMpb: issueRfmPb(cmd, now); break;
    }

    ++issueCounts_[static_cast<std::size_t>(cmd.type)];
    if (traceSink_)
        traceSink_(cmd, now);
}

void
DramDevice::issueAct(const Command &cmd, Cycle now)
{
    BankState &bank = bankOf(cmd);
    bank.open = true;
    bank.row = cmd.row;
    bank.nextRd = now + spec_.timing.tRCD;
    bank.nextWr = now + spec_.timing.tRCD;
    bank.nextPre = now + spec_.timing.tRAS;
    bank.nextAct = now + spec_.timing.tRC;

    RankState &rank = ranks_[cmd.rank];
    rank.actTimes[rank.actPtr] = now;
    rank.actPtr = (rank.actPtr + 1) % rank.actTimes.size();
    rank.lastActAny = now;
    rank.lastActByBg[cmd.bankGroup] = now;

    const std::uint32_t flat = spec_.org.flatBank(
        cmd.rank, cmd.bankGroup * spec_.org.banksPerGroup + cmd.bank);
    for (auto *listener : listeners_)
        listener->onActivate(flat, cmd.row, now);
}

void
DramDevice::issuePre(const Command &cmd, Cycle now)
{
    BankState &bank = bankOf(cmd);
    bank.open = false;
    bank.nextAct = std::max(bank.nextAct, now + spec_.timing.tRP);
}

void
DramDevice::issueCas(const Command &cmd, Cycle now, bool is_read)
{
    BankState &bank = bankOf(cmd);
    RankState &rank = ranks_[cmd.rank];

    rank.nextCasAny = now + spec_.timing.tCCD_S;
    rank.nextCasByBg[cmd.bankGroup] = now + spec_.timing.tCCD_L;

    if (is_read) {
        const Cycle data_end = now + spec_.timing.readLatency();
        busFreeAt_ = data_end;
        bank.nextPre = std::max(bank.nextPre, now + spec_.timing.tRTP);
        busWrAllowedAt_ =
            std::max(busWrAllowedAt_, data_end + spec_.timing.tRTW);
    } else {
        const Cycle data_end = now + spec_.timing.writeLatency();
        busFreeAt_ = data_end;
        bank.nextPre =
            std::max(bank.nextPre, data_end + spec_.timing.tWR);
        busRdAllowedAt_ =
            std::max(busRdAllowedAt_, data_end + spec_.timing.tRTW);
        rank.rdAllowedAt =
            std::max(rank.rdAllowedAt, data_end + spec_.timing.tWTR);
    }
}

void
DramDevice::issueRef(const Command &cmd, Cycle now)
{
    RankState &rank = ranks_[cmd.rank];
    rank.blockedUntil = now + spec_.timing.tRFC;

    const std::size_t begin = bankIndex(cmd.rank, 0, 0);
    const std::size_t end = begin + spec_.org.banksPerRank();
    for (std::size_t i = begin; i < end; ++i)
        banks_[i].nextAct = std::max(banks_[i].nextAct, rank.blockedUntil);

    for (auto *listener : listeners_)
        listener->onRefresh(cmd.rank, now);
}

Cycle
DramDevice::earliestRfmPb(const Command &cmd) const
{
    // Only the addressed bank must be closed and idle.
    const BankState &bank = bankOf(cmd);
    if (bank.open)
        return kNeverCycle;
    return std::max({bank.nextAct, ranks_[cmd.rank].blockedUntil,
                     channelBlockedUntil_});
}

void
DramDevice::issueRfmPb(const Command &cmd, Cycle now)
{
    BankState &bank = bankOf(cmd);
    bank.nextAct = std::max(bank.nextAct, now + spec_.timing.tRFMpb);

    const std::uint32_t flat = spec_.org.flatBank(
        cmd.rank, cmd.bankGroup * spec_.org.banksPerGroup + cmd.bank);
    for (auto *listener : listeners_)
        listener->onRfmPb(flat, now);
}

void
DramDevice::issueRfm(Cycle now)
{
    channelBlockedUntil_ = now + spec_.timing.tRFMab;
    for (auto &bank : banks_)
        bank.nextAct = std::max(bank.nextAct, channelBlockedUntil_);

    for (auto *listener : listeners_)
        listener->onRfm(now);
}

} // namespace pracleak
