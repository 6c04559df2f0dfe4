#include "dram/timing_checker.h"

#include <algorithm>
#include <sstream>

namespace pracleak {

namespace {

/** The largest minimum gap among the rules observe() checks. */
Cycle
longestRule(const DramTiming &t)
{
    return std::max({t.tRC, t.tRRD_S, t.tRRD_L, t.tFAW, t.tRP, t.tRFC,
                     t.tRFMab, t.tRFMpb, t.tRAS, t.tRTP,
                     t.writeLatency() + t.tWR, t.tRCD, t.tCCD_S,
                     t.tCCD_L, t.writeLatency() + t.tRTW,
                     t.writeLatency() + t.tWTR,
                     t.readLatency() + t.tRTW});
}

} // namespace

TimingChecker::TimingChecker(const DramSpec &spec)
    : spec_(spec),
      window_(longestRule(spec.timing)),
      open_(spec.org.totalBanks(), false),
      openRow_(spec.org.totalBanks(), 0)
{
}

bool
TimingChecker::sameBank(const Command &a, const Command &b) const
{
    return a.rank == b.rank && a.bankGroup == b.bankGroup &&
           a.bank == b.bank;
}

bool
TimingChecker::sameRank(const Command &a, const Command &b) const
{
    return a.rank == b.rank;
}

bool
TimingChecker::sameBankGroup(const Command &a, const Command &b) const
{
    return a.rank == b.rank && a.bankGroup == b.bankGroup;
}

void
TimingChecker::fail(const std::string &what, const Command &cmd,
                    Cycle now)
{
    std::ostringstream os;
    os << what << " at cycle " << now << " for " << cmd.str();
    violations_.push_back(os.str());
}

void
TimingChecker::require(bool ok, const std::string &what,
                       const Command &cmd, Cycle now)
{
    if (!ok)
        fail(what, cmd, now);
}

void
TimingChecker::observe(const Command &cmd, Cycle now)
{
    const DramTiming &t = spec_.timing;
    const std::size_t flat =
        (static_cast<std::size_t>(cmd.rank) * spec_.org.bankGroups +
         cmd.bankGroup) *
            spec_.org.banksPerGroup +
        cmd.bank;

    // Pairwise distance checks against the history, which is in
    // issue order: drop what has aged out of every rule first.
    while (!history_.empty() && now - history_.front().at >= window_)
        history_.pop_front();
    std::uint32_t acts_in_faw = 0;
    for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
        const Command &prev = it->cmd;
        const Cycle gap = now - it->at;

        switch (cmd.type) {
          case CmdType::ACT:
            if (prev.type == CmdType::ACT && sameBank(prev, cmd))
                require(gap >= t.tRC, "tRC", cmd, now);
            if (prev.type == CmdType::ACT && sameRank(prev, cmd)) {
                require(gap >= t.tRRD_S, "tRRD_S", cmd, now);
                if (gap < t.tFAW)
                    ++acts_in_faw;
            }
            if (prev.type == CmdType::ACT && sameBankGroup(prev, cmd))
                require(gap >= t.tRRD_L, "tRRD_L", cmd, now);
            if (prev.type == CmdType::PRE && sameBank(prev, cmd))
                require(gap >= t.tRP, "tRP", cmd, now);
            if (prev.type == CmdType::REFab && sameRank(prev, cmd))
                require(gap >= t.tRFC, "tRFC", cmd, now);
            if (prev.type == CmdType::RFMab)
                require(gap >= t.tRFMab, "tRFMab-block", cmd, now);
            if (prev.type == CmdType::RFMpb && sameBank(prev, cmd))
                require(gap >= t.tRFMpb, "tRFMpb-block", cmd, now);
            break;

          case CmdType::PRE:
            if (prev.type == CmdType::ACT && sameBank(prev, cmd))
                require(gap >= t.tRAS, "tRAS", cmd, now);
            if (prev.type == CmdType::RD && sameBank(prev, cmd))
                require(gap >= t.tRTP, "tRTP", cmd, now);
            if (prev.type == CmdType::WR && sameBank(prev, cmd))
                require(gap >= t.writeLatency() + t.tWR, "tWR", cmd,
                        now);
            break;

          case CmdType::RD:
          case CmdType::WR: {
            const bool is_read = cmd.type == CmdType::RD;
            if (prev.type == CmdType::ACT && sameBank(prev, cmd))
                require(gap >= t.tRCD, "tRCD", cmd, now);
            if ((prev.type == CmdType::RD || prev.type == CmdType::WR) &&
                sameRank(prev, cmd)) {
                require(gap >= t.tCCD_S, "tCCD_S", cmd, now);
                if (sameBankGroup(prev, cmd))
                    require(gap >= t.tCCD_L, "tCCD_L", cmd, now);
            }
            if (is_read && prev.type == CmdType::WR) {
                // Channel-wide bus turnaround, plus the stricter
                // same-rank write-to-read recovery.
                require(gap >= t.writeLatency() + t.tRTW, "tWTR-bus",
                        cmd, now);
                if (sameRank(prev, cmd))
                    require(gap >= t.writeLatency() + t.tWTR, "tWTR",
                            cmd, now);
            }
            if (!is_read && prev.type == CmdType::RD)
                require(gap >= t.readLatency() + t.tRTW, "tRTW", cmd,
                        now);
            if (prev.type == CmdType::RFMab)
                require(gap >= t.tRFMab, "tRFMab-block", cmd, now);
            if (prev.type == CmdType::REFab && sameRank(prev, cmd))
                require(gap >= t.tRFC, "tRFC-block", cmd, now);
            break;
          }

          case CmdType::REFab:
            if (prev.type == CmdType::REFab && sameRank(prev, cmd))
                require(gap >= t.tRFC, "tRFC-back-to-back", cmd, now);
            break;

          case CmdType::RFMab:
            if (prev.type == CmdType::RFMab)
                require(gap >= t.tRFMab, "tRFMab-back-to-back", cmd,
                        now);
            break;

          case CmdType::RFMpb:
            if (prev.type == CmdType::RFMpb && sameBank(prev, cmd))
                require(gap >= t.tRFMpb, "tRFMpb-back-to-back", cmd,
                        now);
            break;
        }
    }

    if (cmd.type == CmdType::ACT)
        require(acts_in_faw < 4, "tFAW", cmd, now);

    // Structural open/closed-row rules.
    switch (cmd.type) {
      case CmdType::ACT:
        require(!open_[flat], "ACT-to-open-bank", cmd, now);
        open_[flat] = true;
        openRow_[flat] = cmd.row;
        break;
      case CmdType::PRE:
        require(open_[flat], "PRE-to-closed-bank", cmd, now);
        open_[flat] = false;
        break;
      case CmdType::RD:
      case CmdType::WR:
        require(open_[flat], "CAS-to-closed-bank", cmd, now);
        break;
      case CmdType::REFab:
        for (std::uint32_t b = 0; b < spec_.org.banksPerRank(); ++b)
            require(!open_[cmd.rank * spec_.org.banksPerRank() + b],
                    "REF-with-open-row", cmd, now);
        break;
      case CmdType::RFMab:
        for (std::size_t b = 0; b < open_.size(); ++b)
            require(!open_[b], "RFM-with-open-row", cmd, now);
        break;
      case CmdType::RFMpb:
        require(!open_[flat], "RFMpb-with-open-row", cmd, now);
        break;
    }

    history_.push_back({cmd, now});
}

} // namespace pracleak
