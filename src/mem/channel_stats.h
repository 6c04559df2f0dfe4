/**
 * @file
 * The one per-channel outcome record, reported by System runs, trace
 * record and replay, and the attack scenarios, plus the RfmReason
 * name table behind every `<reason>_rfms` column and stat key.
 */

#ifndef PRACLEAK_MEM_CHANNEL_STATS_H
#define PRACLEAK_MEM_CHANNEL_STATS_H

#include <array>
#include <cstdint>
#include <string>

#include "mitigation/mitigation.h"

namespace pracleak {

class MemoryController;

/**
 * Counters of one channel since its controller was built, so a
 * System run's warm-up is in here too (only its energy and scheduler
 * counters are measure-window deltas).  A same-defense trace replay
 * must reproduce every field; the trace format stores them in
 * declaration order.
 */
struct ChannelStats
{
    std::uint64_t requests = 0; //!< trace stream; a snapshot leaves 0
    std::uint64_t acts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refreshes = 0;
    std::array<std::uint64_t, kRfmReasonCount> rfms{}; //!< by reason
    std::uint64_t alerts = 0;
    std::uint64_t mitigationEvents = 0; //!< Mitigation::eventsTriggered
    std::uint64_t mitigatedRows = 0;
    std::uint32_t maxCounterSeen = 0;

    std::uint64_t
    rfm(RfmReason reason) const
    {
        return rfms[static_cast<std::size_t>(reason)];
    }

    /** RFMs of every reason. */
    std::uint64_t totalRfms() const;

    /** Add another channel's counts (max for maxCounterSeen). */
    ChannelStats &operator+=(const ChannelStats &other);

    bool operator==(const ChannelStats &other) const = default;
};

/** @p mem's counters now (requests left 0). */
ChannelStats snapshotChannelStats(const MemoryController &mem);

/** `<reason>_rfms`: the result column of @p reason's RFM count. */
const std::string &rfmColumn(RfmReason reason);

/** `mem.<reason>_rfms`: the StatSet key of @p reason's RFM count. */
const std::string &rfmStatKey(RfmReason reason);

} // namespace pracleak

#endif // PRACLEAK_MEM_CHANNEL_STATS_H
