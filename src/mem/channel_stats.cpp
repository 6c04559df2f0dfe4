#include "mem/channel_stats.h"

#include <algorithm>
#include <numeric>

#include "mem/controller.h"

namespace pracleak {

std::uint64_t
ChannelStats::totalRfms() const
{
    return std::accumulate(rfms.begin(), rfms.end(), std::uint64_t{0});
}

ChannelStats &
ChannelStats::operator+=(const ChannelStats &other)
{
    requests += other.requests;
    acts += other.acts;
    reads += other.reads;
    writes += other.writes;
    refreshes += other.refreshes;
    for (std::size_t i = 0; i < kRfmReasonCount; ++i)
        rfms[i] += other.rfms[i];
    alerts += other.alerts;
    mitigationEvents += other.mitigationEvents;
    mitigatedRows += other.mitigatedRows;
    maxCounterSeen = std::max(maxCounterSeen, other.maxCounterSeen);
    return *this;
}

ChannelStats
snapshotChannelStats(const MemoryController &mem)
{
    const DramDevice &dev = mem.dram();
    ChannelStats stats;
    stats.acts = dev.issueCount(CmdType::ACT);
    stats.reads = dev.issueCount(CmdType::RD);
    stats.writes = dev.issueCount(CmdType::WR);
    stats.refreshes = dev.issueCount(CmdType::REFab);
    for (std::size_t i = 0; i < kRfmReasonCount; ++i)
        stats.rfms[i] = mem.rfmCount(static_cast<RfmReason>(i));
    stats.alerts = mem.prac().alerts();
    stats.mitigationEvents = mem.mitigationEvents();
    stats.mitigatedRows = mem.prac().mitigatedRows();
    stats.maxCounterSeen = mem.prac().counters().maxEverSeen();
    return stats;
}

const std::string &
rfmColumn(RfmReason reason)
{
    // The one RfmReason name table, in enum order.
    static const std::array<std::string, kRfmReasonCount> columns = {
        "abo_rfms",    "acb_rfms",      "tb_rfms",
        "random_rfms", "graphene_rfms", "pb_rfms"};
    return columns[static_cast<std::size_t>(reason)];
}

const std::string &
rfmStatKey(RfmReason reason)
{
    static const auto keys = [] {
        std::array<std::string, kRfmReasonCount> keys;
        for (std::size_t i = 0; i < kRfmReasonCount; ++i)
            keys[i] = "mem." + rfmColumn(static_cast<RfmReason>(i));
        return keys;
    }();
    return keys[static_cast<std::size_t>(reason)];
}

} // namespace pracleak
