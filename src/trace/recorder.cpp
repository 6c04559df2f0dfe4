#include "trace/recorder.h"

namespace pracleak::trace {

TraceHeader
makeTraceHeader(const std::string &workload,
                const std::string &specName, const DramSpec &spec,
                const ControllerConfig &config, std::uint32_t channels)
{
    TraceHeader header;
    header.workload = workload;
    header.spec = specName;
    header.mitigation = config.mitigation;
    header.ranks = spec.org.ranks;
    header.bankGroups = spec.org.bankGroups;
    header.banksPerGroup = spec.org.banksPerGroup;
    header.rowsPerBank = spec.org.rowsPerBank;
    header.colsPerRow = spec.org.colsPerRow;
    header.nbo = spec.prac.nbo;
    header.nmit = spec.prac.nmit;
    header.channels = channels;
    header.granularityBytes = config.interleave.granularityBytes;
    header.xorFold = config.interleave.xorFold;
    header.mapping = static_cast<std::uint8_t>(config.mapping);
    header.queueCapacity =
        static_cast<std::uint32_t>(config.queueCapacity);
    header.frfcfsCap = config.frfcfsCap;
    header.refreshEnabled = config.refreshEnabled;
    header.pracQueue = static_cast<std::uint8_t>(config.prac.queue);
    header.fifoThreshold = config.prac.fifoThreshold;
    header.counterResetAtTrefw = config.prac.counterResetAtTrefw;
    header.trefPeriodRefs = config.prac.trefPeriodRefs;
    header.randomRfmPerTrefi = config.randomRfmPerTrefi;
    header.obfuscationSeed = config.obfuscationSeed;
    return header;
}

TraceRecorder::TraceRecorder(const std::string &workload,
                             const std::string &specName,
                             const DramSpec &spec,
                             const ControllerConfig &config,
                             std::uint32_t channels)
    : writer_(makeTraceHeader(workload, specName, spec, config,
                              channels))
{
    taps_.reserve(channels);
    for (std::uint32_t c = 0; c < channels; ++c)
        taps_.push_back(std::make_unique<ChannelTap>(&writer_, c));
}

void
TraceRecorder::armTap(MemoryController &mem, std::uint32_t channel)
{
    mem.setRequestTap(taps_.at(channel).get());
}

void
TraceRecorder::finishChannel(MemoryController &mem,
                             std::uint32_t channel)
{
    mem.setRequestTap(nullptr);
    ChannelStats stats = snapshotChannelStats(mem);
    stats.requests =
        writer_.data().channels.at(channel).records.size();
    writer_.setChannelStats(channel, stats);
}

void
TraceRecorder::attach(System &system)
{
    for (std::size_t c = 0; c < system.channelCount(); ++c)
        armTap(system.channel(c), static_cast<std::uint32_t>(c));
}

void
TraceRecorder::finish(System &system)
{
    for (std::size_t c = 0; c < system.channelCount(); ++c)
        finishChannel(system.channel(c),
                      static_cast<std::uint32_t>(c));
    writer_.setEndCycle(system.channel(0).now());
}

} // namespace pracleak::trace
