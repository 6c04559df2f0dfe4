#include "trace/replay.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/parallel.h"
#include "cpu/replay_core.h"
#include "mitigation/registry.h"

namespace pracleak::trace {

ChannelStats
ReplayResult::total() const
{
    ChannelStats sum;
    for (const ChannelStats &channel : channels)
        sum += channel;
    return sum;
}

bool
ReplayResult::matchesRecorded(const TraceData &trace) const
{
    if (channels.size() != trace.channels.size())
        return false;
    for (std::size_t c = 0; c < channels.size(); ++c)
        if (channels[c] != trace.channels[c].stats)
            return false;
    return true;
}

DramSpec
specFromHeader(const TraceHeader &header)
{
    DramSpec spec = specByName(header.spec);
    if (spec.org.ranks != header.ranks ||
        spec.org.bankGroups != header.bankGroups ||
        spec.org.banksPerGroup != header.banksPerGroup ||
        spec.org.rowsPerBank != header.rowsPerBank ||
        spec.org.colsPerRow != header.colsPerRow)
        throw std::runtime_error(
            "trace geometry mismatch: spec '" + header.spec +
            "' no longer matches the recorded organization "
            "(re-record the trace against the current registry)");
    spec.prac.nbo = header.nbo;
    spec.prac.nmit = header.nmit;
    return spec;
}

ControllerConfig
configFromHeader(const TraceHeader &header,
                 const std::string &mitigation, const DramSpec &spec)
{
    ControllerConfig config;
    config.mapping = static_cast<MappingScheme>(header.mapping);
    config.interleave.channels = header.channels;
    config.interleave.granularityBytes = header.granularityBytes;
    config.interleave.xorFold = header.xorFold;
    config.queueCapacity = header.queueCapacity;
    config.frfcfsCap = header.frfcfsCap;
    config.refreshEnabled = header.refreshEnabled;
    config.prac.queue = static_cast<QueueKind>(header.pracQueue);
    config.prac.fifoThreshold = header.fifoThreshold;
    config.prac.counterResetAtTrefw = header.counterResetAtTrefw;
    config.prac.trefPeriodRefs = header.trefPeriodRefs;
    config.randomRfmPerTrefi = header.randomRfmPerTrefi;
    config.obfuscationSeed = header.obfuscationSeed;
    configureDefense(config, mitigation, spec,
                     header.trefPeriodRefs != 0);
    return config;
}

namespace {

/** What the result keeps of one channel once it reaches the horizon. */
struct ChannelSlot
{
    ChannelStats stats;
    SchedCounters sched;
    Cycle endCycle = 0;
    bool done = false;
};

/**
 * Open loop: run one channel to @p end alone, alternating between
 * feeding the records due now and advancing the controller to the
 * next record or its own next event, whichever is earlier.
 */
void
runChannel(MemoryController &mem, ReplayCore &core, Cycle end)
{
    while (mem.now() < end) {
        const Cycle current = mem.now();
        const Cycle core_at = core.nextEventAt();
        if (core_at > current) {
            mem.advanceTo(std::min(core_at, end));
            continue;
        }
        core.tick(current);
        if (core.blocked()) {
            // Full queue: a blocked enqueue is side-effect-free, and
            // slots only free on the controller's own effective ticks,
            // so jump straight to its next work instant, tick it there,
            // and retry the cycle after -- exactly the first cycle a
            // per-cycle retry could have succeeded.
            const Cycle work = mem.nextWorkAt();
            if (work >= end) {
                mem.advanceTo(end);
                continue;
            }
            if (work > current)
                mem.advanceTo(work);
            mem.tick();
            continue;
        }
        mem.tick();
    }
}

} // namespace

ReplayResult
replayTrace(const TraceData &trace, const ReplayOptions &options)
{
    const TraceHeader &header = trace.header;
    if (trace.channels.empty() ||
        trace.channels.size() != header.channels)
        throw std::runtime_error(
            "trace has no usable channel streams");
    const std::string mitigation = options.mitigation.empty()
                                       ? header.mitigation
                                       : options.mitigation;

    const DramSpec spec = specFromHeader(header);
    ControllerConfig config =
        configFromHeader(header, mitigation, spec);

    // Built here, in channel order: a SeriesCapture joins channels
    // 1..N to the record this thread's channel-0 construction started.
    std::vector<std::unique_ptr<MemoryController>> mems;
    mems.reserve(header.channels);
    for (std::uint32_t c = 0; c < header.channels; ++c) {
        config.channelIndex = c;
        mems.push_back(
            std::make_unique<MemoryController>(spec, config));
    }

    std::vector<ReplayCore> cores;
    cores.reserve(header.channels);
    for (std::uint32_t c = 0; c < header.channels; ++c)
        cores.emplace_back(*mems[c], trace.channels[c].records);

    // The channels share no state (each has its own controller,
    // mitigation stack, record stream and bus observer, and replay
    // installs no cross-channel stat sink), so each runs to the
    // horizon alone, on whichever thread takes it next: per-channel
    // stats equal ticking every channel every cycle, whatever the
    // thread count (src/mem/DESIGN.md, "Drivers").  TB-RFM deadlines
    // are absolute, so the channels still fire in cross-channel
    // lockstep.  A thread copies out what the result needs and frees
    // the controller before it takes the next channel, so it never
    // holds more than one channel's state.
    const Cycle end = header.endCycle;
    const std::uint32_t channels = header.channels;
    std::vector<ChannelSlot> slots(channels);
    parallelFor(channels, 0, [&](std::size_t c) {
        runChannel(*mems[c], cores[c], end);
        ChannelSlot &slot = slots[c];
        slot.stats = snapshotChannelStats(*mems[c]);
        slot.stats.requests = cores[c].replayed();
        slot.sched = mems[c]->schedCounters();
        slot.endCycle = mems[c]->now();
        slot.done = cores[c].done();
        mems[c].reset();
    });

    ReplayResult result;
    result.mitigation = mitigation;
    result.endCycle = slots[0].endCycle;
    result.channels.reserve(channels);
    for (const ChannelSlot &slot : slots) {
        result.channels.push_back(slot.stats);
        result.replayedRequests += slot.stats.requests;
        result.fullyDrained = result.fullyDrained && slot.done;
        result.sched += slot.sched;
    }
    return result;
}

} // namespace pracleak::trace
