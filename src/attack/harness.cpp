#include "attack/harness.h"

#include "common/log.h"

namespace pracleak {

AttackHarness::AttackHarness(const DramSpec &spec,
                             const ControllerConfig &config,
                             std::uint32_t channels)
{
    if (channels == 0 || (channels & (channels - 1)) != 0)
        fatal("AttackHarness: channels must be a power of two");
    ControllerConfig per_channel = config;
    per_channel.interleave.channels = channels;
    mems_.reserve(channels);
    for (std::uint32_t c = 0; c < channels; ++c) {
        per_channel.channelIndex = c;
        mems_.push_back(std::make_unique<MemoryController>(
            spec, per_channel, &stats_));
    }
}

void
AttackHarness::add(MemAgent *agent, std::uint32_t channel)
{
    if (channel >= mems_.size())
        fatal("AttackHarness::add: no such channel");
    agents_.push_back(Pinned{agent, channel});
}

void
AttackHarness::step()
{
    const Cycle now = mems_[0]->now();
    for (const Pinned &pinned : agents_)
        if (!pinned.agent->asleep())
            pinned.agent->tick(*mems_[pinned.channel], now);
    for (auto &mem : mems_)
        mem->advanceTo(now + 1);
}

void
AttackHarness::run(Cycle cycles)
{
    const Cycle end = now() + cycles;
    while (now() < end)
        step();
}

} // namespace pracleak
