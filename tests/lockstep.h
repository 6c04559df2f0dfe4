/**
 * @file
 * The per-cycle reference the event-driven drivers are checked
 * against: every cycle, every actor ticks, then every channel
 * tick()s.  System reaches it through System::run's Advance seam;
 * replay's reference is rebuilt here from replayTrace's public pieces;
 * the attack harness's is step() below, which ticks the agents itself.
 */

#ifndef PRACLEAK_TESTS_LOCKSTEP_H
#define PRACLEAK_TESTS_LOCKSTEP_H

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/harness.h"
#include "cpu/replay_core.h"
#include "cpu/system.h"
#include "mem/channel_stats.h"
#include "sim/design.h"
#include "trace/replay.h"
#include "workload/suite.h"

namespace pracleak::lockstep {

/** System::Advance that ticks every core and every channel. */
inline void
advance(EventClock &clock, std::vector<TraceCore> &cores, Cycle)
{
    const Cycle now = clock.now();
    for (TraceCore &core : cores)
        core.tick(now);
    for (std::size_t c = 0; c < clock.channelCount(); ++c)
        clock.channel(c).tick();
}

/** Agents, each with the channel it is pinned to, in tick order. */
using PinnedAgents = std::vector<std::pair<MemAgent *, std::uint32_t>>;

/**
 * AttackHarness::step() on the reference: every agent ticks, asleep
 * or not, then every one of the harness's @p channels tick()s.  The
 * agents must not be add()ed to @p harness.
 */
inline void
step(AttackHarness &harness, const PinnedAgents &agents,
     std::uint32_t channels)
{
    const Cycle now = harness.now();
    for (const auto &[agent, channel] : agents)
        agent->tick(harness.mem(channel), now);
    for (std::uint32_t c = 0; c < channels; ++c)
        harness.mem(c).tick();
}

/** sim::runOne on the reference. */
inline RunResult
runOne(const SuiteEntry &entry, const sim::DesignConfig &design,
       const sim::RunBudget &budget, std::uint32_t cores)
{
    System system(sim::makeSystemConfig(design, budget),
                  instantiate(entry, cores));
    return system.run(advance);
}

/**
 * trace::replayTrace on the reference: every replay core, then every
 * channel, every cycle up to the recorded horizon.
 */
inline trace::ReplayResult
replayTrace(const trace::TraceData &trace, const std::string &mitigation)
{
    const trace::TraceHeader &header = trace.header;
    const DramSpec spec = trace::specFromHeader(header);
    ControllerConfig config =
        trace::configFromHeader(header, mitigation, spec);
    std::vector<std::unique_ptr<MemoryController>> mems;
    std::vector<ReplayCore> cores;
    cores.reserve(header.channels);
    for (std::uint32_t c = 0; c < header.channels; ++c) {
        config.channelIndex = c;
        mems.push_back(std::make_unique<MemoryController>(spec, config));
        cores.emplace_back(*mems[c], trace.channels[c].records);
    }
    while (mems[0]->now() < header.endCycle) {
        const Cycle now = mems[0]->now();
        for (ReplayCore &core : cores)
            core.tick(now);
        for (auto &mem : mems)
            mem->tick();
    }

    trace::ReplayResult result;
    result.mitigation = mitigation;
    result.endCycle = mems[0]->now();
    for (std::uint32_t c = 0; c < header.channels; ++c) {
        ChannelStats stats = snapshotChannelStats(*mems[c]);
        stats.requests = cores[c].replayed();
        result.channels.push_back(stats);
        result.replayedRequests += cores[c].replayed();
        result.fullyDrained = result.fullyDrained && cores[c].done();
    }
    return result;
}

/**
 * Everything a run reports must match except the scheduler counters
 * and the jumped cycles, which count the stepping itself.
 */
inline void
expectRunsIdentical(const RunResult &expected, const RunResult &actual)
{
    EXPECT_EQ(expected.measureCycles, actual.measureCycles);
    EXPECT_EQ(expected.stats, actual.stats);
    EXPECT_EQ(expected.tbRfmsSkipped, actual.tbRfmsSkipped);
    EXPECT_EQ(expected.rowMisses, actual.rowMisses);
    EXPECT_EQ(expected.energyCounts, actual.energyCounts);
    EXPECT_DOUBLE_EQ(expected.energy.totalNj(), actual.energy.totalNj());
    ASSERT_EQ(expected.cores.size(), actual.cores.size());
    for (std::size_t i = 0; i < expected.cores.size(); ++i) {
        EXPECT_EQ(expected.cores[i].instrs, actual.cores[i].instrs);
        EXPECT_EQ(expected.cores[i].cycles, actual.cores[i].cycles);
        EXPECT_DOUBLE_EQ(expected.cores[i].ipc, actual.cores[i].ipc);
    }
    ASSERT_EQ(expected.channels.size(), actual.channels.size());
    for (std::size_t c = 0; c < expected.channels.size(); ++c) {
        EXPECT_EQ(expected.channels[c].stats, actual.channels[c].stats)
            << "channel " << c;
        EXPECT_EQ(expected.channels[c].tbRfmsSkipped,
                  actual.channels[c].tbRfmsSkipped);
        EXPECT_EQ(expected.channels[c].energyCounts,
                  actual.channels[c].energyCounts);
    }
}

/** The same for replays: horizon, drain status, per-channel stats. */
inline void
expectReplaysIdentical(const trace::ReplayResult &expected,
                       const trace::ReplayResult &actual)
{
    EXPECT_EQ(expected.endCycle, actual.endCycle);
    EXPECT_EQ(expected.replayedRequests, actual.replayedRequests);
    EXPECT_EQ(expected.fullyDrained, actual.fullyDrained);
    ASSERT_EQ(expected.channels.size(), actual.channels.size());
    for (std::size_t c = 0; c < expected.channels.size(); ++c)
        EXPECT_EQ(expected.channels[c], actual.channels[c])
            << "channel " << c;
}

} // namespace pracleak::lockstep

#endif // PRACLEAK_TESTS_LOCKSTEP_H
