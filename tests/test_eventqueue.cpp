/**
 * @file
 * Event-driven per-channel scheduling correctness: the event path
 * (MemoryController::advanceTo + the exact nextWorkAt() bound) must
 * be byte-identical to the lockstep per-cycle tick under every
 * registered defense, in multi-channel configurations, for the
 * full-system, trace-replay and attack-harness drivers.  Any
 * divergence here is a bug in the next-work bookkeeping -- most
 * likely a bound that went stale (missed invalidation) or optimistic
 * (skipped an effective tick), the class of bug that motivated the
 * maintenance-drain fast-forward fix (src/mem/DESIGN.md).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "attack/agents.h"
#include "attack/harness.h"
#include "cpu/system.h"
#include "dram/timing_checker.h"
#include "mitigation/registry.h"
#include "sim/design.h"
#include "sim/trace_support.h"
#include "trace/replay.h"
#include "workload/suite.h"

namespace pracleak {
namespace {

void
expectReplaysIdentical(const trace::ReplayResult &lockstep,
                       const trace::ReplayResult &event,
                       const std::string &defense)
{
    EXPECT_EQ(lockstep.endCycle, event.endCycle) << defense;
    EXPECT_EQ(lockstep.replayedRequests, event.replayedRequests)
        << defense;
    EXPECT_EQ(lockstep.fullyDrained, event.fullyDrained) << defense;
    ASSERT_EQ(lockstep.channels.size(), event.channels.size())
        << defense;
    for (std::size_t c = 0; c < lockstep.channels.size(); ++c)
        EXPECT_EQ(lockstep.channels[c], event.channels[c])
            << defense << " channel " << c;
}

/**
 * Everything a run reports must match except the scheduler counters,
 * which count the stepping itself.
 */
void
expectRunsIdentical(const RunResult &lockstep, const RunResult &event)
{
    EXPECT_EQ(lockstep.measureCycles, event.measureCycles);
    EXPECT_EQ(lockstep.stats, event.stats);
    EXPECT_EQ(lockstep.tbRfmsSkipped, event.tbRfmsSkipped);
    EXPECT_EQ(lockstep.rowMisses, event.rowMisses);
    EXPECT_EQ(lockstep.energyCounts, event.energyCounts);
    EXPECT_DOUBLE_EQ(lockstep.energy.totalNj(), event.energy.totalNj());
    ASSERT_EQ(lockstep.cores.size(), event.cores.size());
    for (std::size_t i = 0; i < lockstep.cores.size(); ++i) {
        EXPECT_EQ(lockstep.cores[i].instrs, event.cores[i].instrs);
        EXPECT_EQ(lockstep.cores[i].cycles, event.cores[i].cycles);
    }
    ASSERT_EQ(lockstep.channels.size(), event.channels.size());
    for (std::size_t c = 0; c < lockstep.channels.size(); ++c) {
        EXPECT_EQ(lockstep.channels[c].stats, event.channels[c].stats)
            << "channel " << c;
        EXPECT_EQ(lockstep.channels[c].tbRfmsSkipped,
                  event.channels[c].tbRfmsSkipped);
        EXPECT_EQ(lockstep.channels[c].energyCounts,
                  event.channels[c].energyCounts);
    }
}

/**
 * Golden: record once, replay under every registered defense with
 * the lockstep and the event scheduler; all per-channel stats, the
 * horizon, and the drain status must match exactly.  Cross-defense
 * replays exercise back-pressure (the blocked-core skip) and every
 * drain flavour (RFMab, RFMpb, refresh) against the bound, on 2 and
 * on 8 channels.
 */
TEST(EventQueue, EveryDefenseMultiChannelReplayIdentical)
{
    for (const std::uint32_t channels : {2u, 8u}) {
        sim::DesignConfig design;
        design.label = "eventqueue";
        design.mitigation = "none";
        design.nbo = 1024;
        design.channels = channels;
        sim::RunBudget budget;
        budget.warmup = 5'000;
        budget.measure = 40'000;
        const sim::RecordedRun recorded = sim::recordSuiteRun(
            sim::findSuiteEntry("h_scan_mix"), design, budget);

        for (const std::string &defense : mitigationNames()) {
            const std::string label =
                defense + " on " + std::to_string(channels) +
                " channels";
            trace::ReplayOptions options;
            options.mitigation = defense;
            options.fastForward = false;
            const trace::ReplayResult lockstep =
                trace::replayTrace(recorded.trace, options);
            options.fastForward = true;
            const trace::ReplayResult event =
                trace::replayTrace(recorded.trace, options);
            expectReplaysIdentical(lockstep, event, label);
            if (defense == "none")
                EXPECT_TRUE(event.matchesRecorded(recorded.trace))
                    << label
                    << ": same-defense event replay must reproduce "
                       "the recording bit-for-bit";
        }
    }
}

/**
 * Golden: the full-system driver (System::stepAll channel stepping)
 * under both schedulers, for the defenses with the trickiest drain
 * behaviour, on a multi-channel config.
 */
TEST(EventQueue, SystemSchedulersIdenticalAcrossDefenses)
{
    for (const std::string &defense :
         {std::string("tprac"), std::string("graphene"),
          std::string("pb-rfm")}) {
        RunResult results[2];
        for (int ff = 0; ff < 2; ++ff) {
            sim::DesignConfig design;
            design.label = "eventqueue";
            design.mitigation = defense;
            design.channels = 2;
            design.fastForward = ff == 1;
            sim::RunBudget budget;
            budget.warmup = 5'000;
            budget.measure = 40'000;
            results[ff] =
                sim::runOne(sim::findSuiteEntry("m_blend"), design,
                            budget, 4);
        }
        SCOPED_TRACE(defense);
        expectRunsIdentical(results[0], results[1]);
    }
}

/**
 * A saturated 8-thread system keeps every channel busy nearly every
 * cycle -- the event path's worst case, where skips are short and
 * the cache-rebuild fusion carries the load.  Two independent event
 * runs must agree with each other (determinism) and with lockstep
 * (exactness).
 */
TEST(EventQueue, SaturatedEightThreadEventPathDeterministic)
{
    auto run = [](bool fast_forward) {
        sim::DesignConfig design;
        design.label = "eventqueue";
        design.mitigation = "tprac";
        design.channels = 2;
        design.fastForward = fast_forward;
        sim::RunBudget budget;
        budget.warmup = 2'000;
        budget.measure = 20'000;
        return sim::runOne(sim::findSuiteEntry("h_rand_heavy"),
                           design, budget, 8);
    };
    const RunResult lockstep = run(false);
    const RunResult event_a = run(true);
    const RunResult event_b = run(true);
    expectRunsIdentical(lockstep, event_a);
    expectRunsIdentical(event_a, event_b);
}

/** One DRAM command as the channel's trace sink saw it. */
struct IssuedCommand
{
    CmdType type = CmdType::ACT;
    std::uint32_t rank = 0, bankGroup = 0, bank = 0, row = 0, col = 0;
    Cycle at = 0;

    bool operator==(const IssuedCommand &) const = default;
};

/** Everything a PRACLeak experiment can observe from one run. */
struct HarnessRun
{
    std::vector<std::pair<Cycle, Cycle>> nearSamples; //!< doneAt, latency
    std::vector<std::pair<Cycle, Cycle>> farSamples;
    std::vector<std::vector<IssuedCommand>> commands; //!< per channel
    std::vector<std::array<std::uint64_t, kRfmReasonCount>> rfms;
    std::vector<std::uint64_t> alerts;
    std::vector<std::uint64_t> mitigationEvents; //!< PARA's only trace
    std::uint64_t fullSteps = 0; //!< steps begun with channel 0 full
    Cycle endCycle = 0;
};

std::vector<std::pair<Cycle, Cycle>>
sampleTimes(const ProbeAgent &probe)
{
    std::vector<std::pair<Cycle, Cycle>> out;
    for (const LatencySample &sample : probe.samples())
        out.emplace_back(sample.doneAt, sample.latency);
    return out;
}

/**
 * The defense_matrix_leakage shape with refresh on: a victim hammers
 * bank 18 of channel 0 in ON/OFF bursts while a same-bank probe
 * watches on channel 0 and a bank-0 probe on the last channel.  With
 * @p event the harness steps the channels, skipping asleep agents;
 * otherwise the lockstep reference: a local loop ticks every agent,
 * then tick()s every channel.
 */
HarnessRun
runLeakShape(const std::string &defense, std::uint32_t channels,
             bool event, std::size_t queue_capacity)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 64;
    ControllerConfig config;
    config.queueCapacity = queue_capacity;
    configureDefense(config, defense, spec);

    // Declared before the harness: its trace sinks write into both.
    HarnessRun run;
    run.commands.resize(channels);
    std::vector<TimingChecker> checkers(channels, TimingChecker(spec));
    AttackHarness harness(spec, config, channels);
    for (std::uint32_t c = 0; c < channels; ++c)
        harness.mem(c).dram().setTraceSink(
            [&run, &checkers, c](const Command &cmd, Cycle now) {
                run.commands[c].push_back(IssuedCommand{
                    cmd.type, cmd.rank, cmd.bankGroup, cmd.bank,
                    cmd.row, cmd.col, now});
                checkers[c].observe(cmd, now);
            });

    AttackerConfig victim_config;
    victim_config.targetBank = 18;
    victim_config.targetRow = 0x100;
    victim_config.poolSize = 4;
    victim_config.burstSpacing = 0x100;
    HammerAgent victim(harness.mem(), victim_config);
    AttackerConfig near_config;
    near_config.targetBank = 18;
    near_config.targetRow = 3;
    ProbeAgent near_probe(harness.mem(), near_config);
    const std::uint32_t last = channels - 1;
    AttackerConfig far_config;
    far_config.targetRow = 3;
    ProbeAgent far_probe(harness.mem(last), far_config);

    const std::vector<std::pair<MemAgent *, std::uint32_t>> agents = {
        {&victim, 0}, {&near_probe, 0}, {&far_probe, last}};
    if (event)
        for (const auto &[agent, channel] : agents)
            harness.add(agent, channel);
    auto step = [&] {
        run.fullSteps += !harness.mem().canAccept();
        if (event) {
            harness.step();
            return;
        }
        const Cycle now = harness.now();
        for (const auto &[agent, channel] : agents)
            agent->tick(harness.mem(channel), now);
        for (std::uint32_t c = 0; c < channels; ++c)
            harness.mem(c).tick();
    };

    const Cycle phase = nsToCycles(20'000);
    for (int burst = 0; burst < 3; ++burst) {
        const Cycle on_end = harness.now() + phase;
        while (harness.now() < on_end) {
            if (victim.done())
                victim.startHammer(spec.prac.nbo + spec.prac.aboAct +
                                   4);
            step();
        }
        victim.stop();
        const Cycle off_end = harness.now() + phase;
        while (harness.now() < off_end)
            step();
    }

    run.nearSamples = sampleTimes(near_probe);
    run.farSamples = sampleTimes(far_probe);
    for (std::uint32_t c = 0; c < channels; ++c) {
        const MemoryController &mem = harness.mem(c);
        EXPECT_EQ(mem.now(), harness.now());
        std::array<std::uint64_t, kRfmReasonCount> rfms{};
        for (std::size_t r = 0; r < kRfmReasonCount; ++r)
            rfms[r] = mem.rfmCount(static_cast<RfmReason>(r));
        run.rfms.push_back(rfms);
        run.alerts.push_back(mem.prac().alerts());
        run.mitigationEvents.push_back(mem.mitigationEvents());
        EXPECT_TRUE(checkers[c].clean())
            << (event ? "event" : "lockstep") << " channel " << c
            << ": " << checkers[c].violations().front();
    }
    run.endCycle = harness.now();
    return run;
}

/**
 * The leak shape under every registered defense on one and two
 * channels, on the harness and on the lockstep reference.  Returns
 * the lockstep runs' total count of steps begun with channel 0 full.
 */
std::uint64_t
expectHarnessMatchesLockstep(std::size_t queue_capacity)
{
    std::uint64_t full_steps = 0;
    for (const std::string &defense : mitigationNames()) {
        for (const std::uint32_t channels : {1u, 2u}) {
            SCOPED_TRACE(defense + " x" + std::to_string(channels));
            const HarnessRun lockstep =
                runLeakShape(defense, channels, false, queue_capacity);
            const HarnessRun event =
                runLeakShape(defense, channels, true, queue_capacity);
            EXPECT_FALSE(lockstep.nearSamples.empty());
            EXPECT_FALSE(lockstep.farSamples.empty());
            EXPECT_EQ(lockstep.nearSamples, event.nearSamples);
            EXPECT_EQ(lockstep.farSamples, event.farSamples);
            EXPECT_TRUE(lockstep.commands == event.commands);
            EXPECT_EQ(lockstep.rfms, event.rfms);
            EXPECT_EQ(lockstep.alerts, event.alerts);
            EXPECT_EQ(lockstep.mitigationEvents, event.mitigationEvents);
            EXPECT_EQ(lockstep.fullSteps, event.fullSteps);
            EXPECT_EQ(lockstep.endCycle, event.endCycle);
            full_steps += lockstep.fullSteps;
        }
    }
    return full_steps;
}

/**
 * Golden: the attack harness on the event clock, with sleeping
 * agents, against a lockstep reference loop that ticks every agent
 * every cycle.  Agents see controller state between cycles, so any
 * skipped effective tick or missed wake-up would show up as a
 * shifted probe sample.
 */
TEST(EventQueue, AttackHarnessMatchesLockstep)
{
    expectHarnessMatchesLockstep(ControllerConfig{}.queueCapacity);
}

/**
 * The same under back-pressure: a two-entry queue refuses enqueues,
 * so the agents take their refused-enqueue paths, on which an agent
 * must stay awake to retry.
 */
TEST(EventQueue, AttackHarnessMatchesLockstepUnderBackPressure)
{
    EXPECT_GT(expectHarnessMatchesLockstep(2), 0u)
        << "the queue never filled";
}

} // namespace
} // namespace pracleak
