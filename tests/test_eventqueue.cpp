/**
 * @file
 * Event-driven per-channel scheduling correctness: the event path
 * (MemoryController::advanceTo + the exact nextWorkAt() bound) must
 * be byte-identical to the lockstep per-cycle tick under every
 * registered defense, in multi-channel configurations, for the
 * trace-replay and attack-harness drivers (System's cases are the
 * table in tests/test_lockstep.cpp).  Any divergence here is a bug in
 * the next-work bookkeeping -- most likely a bound that went stale
 * (missed invalidation) or optimistic (skipped an effective tick),
 * the class of bug that motivated the maintenance-drain fast-forward
 * fix (src/mem/DESIGN.md).
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/agents.h"
#include "attack/harness.h"
#include "dram/timing_checker.h"
#include "lockstep.h"
#include "mitigation/registry.h"
#include "sim/trace_support.h"

namespace pracleak {
namespace {

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
            SCOPED_TRACE(label);
            trace::ReplayOptions options;
            options.mitigation = defense;
            const trace::ReplayResult event =
                trace::replayTrace(recorded.trace, options);
            lockstep::expectReplaysIdentical(
                lockstep::replayTrace(recorded.trace, defense), event);
            if (defense == "none")
                EXPECT_TRUE(event.matchesRecorded(recorded.trace))
                    << label
                    << ": same-defense event replay must reproduce "
                       "the recording bit-for-bit";
        }
    }
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
    Cycle jumped = 0;            //!< AttackHarness::jumped()
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

/** How runLeakShape moves the clock. */
enum class Drive
{
    Lockstep, //!< reference: tick every agent, then every channel
    Step,     //!< AttackHarness::step() once per cycle
    Run,      //!< runUntil() per ON burst, run() per OFF phase
};

/**
 * The defense_matrix_leakage shape with refresh on: a victim hammers
 * bank 18 of channel 0 in ON/OFF bursts while a same-bank probe
 * watches on channel 0 and a bank-0 probe on the last channel.
 * Drive::Lockstep is the reference, lockstep::step(); the other two
 * drive the harness.  fullSteps is counted per step, so Drive::Run
 * leaves it 0.
 */
HarnessRun
runLeakShape(const std::string &defense, std::uint32_t channels,
             Drive drive, std::size_t queue_capacity)
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

    const lockstep::PinnedAgents agents = {
        {&victim, 0}, {&near_probe, 0}, {&far_probe, last}};
    if (drive != Drive::Lockstep)
        for (const auto &[agent, channel] : agents)
            harness.add(agent, channel);
    auto step = [&] {
        run.fullSteps += !harness.mem().canAccept();
        if (drive == Drive::Step)
            harness.step();
        else
            lockstep::step(harness, agents, channels);
    };

    const Cycle phase = nsToCycles(20'000);
    for (int burst = 0; burst < 3; ++burst) {
        const Cycle on_end = harness.now() + phase;
        while (harness.now() < on_end) {
            if (victim.done())
                victim.startHammer(spec.prac.nbo + spec.prac.aboAct +
                                   4);
            if (drive == Drive::Run)
                harness.runUntil([&] { return victim.done(); },
                                 on_end - harness.now());
            else
                step();
        }
        victim.stop();
        const Cycle off_end = harness.now() + phase;
        if (drive == Drive::Run)
            harness.run(phase);
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
            << static_cast<int>(drive) << " channel " << c << ": "
            << checkers[c].violations().front();
    }
    run.jumped = harness.jumped();
    run.endCycle = harness.now();
    return run;
}

/**
 * The leak shape under every registered defense on one and two
 * channels, driven by @p drive and by the lockstep reference, which
 * must agree on everything the experiment observes (and, under
 * Drive::Step, on the steps begun with a full queue).  Returns the
 * driven runs, one per defense and channel count.
 */
std::vector<HarnessRun>
expectHarnessMatchesLockstep(Drive drive, std::size_t queue_capacity)
{
    std::vector<HarnessRun> driven;
    for (const std::string &defense : mitigationNames()) {
        for (const std::uint32_t channels : {1u, 2u}) {
            SCOPED_TRACE(defense + " x" + std::to_string(channels));
            const HarnessRun lockstep = runLeakShape(
                defense, channels, Drive::Lockstep, queue_capacity);
            const HarnessRun event =
                runLeakShape(defense, channels, drive, queue_capacity);
            EXPECT_FALSE(lockstep.nearSamples.empty());
            EXPECT_FALSE(lockstep.farSamples.empty());
            EXPECT_EQ(lockstep.nearSamples, event.nearSamples);
            EXPECT_EQ(lockstep.farSamples, event.farSamples);
            EXPECT_TRUE(lockstep.commands == event.commands);
            EXPECT_EQ(lockstep.rfms, event.rfms);
            EXPECT_EQ(lockstep.alerts, event.alerts);
            EXPECT_EQ(lockstep.mitigationEvents, event.mitigationEvents);
            if (drive == Drive::Step)
                EXPECT_EQ(lockstep.fullSteps, event.fullSteps);
            EXPECT_EQ(lockstep.endCycle, event.endCycle);
            driven.push_back(event);
        }
    }
    return driven;
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
    expectHarnessMatchesLockstep(Drive::Step,
                                 ControllerConfig{}.queueCapacity);
}

/**
 * The same under back-pressure: a two-entry queue refuses enqueues,
 * so the agents take their refused-enqueue paths, on which an agent
 * must stay awake to retry.
 */
TEST(EventQueue, AttackHarnessMatchesLockstepUnderBackPressure)
{
    std::uint64_t full_steps = 0;
    for (const HarnessRun &run :
         expectHarnessMatchesLockstep(Drive::Step, 2))
        full_steps += run.fullSteps;
    EXPECT_GT(full_steps, 0u) << "the queue never filled";
}

/**
 * The same shape through runUntil() and run(), which also jump the
 * spans in which every agent sleeps and no channel has work: still
 * equal to the reference, and the jump must carry most of the run.
 */
TEST(EventQueue, AttackHarnessRunPathMatchesLockstep)
{
    for (const HarnessRun &run : expectHarnessMatchesLockstep(
             Drive::Run, ControllerConfig{}.queueCapacity))
        EXPECT_GT(run.jumped, run.endCycle / 2);
}

/** What the attacker table compares of one run. */
struct AttackerRun
{
    std::vector<IssuedCommand> commands;
    std::uint32_t maxCounter = 0;
    std::uint64_t alerts = 0;
    Cycle jumped = 0;
    Cycle endCycle = 0;
};

/**
 * Registry attacker @p name, from a non-zero phase, against the
 * defense it targets (tprac for the oblivious ones) with refresh on,
 * on a queue of @p queue_capacity, for 60 us moved by @p drive
 * (Drive::Run: one run()).  Its command stream must be timing-clean.
 */
AttackerRun
runAttacker(const std::string &name, std::size_t queue_capacity,
            Drive drive)
{
    const std::string target = findAttacker(name)->targetDefense;
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 256;
    ControllerConfig config;
    config.queueCapacity = queue_capacity;
    configureDefense(config, target.empty() ? "tprac" : target, spec);

    // Declared before the harness: its trace sink writes into both.
    AttackerRun run;
    TimingChecker checker(spec);
    AttackHarness harness(spec, config);
    harness.mem().dram().setTraceSink(
        [&run, &checker](const Command &cmd, Cycle now) {
            run.commands.push_back(IssuedCommand{
                cmd.type, cmd.rank, cmd.bankGroup, cmd.bank, cmd.row,
                cmd.col, now});
            checker.observe(cmd, now);
        });

    AttackerConfig attacker_config;
    attacker_config.phase = 5000;
    const std::unique_ptr<AttackerAgent> attacker =
        attackerByName(name, attacker_config, harness.mem());
    const lockstep::PinnedAgents agents = {{attacker.get(), 0}};
    if (drive != Drive::Lockstep)
        harness.add(attacker.get());
    const Cycle cycles = nsToCycles(60'000);
    if (drive == Drive::Run) {
        harness.run(cycles);
    } else {
        for (Cycle i = 0; i < cycles; ++i) {
            if (drive == Drive::Step)
                harness.step();
            else
                lockstep::step(harness, agents, 1);
        }
    }

    EXPECT_TRUE(checker.clean()) << checker.violations().front();
    run.maxCounter = harness.mem().prac().counters().maxEverSeen();
    run.alerts = harness.mem().prac().alerts();
    run.jumped = harness.jumped();
    run.endCycle = harness.now();
    return run;
}

/**
 * Every registry attacker through step() and run(), on the default
 * queue and on a two-entry one that refuses most of its enqueues,
 * against the per-cycle reference: the same commands, hottest row,
 * alerts and end cycle.  run() must also jump, which it can only do
 * while the attacker is not due: before its phase, or asleep.
 */
TEST(EventQueue, EveryAttackerMatchesLockstep)
{
    for (const std::string &name : attackerNames()) {
        for (const std::size_t capacity :
             {std::size_t{64}, std::size_t{2}}) {
            SCOPED_TRACE(name + " on a " + std::to_string(capacity) +
                         "-entry queue");
            const AttackerRun reference =
                runAttacker(name, capacity, Drive::Lockstep);
            EXPECT_FALSE(reference.commands.empty());
            for (const Drive drive : {Drive::Step, Drive::Run}) {
                const AttackerRun driven =
                    runAttacker(name, capacity, drive);
                EXPECT_TRUE(reference.commands == driven.commands);
                EXPECT_EQ(reference.maxCounter, driven.maxCounter);
                EXPECT_EQ(reference.alerts, driven.alerts);
                EXPECT_EQ(reference.endCycle, driven.endCycle);
                if (drive == Drive::Run)
                    EXPECT_GT(driven.jumped, 0u);
            }
        }
    }
}

} // namespace
} // namespace pracleak
