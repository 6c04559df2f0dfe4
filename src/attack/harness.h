/**
 * @file
 * Memory-level attack harness.
 *
 * PRACLeak's covert and side channels operate below the caches (the
 * attacker flushes or bypasses them), so attack experiments drive the
 * memory controller directly with cycle-stepped *agents* -- exactly
 * how the paper runs spy/trojan/victim traces in Ramulator2.
 *
 * The harness can own several interleaved channels (one controller
 * per channel); each agent is pinned to one channel, which is how
 * cross-channel experiments place a victim and a spy on different
 * PRAC engines.  The default is the classic single-channel harness.
 *
 * The agents are the actors of an EventClock (mem/event_clock.h),
 * due while awake (MemAgent::asleep()).  step() ticks the awake
 * agents and moves every channel one cycle, ticking only the
 * controllers with work; run() and runUntil() also jump over spans in
 * which every agent sleeps and no channel has work.  The result is
 * bit-identical to ticking every agent and every channel every cycle
 * (src/mem/DESIGN.md, "Drivers"; src/attack/DESIGN.md).
 */

#ifndef PRACLEAK_ATTACK_HARNESS_H
#define PRACLEAK_ATTACK_HARNESS_H

#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/controller.h"
#include "mem/event_clock.h"

namespace pracleak {

/** A process-like actor issuing memory requests each cycle. */
class MemAgent
{
  public:
    virtual ~MemAgent() = default;

    /**
     * Called once per cycle, before any channel advances past
     * @p now, unless the agent is asleep().  The controller state it
     * sees equals what a per-cycle tick() loop would show.  A tick of
     * an asleep agent must change nothing, so a loop that ticks every
     * agent every cycle stays a valid reference.
     */
    virtual void tick(MemoryController &mem, Cycle now) = 0;

    /**
     * Whether tick() would change nothing until one of this agent's
     * own completion callbacks runs or its owner calls into it.  The
     * agent alone sets the flag, so agents that never touch it tick
     * every cycle.
     */
    bool asleep() const { return asleep_; }

  protected:
    bool asleep_ = false;
};

/** Owns one controller per channel and steps agents against them. */
class AttackHarness
{
  public:
    /**
     * @param channels Interleaved channels to instantiate; config's
     *                 ChannelInterleave fan-out is overridden to
     *                 match.
     */
    AttackHarness(const DramSpec &spec, const ControllerConfig &config,
                  std::uint32_t channels = 1)
        : clock_(spec, config, channels, &stats_, "AttackHarness")
    {
    }

    /** Register an agent (not owned) pinned to @p channel. */
    void
    add(MemAgent *agent, std::uint32_t channel = 0)
    {
        if (channel >= clock_.channelCount())
            fatal("AttackHarness::add: no such channel");
        agents_.push_back(Pinned{agent, &clock_.channel(channel)});
    }

    /** Run for @p cycles cycles. */
    void run(Cycle cycles) { runUntil([] { return false; }, cycles); }

    /**
     * Run until @p predicate() or @p max_cycles more cycles.  The
     * predicate is checked between advances, which may jump many
     * cycles, so it must read agent or controller state, not the
     * clock: that state is unchanged across a jump.
     */
    template <typename Pred>
    void
    runUntil(Pred predicate, Cycle max_cycles)
    {
        const Cycle end = now() + max_cycles;
        while (!predicate() && now() < end)
            clock_.advance(agents_, end);
    }

    /**
     * One cycle: tick every agent that is not asleep() at now(), then
     * advance every channel to now() + 1.
     */
    void step() { clock_.step(agents_); }

    MemoryController &mem() { return clock_.channel(0); }
    MemoryController &mem(std::uint32_t c) { return clock_.channel(c); }
    Cycle now() const { return clock_.now(); }

    /** Cycles run() and runUntil() have jumped over so far. */
    Cycle jumped() const { return clock_.jumped(); }

  private:
    /** An agent on its channel, as the clock steps it. */
    struct Pinned
    {
        MemAgent *agent;
        MemoryController *mem;

        /** Due at every cycle while awake, never while asleep. */
        Cycle nextEventAt() const { return agent->asleep() ? kNeverCycle : 0; }
        void tick(Cycle now) { agent->tick(*mem, now); }
    };

    StatSet stats_; //!< before clock_: the controllers resolve into it
    EventClock clock_;
    std::vector<Pinned> agents_;
};

} // namespace pracleak

#endif // PRACLEAK_ATTACK_HARNESS_H
