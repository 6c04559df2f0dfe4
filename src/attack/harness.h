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
 * Every step() ticks only the agents that are awake
 * (MemAgent::asleep()) and moves all channels one cycle on the event
 * clock (MemoryController::advanceTo), so a cycle on which a
 * controller provably has no work costs one comparison instead of a
 * tick.  The result is bit-identical to ticking every agent and
 * every channel every cycle (src/mem/DESIGN.md, "Drivers";
 * src/attack/DESIGN.md).
 */

#ifndef PRACLEAK_ATTACK_HARNESS_H
#define PRACLEAK_ATTACK_HARNESS_H

#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/controller.h"

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
                  std::uint32_t channels = 1);

    /** Register an agent (not owned) pinned to @p channel. */
    void add(MemAgent *agent, std::uint32_t channel = 0);

    /** Run for @p cycles cycles. */
    void run(Cycle cycles);

    /** Run until @p predicate() or @p max_cycles more cycles. */
    template <typename Pred>
    void
    runUntil(Pred predicate, Cycle max_cycles)
    {
        const Cycle end = now() + max_cycles;
        while (!predicate() && now() < end)
            step();
    }

    /**
     * One cycle: tick every agent that is not asleep() at now(), then
     * advance every channel to now() + 1.
     */
    void step();

    MemoryController &mem() { return *mems_[0]; }
    MemoryController &mem(std::uint32_t channel)
    {
        return *mems_[channel];
    }
    std::uint32_t channels() const
    {
        return static_cast<std::uint32_t>(mems_.size());
    }
    StatSet &stats() { return stats_; }
    Cycle now() const { return mems_[0]->now(); }

  private:
    struct Pinned
    {
        MemAgent *agent;
        std::uint32_t channel;
    };

    StatSet stats_;
    std::vector<std::unique_ptr<MemoryController>> mems_;
    std::vector<Pinned> agents_;
};

} // namespace pracleak

#endif // PRACLEAK_ATTACK_HARNESS_H
