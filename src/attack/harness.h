/**
 * @file
 * Memory-level attack harness.
 *
 * PRACLeak's covert and side channels operate below the caches (the
 * attacker flushes or bypasses them), so attack experiments drive the
 * memory controller directly with cycle-stepped *agents* -- exactly
 * how the paper runs spy/trojan/victim traces in Ramulator2.
 *
 * Every agent is a MemAgent: it keeps up to a depth of reads in
 * flight against a row schedule of its own and watches their
 * latencies.  The base owns that loop, the in-flight count, the start
 * cycle and the one sleep rule; an agent supplies next() and,
 * optionally, a completion hook.
 *
 * The harness can own several interleaved channels (one controller
 * per channel); each agent is pinned to one channel, which is how
 * cross-channel experiments place a victim and a spy on different
 * PRAC engines.  The default is the classic single-channel harness.
 *
 * The agents are the actors of an EventClock (mem/event_clock.h),
 * due from MemAgent::wakeAt() on.  step() ticks the due agents and
 * moves every channel one cycle, ticking only the controllers with
 * work; run() and runUntil() also jump over spans in which every
 * agent sleeps and no channel has work.  The result is bit-identical
 * to ticking every agent and every channel every cycle
 * (src/mem/DESIGN.md, "Drivers"; src/attack/DESIGN.md).
 *
 * attackSetup() builds the memory system the attack experiments run
 * on.
 */

#ifndef PRACLEAK_ATTACK_HARNESS_H
#define PRACLEAK_ATTACK_HARNESS_H

#include <optional>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/controller.h"
#include "mem/event_clock.h"

namespace pracleak {

/**
 * An actor that keeps up to a depth of reads in flight against a row
 * schedule: the spy, trojan, victim or adversary of an experiment.
 *
 * The sleep rule: after a tick the agent sleeps while depth reads are
 * in flight or next() had nothing to issue, and it wakes when one of
 * its reads completes or its owner calls wake().  Only a refused
 * enqueue (a full queue) leaves it due, to retry next cycle.  So
 * next() may answer "nothing" only from state that a completion or a
 * waking owner call changes.
 */
class MemAgent
{
  public:
    virtual ~MemAgent() = default;

    // Its reads' completion callbacks hold the agent's address.
    MemAgent(const MemAgent &) = delete;
    MemAgent &operator=(const MemAgent &) = delete;

    /**
     * Issue reads while fewer than depth are in flight and the
     * controller takes them, then apply the sleep rule.  Called
     * before any channel advances past @p now.  A tick before
     * wakeAt() changes nothing, so a loop that ticks every agent
     * every cycle stays a valid reference.
     */
    void tick(MemoryController &mem, Cycle now);

    /**
     * The cycle the agent is due from: its start while awake,
     * kNeverCycle while asleep.
     */
    Cycle wakeAt() const { return wakeAt_; }

    /** Reads completed so far. */
    std::uint64_t completed() const { return issued_ - inFlight_; }

  protected:
    /**
     * Keep up to @p depth reads in flight from cycle @p start on
     * (AttackerConfig::phase).
     */
    explicit MemAgent(std::uint32_t depth, Cycle start = 0)
        : depth_(depth), start_(start), wakeAt_(start)
    {
    }

    /**
     * The address of the next read, asked only when the controller
     * will take it; nullopt when there is nothing to issue.
     */
    virtual std::optional<Addr> next(MemoryController &mem) = 0;

    /** Read number seq (0-based, in issue order) completed as done. */
    virtual void onComplete(const Request & /* done */,
                            std::uint64_t /* seq */)
    {
    }

    /** Make the agent due again (from its start on). */
    void wake() { wakeAt_ = start_; }

    /** Change the depth; a change made by next() applies next tick. */
    void setDepth(std::uint32_t depth) { depth_ = depth; }

    std::uint32_t inFlight() const { return inFlight_; }
    std::uint64_t issued() const { return issued_; }

  private:
    std::uint32_t depth_;
    std::uint32_t inFlight_ = 0;
    std::uint64_t issued_ = 0;
    Cycle start_;
    Cycle wakeAt_;
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
     * One cycle: tick every agent due at now(), then advance every
     * channel to now() + 1.
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

        Cycle nextEventAt() const { return agent->wakeAt(); }
        void tick(Cycle now) { agent->tick(*mem, now); }
    };

    StatSet stats_; //!< before clock_: the controllers resolve into it
    EventClock clock_;
    std::vector<Pinned> agents_;
};

/** The memory system an attack experiment runs on. */
struct AttackSetup
{
    DramSpec spec;
    ControllerConfig controller;
};

/**
 * The paper's attack set-up: @p spec at NBO @p nbo and NMit @p nmit,
 * UPRAC's idealised mitigation queue, refresh on or off, and
 * @p defense configured for that spec.  Knobs already set in
 * @p controller that configureDefense() keeps (a TB-Window, the
 * obfuscation rate) stay.
 */
AttackSetup attackSetup(DramSpec spec, const std::string &defense,
                        std::uint32_t nbo, std::uint32_t nmit,
                        bool refresh, ControllerConfig controller = {});

} // namespace pracleak

#endif // PRACLEAK_ATTACK_HARNESS_H
