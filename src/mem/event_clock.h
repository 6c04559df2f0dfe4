/**
 * @file
 * The one clock for drivers that step actors against interleaved
 * channel controllers: System (its cores) and AttackHarness (its
 * agents).
 *
 * An actor exposes `Cycle nextEventAt() const` and `void tick(Cycle)`
 * and is *due* at cycle t when nextEventAt() <= t; a tick of an actor
 * that is not due must change nothing.  step() ticks the due actors in
 * registration order, then moves every channel one cycle with
 * advanceTo(now + 1), which ticks a controller only when it has work.
 * advance() first jumps every channel over the span in which no actor
 * is due and no channel has work, then steps.  Both are exact: every
 * outcome equals ticking every actor and every channel every cycle,
 * the reference kept in tests/lockstep.h (src/mem/DESIGN.md,
 * "Drivers").  The templates take the driver's actor container as it
 * is, so the per-actor check is a direct call, not a virtual one.
 */

#ifndef PRACLEAK_MEM_EVENT_CLOCK_H
#define PRACLEAK_MEM_EVENT_CLOCK_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/controller.h"

namespace pracleak {

/** A driver's channel controllers and the rule that steps them. */
class EventClock
{
  public:
    /**
     * Build @p channels controllers (a non-zero power of two) from
     * @p config, fanning its interleave out over them and giving each
     * its channelIndex.  @p owner names the driver in the
     * std::invalid_argument any other channel count throws.
     */
    EventClock(const DramSpec &spec, ControllerConfig config,
               std::uint32_t channels, StatSet *stats,
               const char *owner)
    {
        if (channels == 0 || (channels & (channels - 1)) != 0)
            throw std::invalid_argument(
                std::string(owner) +
                ": channels must be a non-zero power of two");
        config.interleave.channels = channels;
        mems_.reserve(channels);
        for (std::uint32_t c = 0; c < channels; ++c) {
            config.channelIndex = c;
            mems_.push_back(
                std::make_unique<MemoryController>(spec, config, stats));
        }
    }

    std::size_t channelCount() const { return mems_.size(); }
    MemoryController &channel(std::size_t c) { return *mems_[c]; }
    Cycle now() const { return mems_[0]->now(); }

    /** Cycles advance() has jumped over so far. */
    Cycle jumped() const { return jumped_; }

    /**
     * One cycle: tick every actor due at now(), in order, then move
     * every channel to now() + 1.
     */
    template <typename Actors>
    void
    step(Actors &actors)
    {
        const Cycle current = now();
        for (auto &actor : actors)
            if (actor.nextEventAt() <= current)
                actor.tick(current);
        for (auto &mem : mems_)
            mem->advanceTo(current + 1);
    }

    /**
     * Jump to the first cycle (at most @p end) at which an actor is
     * due or a channel has work, then step() unless that is @p end.
     * The jump comes first, so a caller checking its own conditions
     * between calls sees the same post-step clock values (phase ends,
     * finish times) as a per-cycle loop would.
     */
    template <typename Actors>
    void
    advance(Actors &actors, Cycle end)
    {
        jump(actors, end);
        if (now() < end)
            step(actors);
    }

  private:
    template <typename Actors>
    void
    jump(const Actors &actors, Cycle end)
    {
        // The actors are asked first, and the channels only while
        // none is due, each in turn until one has work: nextWorkAt()
        // counts its cache hits and rebuilds, and the scheduler
        // counters in the goldens pin this order.
        const Cycle current = now();
        Cycle wake = end;
        for (const auto &actor : actors) {
            const Cycle at = actor.nextEventAt();
            if (at <= current)
                return;
            wake = std::min(wake, at);
        }
        for (const auto &mem : mems_) {
            const Cycle at = mem->nextWorkAt();
            if (at <= current)
                return;
            wake = std::min(wake, at);
        }
        if (wake <= current)
            return;
        for (auto &mem : mems_)
            mem->skipTo(wake);
        jumped_ += wake - current;
    }

    std::vector<std::unique_ptr<MemoryController>> mems_;
    Cycle jumped_ = 0;
};

} // namespace pracleak

#endif // PRACLEAK_MEM_EVENT_CLOCK_H
