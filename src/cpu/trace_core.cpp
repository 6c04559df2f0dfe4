#include "cpu/trace_core.h"

#include <algorithm>

namespace pracleak {

TraceCore::TraceCore(std::uint32_t id, WorkloadSource *source,
                     CacheHierarchy *hierarchy, const CoreParams &params)
    : id_(id), source_(source), hier_(hierarchy), params_(params)
{
}

void
TraceCore::onLoadDone(Cycle issue_cycle, Cycle latency, bool dependent)
{
    // Hits report their latency synchronously at issue; DRAM misses
    // report at data-return time.  Either way the data is usable at
    // issue + latency (never before this core's last tick).  A
    // stalled core is not ticked, so its now_ may lag: a completion
    // that lands at or before the current cycle drains on the next
    // tick either way.
    const Cycle ready = std::max(issue_cycle + latency, now_);
    completions_.push_back(Completion{ready, dependent});

    // DRAM misses land *after* this core's tick (the controller
    // ticks last), so a stalled core's published wake-up time must
    // absorb the new completion or the clock would skip past it.
    nextEventAt_ = std::min(nextEventAt_, ready);
}

void
TraceCore::drainCompletions(Cycle now)
{
    for (std::size_t i = 0; i < completions_.size();) {
        if (completions_[i].readyAt <= now) {
            --outstanding_;
            if (completions_[i].dependent)
                --dependentOutstanding_;
            completions_[i] = completions_.back();
            completions_.pop_back();
        } else {
            ++i;
        }
    }
}

Cycle
TraceCore::earliestCompletion() const
{
    Cycle next = kNeverCycle;
    for (const Completion &completion : completions_)
        next = std::min(next, completion.readyAt);
    return next;
}

void
TraceCore::tick(Cycle now)
{
    now_ = now;
    nextEventAt_ = now + 1; // default: more work next cycle
    drainCompletions(now);

    if (dependentOutstanding_ > 0) {
        // Serialized on a pointer-chase load; nothing can happen
        // until a completion drains.
        nextEventAt_ = earliestCompletion();
        return;
    }

    std::uint32_t budget = params_.retireWidth;
    while (budget > 0) {
        if (backlog_ > 0) {
            const std::uint32_t chunk = std::min(backlog_, budget);
            backlog_ -= chunk;
            instrs_ += chunk;
            budget -= chunk;
            continue;
        }
        if (!havePendingMem_) {
            pending_ = source_->next();
            backlog_ = pending_.nonMemInstrs;
            havePendingMem_ = pending_.isMem;
            if (backlog_ > 0)
                continue;
            if (!havePendingMem_)
                continue; // pure bubble op
        }

        // One memory instruction; costs one retire slot.
        if (!pending_.isWrite && outstanding_ >= params_.mlp) {
            // Out of MLP: only a completion unblocks us.  DRAM-miss
            // completions surface via the controller, not
            // completions_, so kNeverCycle here defers the wake-up
            // to the controller's own event horizon.
            nextEventAt_ = earliestCompletion();
            return;
        }
        if (!tryAccess(now))
            return; // MSHRs/queue full; retry next cycle
        havePendingMem_ = false;
        ++instrs_;
        --budget;
        if (pending_.isWrite)
            continue;
        ++outstanding_;
        if (pending_.dependent) {
            // Nothing issues past a dependent load.
            ++dependentOutstanding_;
            nextEventAt_ = earliestCompletion();
            return;
        }
    }
}

bool
TraceCore::tryAccess(Cycle now)
{
    // A refused access changed nothing but one LLC miss count, so
    // until the hierarchy's retry stamp moves a retry would be refused
    // again: book its miss without the lookup.
    if (refusedAt_ == hier_->retryStamp()) {
        hier_->countSkippedRetry();
        return false;
    }
    const bool dependent = pending_.dependent;
    const bool accepted =
        pending_.isWrite
            ? hier_->tryStore(id_, pending_.addr)
            : hier_->tryLoad(id_, pending_.addr,
                             [this, now, dependent](Cycle latency) {
                                 onLoadDone(now, latency, dependent);
                             });
    if (!accepted)
        refusedAt_ = hier_->retryStamp();
    return accepted;
}

} // namespace pracleak
