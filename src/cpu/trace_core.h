/**
 * @file
 * Trace-driven core model with bounded memory-level parallelism.
 *
 * Substitution for ChampSim's out-of-order core (see DESIGN.md): the
 * core retires up to retireWidth non-memory instructions per cycle,
 * keeps up to mlp loads outstanding without stalling, and stalls only
 * when (a) the MLP budget is exhausted or (b) the workload marks a
 * load as *dependent* (pointer-chase style), in which case the core
 * waits for that specific load.  This converts added DRAM latency and
 * lost DRAM bandwidth into lost IPC -- the only core-side effects the
 * paper's performance experiments depend on.
 */

#ifndef PRACLEAK_CPU_TRACE_CORE_H
#define PRACLEAK_CPU_TRACE_CORE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "cpu/cache.h"

namespace pracleak {

/** One unit of work from a workload source. */
struct TraceOp
{
    std::uint32_t nonMemInstrs = 0; //!< retire these first
    bool isMem = false;
    bool isWrite = false;
    bool dependent = false;         //!< load the core must wait on
    Addr addr = 0;
};

/** Infinite instruction stream driving one core. */
class WorkloadSource
{
  public:
    virtual ~WorkloadSource() = default;

    /** Produce the next trace op.  Streams never terminate. */
    virtual TraceOp next() = 0;

    /** Display name for reports. */
    virtual const std::string &name() const = 0;
};

/** Core parameters (defaults approximate Table 3's 4 GHz OoO core). */
struct CoreParams
{
    std::uint32_t retireWidth = 4;
    std::uint32_t mlp = 16;     //!< max outstanding loads
};

/** One trace-driven core attached to the shared cache hierarchy. */
class TraceCore
{
  public:
    TraceCore(std::uint32_t id, WorkloadSource *source,
              CacheHierarchy *hierarchy, const CoreParams &params);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Earliest future cycle at which this core could make progress,
     * valid after tick().  now+1 when the core still has retirable
     * work (or must retry a resource-blocked access, even one whose
     * retry it will skip); the earliest
     * in-core load completion when it is stalled on memory; and
     * kNeverCycle when the wake-up event lives in the memory system
     * (an outstanding DRAM miss).  Cycles strictly before the
     * returned value are provably no-ops for this core, so the event
     * clock (mem/event_clock.h) ticks the core only once it is due.
     */
    Cycle nextEventAt() const { return nextEventAt_; }

    std::uint64_t instrsRetired() const { return instrs_; }
    std::uint32_t id() const { return id_; }
    const std::string &workloadName() const { return source_->name(); }

  private:
    /**
     * Offer the pending memory op to the hierarchy; false when it was
     * refused.  A retry is skipped while the hierarchy's retryStamp()
     * holds the value it had at the last refusal.
     */
    bool tryAccess(Cycle now);
    void onLoadDone(Cycle issue_cycle, Cycle latency, bool dependent);
    void drainCompletions(Cycle now);
    Cycle earliestCompletion() const;

    std::uint32_t id_;
    WorkloadSource *source_;
    CacheHierarchy *hier_;
    CoreParams params_;

    Cycle now_ = 0;
    Cycle nextEventAt_ = 0;
    std::uint64_t instrs_ = 0;
    std::uint32_t backlog_ = 0;     //!< non-mem instrs left in op
    bool havePendingMem_ = false;
    TraceOp pending_{};

    std::uint32_t outstanding_ = 0;
    std::uint32_t dependentOutstanding_ = 0;

    /** The hierarchy's retryStamp() at the last refused access. */
    std::uint64_t refusedAt_ = ~std::uint64_t{0};

    struct Completion
    {
        Cycle readyAt;
        bool dependent;
    };
    std::vector<Completion> completions_;
};

} // namespace pracleak

#endif // PRACLEAK_CPU_TRACE_CORE_H
