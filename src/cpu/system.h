/**
 * @file
 * Multi-core system harness: N trace cores -> shared cache hierarchy
 * -> one or more interleaved DDR5 channels with a selectable
 * RowHammer mitigation.
 *
 * Follows the paper's methodology: every core first retires a warm-up
 * instruction budget, then IPC is measured per core over a fixed
 * instruction count; cores that finish early keep executing so memory
 * contention stays representative.  Performance is reported as
 * weighted speedup against a baseline run of the same workloads.
 *
 * Channels are striped by the ChannelInterleave (see
 * mem/address_mapper.h); channels == 1 reproduces the classic
 * single-channel system bit-identically.  The cores are the actors of
 * an EventClock (mem/event_clock.h): a cycle ticks only the cores
 * whose nextEventAt() is due and only the channels with work, and
 * when no core is due and no channel has work before cycle X the
 * clock jumps to X.  This never changes a simulated result: it equals
 * ticking every core and every channel every cycle.
 */

#ifndef PRACLEAK_CPU_SYSTEM_H
#define PRACLEAK_CPU_SYSTEM_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "cpu/cache.h"
#include "cpu/trace_core.h"
#include "dram/energy.h"
#include "mem/channel_stats.h"
#include "mem/controller.h"
#include "mem/event_clock.h"

namespace pracleak {

/** Full-system configuration. */
struct SystemConfig
{
    DramSpec spec = DramSpec::ddr5_8000b();
    ControllerConfig mem{};
    CacheHierConfig caches{};
    CoreParams core{};
    std::uint64_t warmupInstrs = 50'000;
    std::uint64_t measureInstrs = 500'000;
    Cycle maxCycles = 2'000'000'000; //!< hard safety stop

    /**
     * Memory channels (power of two).  Each channel is a full
     * spec.org DRAM configuration with its own controller and PRAC
     * engine; addresses stripe per channelInterleaveBytes.
     */
    std::uint32_t channels = 1;

    /** Contiguous bytes per channel before switching (power of 2). */
    std::uint32_t channelInterleaveBytes = 256;

    /** XOR-fold high address bits into the channel selector. */
    bool xorFoldChannelBits = true;

    /**
     * Always true: run() steps on the event clock.  Kept as a constant
     * for perfbench's traced System loop, which checks it.
     */
    static constexpr bool fastForward = true;
};

/** Per-core outcome of a run. */
struct CoreResult
{
    std::string workload;
    std::uint64_t instrs = 0;
    Cycle cycles = 0;
    double ipc = 0.0;
};

/** Per-channel outcome of a run. */
struct ChannelResult
{
    EnergyBreakdown energy;         //!< measure window
    EnergyCounts energyCounts;      //!< measure window

    /** Cumulative at run end, warm-up included (see ChannelStats). */
    ChannelStats stats;
    std::uint64_t tbRfmsSkipped = 0; //!< cumulative, like stats

    /**
     * Scheduler-efficiency counters over the measure window
     * (mem/controller.h SchedCounters deltas).  Deterministic, but
     * they count the stepping itself, so a run on the per-cycle
     * reference legitimately differs here -- equality checks between
     * the two must not include these.
     */
    SchedCounters sched;
};

/** Whole-run outcome. */
struct RunResult
{
    std::vector<CoreResult> cores;
    Cycle measureCycles = 0;
    EnergyBreakdown energy;         //!< all channels, measure window
    EnergyCounts energyCounts;      //!< raw events, measure window

    /**
     * All channels' stats summed (max for maxCounterSeen): cumulative
     * at run end, warm-up included.
     */
    ChannelStats stats;
    std::uint64_t tbRfmsSkipped = 0;
    std::uint64_t rowMisses = 0;    //!< measure window

    /** Per-channel breakdown (aggregates above are their sums). */
    std::vector<ChannelResult> channels;

    /**
     * Dead cycles the event clock jumped inside the measure window
     * (EventClock::jumped()).  Jumped cycles still advance the clock,
     * so this is a subset of measureCycles, not an addition to it.
     */
    Cycle ffCyclesSkipped = 0;

    /** All-channel SchedCounters sums over the measure window. */
    SchedCounters sched;

    /**
     * System-wide request-queue occupancy, sampled at every accepted
     * enqueue over the whole run (warmup included -- a streaming
     * histogram has no measure-window delta).
     */
    Histogram queueOccupancy;

    /** Sum of per-core IPCs. */
    double ipcSum() const;

    /** Row-buffer misses per kilo-instruction over the run. */
    double rbmpki() const;
};

/**
 * Normalized weighted speedup of @p design against @p baseline run on
 * the same workloads: mean over cores of IPC_design / IPC_baseline.
 */
double normalizedPerf(const RunResult &design, const RunResult &baseline);

/** The simulated system. */
class System
{
  public:
    System(const SystemConfig &config,
           std::vector<std::unique_ptr<WorkloadSource>> sources);

    /**
     * How run() moves the system toward @p end: by at least one cycle,
     * and never past @p end.
     */
    using Advance = void (*)(EventClock &clock,
                             std::vector<TraceCore> &cores, Cycle end);

    /** run()'s stepping: EventClock::advance over the cores. */
    static void
    advanceOnClock(EventClock &clock, std::vector<TraceCore> &cores,
                   Cycle end)
    {
        clock.advance(cores, end);
    }

    /**
     * Run warm-up then measurement; may only be called once.  Only
     * tests pass another @p advance: the per-cycle reference in
     * tests/lockstep.h.
     */
    RunResult run(Advance advance = advanceOnClock);

    MemoryController &channel(std::size_t i) { return clock_.channel(i); }
    std::size_t channelCount() const { return clock_.channelCount(); }
    StatSet &stats() { return stats_; }

  private:
    Cycle now() const { return clock_.now(); }

    SystemConfig config_;
    StatSet stats_; //!< before clock_: the controllers resolve into it
    EventClock clock_;
    std::unique_ptr<CacheHierarchy> caches_;
    std::vector<std::unique_ptr<WorkloadSource>> sources_;
    std::vector<TraceCore> cores_;
    bool ran_ = false;
};

} // namespace pracleak

#endif // PRACLEAK_CPU_SYSTEM_H
