#include "cpu/system.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"

namespace pracleak {

double
RunResult::ipcSum() const
{
    double sum = 0.0;
    for (const auto &core : cores)
        sum += core.ipc;
    return sum;
}

double
RunResult::rbmpki() const
{
    std::uint64_t instrs = 0;
    for (const auto &core : cores)
        instrs += core.instrs;
    if (instrs == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(rowMisses) /
           static_cast<double>(instrs);
}

double
normalizedPerf(const RunResult &design, const RunResult &baseline)
{
    if (design.cores.size() != baseline.cores.size())
        fatal("normalizedPerf: core-count mismatch");
    double sum = 0.0;
    for (std::size_t i = 0; i < design.cores.size(); ++i) {
        if (baseline.cores[i].ipc <= 0.0)
            fatal("normalizedPerf: zero baseline IPC");
        sum += design.cores[i].ipc / baseline.cores[i].ipc;
    }
    return sum / static_cast<double>(design.cores.size());
}

namespace {

/** config.mem with the interleave knobs SystemConfig carries. */
ControllerConfig
interleaved(const SystemConfig &config)
{
    ControllerConfig mem = config.mem;
    mem.interleave.granularityBytes = config.channelInterleaveBytes;
    mem.interleave.xorFold = config.xorFoldChannelBits;
    return mem;
}

} // namespace

System::System(const SystemConfig &config,
               std::vector<std::unique_ptr<WorkloadSource>> sources)
    : config_(config),
      clock_(config.spec, interleaved(config), config.channels, &stats_,
             "System"),
      sources_(std::move(sources))
{
    if (sources_.empty())
        throw std::invalid_argument(
            "System: needs at least one core (workload source)");
    std::vector<MemoryController *> mem_ptrs;
    for (std::size_t c = 0; c < clock_.channelCount(); ++c)
        mem_ptrs.push_back(&clock_.channel(c));

    caches_ = std::make_unique<CacheHierarchy>(
        config_.caches, static_cast<std::uint32_t>(sources_.size()),
        std::move(mem_ptrs), &stats_);

    cores_.reserve(sources_.size());
    for (std::uint32_t i = 0; i < sources_.size(); ++i)
        cores_.emplace_back(i, sources_[i].get(), caches_.get(),
                            config_.core);
}

RunResult
System::run(Advance advance)
{
    if (ran_)
        fatal("System::run may only be called once");
    ran_ = true;

    const std::size_t n = cores_.size();

    // Phase 1: warm-up.
    auto all_warm = [&] {
        return std::all_of(cores_.begin(), cores_.end(),
                           [&](const TraceCore &c) {
                               return c.instrsRetired() >=
                                      config_.warmupInstrs;
                           });
    };
    while (!all_warm() && now() < config_.maxCycles)
        advance(clock_, cores_, config_.maxCycles);

    // Phase 2: measurement.
    const Cycle measure_start = now();
    const Cycle jumped_at_measure_start = clock_.jumped();
    std::vector<std::uint64_t> start_instrs(n);
    for (std::size_t i = 0; i < n; ++i)
        start_instrs[i] = cores_[i].instrsRetired();

    const std::size_t nch = clock_.channelCount();
    std::vector<ChannelStats> start_stats(nch);
    std::vector<SchedCounters> start_sched(nch);
    for (std::size_t c = 0; c < nch; ++c) {
        start_stats[c] = snapshotChannelStats(clock_.channel(c));
        start_sched[c] = clock_.channel(c).schedCounters();
    }
    const std::uint64_t start_row_misses = stats_.get("mem.row_misses");

    std::vector<Cycle> finish_at(n, 0);
    std::size_t finished = 0;
    while (finished < n && now() < config_.maxCycles) {
        advance(clock_, cores_, config_.maxCycles);
        for (std::size_t i = 0; i < n; ++i) {
            if (finish_at[i] != 0)
                continue;
            if (cores_[i].instrsRetired() - start_instrs[i] >=
                config_.measureInstrs) {
                finish_at[i] = now();
                ++finished;
            }
        }
    }
    if (finished < n)
        warn("System::run hit maxCycles before all cores finished");

    const Cycle end = now();

    RunResult result;
    result.cores.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        CoreResult &cr = result.cores[i];
        cr.workload = cores_[i].workloadName();
        const Cycle done = finish_at[i] ? finish_at[i] : end;
        cr.instrs = std::min(cores_[i].instrsRetired() - start_instrs[i],
                             config_.measureInstrs);
        cr.cycles = done > measure_start ? done - measure_start : 1;
        cr.ipc = static_cast<double>(cr.instrs) /
                 static_cast<double>(cr.cycles);
    }
    result.measureCycles = end - measure_start;

    result.channels.resize(nch);
    for (std::size_t c = 0; c < nch; ++c) {
        const MemoryController &mem = clock_.channel(c);
        ChannelResult &ch = result.channels[c];
        ch.stats = snapshotChannelStats(mem);
        ch.tbRfmsSkipped =
            mem.tbScheduler() ? mem.tbScheduler()->skipped() : 0;
        ch.sched = mem.schedCounters() - start_sched[c];
        const ChannelStats &start = start_stats[c];
        ch.energyCounts = {ch.stats.acts - start.acts,
                           ch.stats.reads - start.reads,
                           ch.stats.writes - start.writes,
                           ch.stats.refreshes - start.refreshes,
                           ch.stats.mitigatedRows - start.mitigatedRows,
                           result.measureCycles};
        ch.energy = computeEnergy(ch.energyCounts);

        result.stats += ch.stats;
        result.tbRfmsSkipped += ch.tbRfmsSkipped;
        result.sched += ch.sched;
        result.energyCounts += ch.energyCounts;
        result.energy += ch.energy;
    }
    // Ride the StatSet too, so stat dumps explain the scheduler
    // without a RunResult in hand.
    stats_.counter("sched.ticks_fired") += result.sched.ticksFired;
    stats_.counter("sched.cycles_jumped") += result.sched.cyclesJumped;
    stats_.counter("sched.nextwork_cache_hits") +=
        result.sched.nextWorkCacheHits;
    stats_.counter("sched.nextwork_rebuilds") +=
        result.sched.nextWorkRebuilds;
    stats_.counter("sched.nextwork_hint_rebuilds") +=
        result.sched.nextWorkHintRebuilds;
    result.rowMisses = stats_.get("mem.row_misses") - start_row_misses;
    result.ffCyclesSkipped = clock_.jumped() - jumped_at_measure_start;
    if (stats_.hasHistogram("mem.queue_occupancy"))
        result.queueOccupancy =
            stats_.getHistogram("mem.queue_occupancy");
    return result;
}

} // namespace pracleak
