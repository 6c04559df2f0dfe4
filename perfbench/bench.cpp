#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "attack/agents.h"
#include "attack/harness.h"
#include "common/rng.h"
#include "cpu/cache.h"
#include "cpu/replay_core.h"
#include "cpu/system.h"
#include "mitigation/registry.h"
#include "sim/analyze_support.h"
#include "sim/design.h"
#include "sim/trace_support.h"
#include "trace/recorder.h"
#include "trace/replay.h"
#include "workload/suite.h"

namespace perfbench {

using namespace pracleak;

namespace {

using Clock = std::chrono::steady_clock;

// Ops are sized so one round of every op takes 1-2 host seconds: a
// run's throughput is the median over many rounds, which keeps it
// steady on a noisy host.  The verdicts and the tprac/none ratios are
// unchanged at these sizes.
constexpr std::uint64_t kSystemWarmup = 20'000;   // instructions per core
constexpr std::uint64_t kSystemMeasure = 100'000;
constexpr std::uint64_t kReplayWarmup = 20'000;   // recording budget,
constexpr std::uint64_t kReplayMeasure = 120'000; // as eventqueue_benchmark
constexpr double kLeakPhaseMs = 0.0625;           // one ON (or OFF) phase
constexpr int kLeakBursts = 8;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Seed 0 keeps @p base, so the default seed reproduces the suite. */
std::uint64_t
reseed(std::uint64_t base, std::uint64_t seed)
{
    return seed == 0 ? base : deriveRngStream(base, seed);
}

SuiteEntry
reseededEntry(const std::string &name, std::uint64_t seed)
{
    SuiteEntry entry = sim::findSuiteEntry(name);
    entry.params.seed = reseed(entry.params.seed, seed);
    for (WorkloadParams &params : entry.perCore)
        params.seed = reseed(params.seed, seed);
    return entry;
}

struct Fnv
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (value >> (8 * i)) & 0xffU;
            hash *= 0x100000001b3ULL;
        }
    }

    void
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }

    void
    add(const std::string &text)
    {
        for (const char ch : text) {
            hash ^= static_cast<unsigned char>(ch);
            hash *= 0x100000001b3ULL;
        }
        add(static_cast<std::uint64_t>(text.size()));
    }
};

ChannelOutcome
channelOutcome(const MemoryController &mem)
{
    return ChannelOutcome{trace::snapshotChannelStats(mem), mem.now()};
}

/** Records channel 0's accepted requests for the microcases. */
class CaptureTap : public RequestTap
{
  public:
    explicit CaptureTap(std::vector<trace::TraceRecord> &out) : out_(out)
    {
    }

    void
    onEnqueue(const Request &request, Cycle now) override
    {
        out_.push_back(trace::TraceRecord{now, request.type, request.addr,
                                          request.coreId});
    }

  private:
    std::vector<trace::TraceRecord> &out_;
};

/**
 * Traced-run instrumentation of one op: the protocol gate on every
 * channel, channel 0's command and request capture (first op only),
 * and the span of the benchmark's own per-command work, which the
 * traced loop subtracts from the mem span it encloses.
 */
class OpProbe
{
  public:
    OpProbe(LayerTrace &trace, std::vector<MemoryController *> mems,
            bool capture)
        : trace_(trace), mems_(std::move(mems)),
          gate_(mems_.front()->dram().spec(), mems_.size())
    {
        if (capture) {
            trace_.capture.spec = mems_.front()->dram().spec();
            trace_.capture.config = mems_.front()->config();
            trace_.capture.commands.clear();
            trace_.capture.requests.clear();
            tap_ = std::make_unique<CaptureTap>(trace_.capture.requests);
            mems_.front()->setRequestTap(tap_.get());
        }
        for (std::size_t c = 0; c < mems_.size(); ++c) {
            const bool keep = capture && c == 0;
            mems_[c]->dram().setTraceSink(
                [this, c, keep](const Command &cmd, Cycle at) {
                    const auto start = Clock::now();
                    gate_.observe(c, cmd, at);
                    if (keep)
                        trace_.capture.commands.emplace_back(cmd, at);
                    trace_.checkerS +=
                        secondsBetween(start, Clock::now());
                    ++trace_.checkerSpans;
                });
        }
    }

    OpProbe(const OpProbe &) = delete;
    OpProbe &operator=(const OpProbe &) = delete;

    ~OpProbe()
    {
        for (MemoryController *mem : mems_) {
            mem->dram().setTraceSink(nullptr);
            mem->setRequestTap(nullptr);
        }
    }

    /** Book every channel's counters and the gate verdict. */
    void
    finish(OpOutcome &out)
    {
        for (MemoryController *mem : mems_)
            trace_.bookChannel(*mem);
        trace_.violations += gate_.violations();
        gate_.judge(out);
    }

  private:
    LayerTrace &trace_;
    std::vector<MemoryController *> mems_;
    ProtocolGate gate_;
    std::unique_ptr<CaptureTap> tap_;
};

// --- system_tprac ----------------------------------------------------

/** Times every next() of the source handed to a core. */
class TimedSource : public WorkloadSource
{
  public:
    TimedSource(std::unique_ptr<WorkloadSource> inner, LayerTrace &trace)
        : inner_(std::move(inner)), trace_(trace)
    {
    }

    TraceOp
    next() override
    {
        const auto start = Clock::now();
        const TraceOp op = inner_->next();
        trace_.workloadNextS += secondsBetween(start, Clock::now());
        ++trace_.workloadNextCalls;
        return op;
    }

    const std::string &name() const override { return inner_->name(); }

  private:
    std::unique_ptr<WorkloadSource> inner_;
    LayerTrace &trace_;
};

/**
 * System::run rebuilt from the public pieces (controllers, cache
 * hierarchy, cores) so the cpu and mem layers can be timed apart.
 * The construction and the stepping mirror System exactly --
 * fast-forward decision, core ticks, per-channel advanceTo -- so the
 * simulated outcome, scheduler counters included, is identical.
 */
OpOutcome
tracedSystemRun(const SystemConfig &config,
                std::vector<std::unique_ptr<WorkloadSource>> sources,
                LayerTrace &trace, bool capture)
{
    if (!config.fastForward)
        throw std::invalid_argument(
            "the traced run mirrors the event-clock System only");
    StatSet stats;
    ControllerConfig mem_config = config.mem;
    mem_config.interleave.channels = config.channels;
    mem_config.interleave.granularityBytes = config.channelInterleaveBytes;
    mem_config.interleave.xorFold = config.xorFoldChannelBits;
    std::vector<std::unique_ptr<MemoryController>> mems;
    std::vector<MemoryController *> mem_ptrs;
    for (std::uint32_t c = 0; c < config.channels; ++c) {
        mem_config.channelIndex = c;
        mems.push_back(std::make_unique<MemoryController>(
            config.spec, mem_config, &stats));
        mem_ptrs.push_back(mems.back().get());
    }
    CacheHierarchy caches(config.caches,
                          static_cast<std::uint32_t>(sources.size()),
                          mem_ptrs, &stats);
    std::vector<std::unique_ptr<WorkloadSource>> timed;
    for (auto &source : sources)
        timed.push_back(
            std::make_unique<TimedSource>(std::move(source), trace));
    std::vector<TraceCore> cores;
    cores.reserve(timed.size());
    for (std::uint32_t i = 0; i < timed.size(); ++i)
        cores.emplace_back(i, timed[i].get(), &caches, config.core);
    OpProbe probe(trace, mem_ptrs, capture);

    auto now = [&] { return mems[0]->now(); };
    auto step = [&] {
        const auto ff_start = Clock::now();
        const Cycle current = now();
        Cycle wake = kNeverCycle;
        bool dead = true;
        for (const TraceCore &core : cores) {
            const Cycle at = core.nextEventAt();
            if (at <= current) {
                dead = false;
                break;
            }
            wake = std::min(wake, at);
        }
        if (dead) {
            for (const auto &mem : mems) {
                const Cycle at = mem->nextWorkAt();
                if (at <= current) {
                    dead = false;
                    break;
                }
                wake = std::min(wake, at);
            }
        }
        if (dead) {
            wake = std::min(wake, config.maxCycles);
            if (wake > current) {
                for (auto &mem : mems)
                    mem->skipTo(wake);
                trace.ffSkipped += wake - current;
            }
        }
        const auto cpu_start = Clock::now();
        trace.memS += secondsBetween(ff_start, cpu_start);
        ++trace.memSpans;
        if (now() >= config.maxCycles)
            return;

        const Cycle cycle = now();
        for (TraceCore &core : cores)
            core.tick(cycle);
        trace.coreTicks += cores.size();
        const auto mem_start = Clock::now();
        trace.coreTickS += secondsBetween(cpu_start, mem_start);
        ++trace.coreTickSpans;
        for (auto &mem : mems)
            mem->advanceTo(cycle + 1);
        trace.memS += secondsBetween(mem_start, Clock::now());
        ++trace.memSpans;
        for (auto &mem : mems)
            trace.sampleQueue(*mem);
    };

    const std::size_t n = cores.size();
    auto all_warm = [&] {
        return std::all_of(cores.begin(), cores.end(),
                           [&](const TraceCore &core) {
                               return core.instrsRetired() >=
                                      config.warmupInstrs;
                           });
    };
    while (!all_warm() && now() < config.maxCycles)
        step();

    const Cycle measure_start = now();
    std::vector<std::uint64_t> start_instrs(n);
    for (std::size_t i = 0; i < n; ++i)
        start_instrs[i] = cores[i].instrsRetired();
    std::vector<Cycle> finish_at(n, 0);
    std::size_t finished = 0;
    while (finished < n && now() < config.maxCycles) {
        step();
        for (std::size_t i = 0; i < n; ++i) {
            if (finish_at[i] == 0 &&
                cores[i].instrsRetired() - start_instrs[i] >=
                    config.measureInstrs) {
                finish_at[i] = now();
                ++finished;
            }
        }
    }

    const Cycle end = now();
    OpOutcome out;
    for (std::size_t i = 0; i < n; ++i) {
        const Cycle done = finish_at[i] ? finish_at[i] : end;
        out.coreInstrs.push_back(
            std::min(cores[i].instrsRetired() - start_instrs[i],
                     config.measureInstrs));
        out.coreCycles.push_back(
            done > measure_start ? done - measure_start : 1);
        trace.instrs += cores[i].instrsRetired();
    }
    trace.systemCycles += end;
    for (const auto &mem : mems)
        out.channels.push_back(channelOutcome(*mem));
    probe.finish(out);
    return out;
}

class SystemTprac : public Workload
{
  public:
    SystemTprac()
    {
        budget_.warmup = kSystemWarmup;
        budget_.measure = kSystemMeasure;
    }

    const char *name() const override { return "system_tprac"; }

    bool setupSimulates() const override { return false; }

    std::vector<std::string>
    ops() const override
    {
        return {"none", "tprac"};
    }

    void
    setup(std::uint64_t seed, LayerTrace *) override
    {
        entry_ = reseededEntry("h_rand_heavy", seed);
        configs_.clear();
        for (const std::string &defense : ops()) {
            sim::DesignConfig design;
            design.label = defense;
            design.mitigation = defense;
            design.spec = "ddr5-8000b";
            design.nbo = 1024;
            configs_.push_back(sim::makeSystemConfig(design, budget_));
        }
    }

    OpOutcome
    run(std::size_t index, LayerTrace *trace) override
    {
        const SystemConfig &config = configs_.at(index);
        OpOutcome out;
        if (trace) {
            out = tracedSystemRun(config, instantiate(entry_, kCores),
                                  *trace, index == 0);
        } else {
            System system(config, instantiate(entry_, kCores));
            const RunResult result = system.run();
            for (const CoreResult &core : result.cores) {
                out.coreInstrs.push_back(core.instrs);
                out.coreCycles.push_back(core.cycles);
            }
            for (std::size_t c = 0; c < system.channelCount(); ++c)
                out.channels.push_back(channelOutcome(system.channel(c)));
        }
        out.name = std::string(name()) + "/" + ops()[index];
        for (std::size_t i = 0; i < out.coreInstrs.size(); ++i) {
            out.throughput.push_back(
                static_cast<double>(out.coreInstrs[i]) /
                static_cast<double>(out.coreCycles[i]));
            if (out.failure.empty() &&
                out.coreInstrs[i] < budget_.measure)
                out.failure = "core " + std::to_string(i) +
                              " retired " +
                              std::to_string(out.coreInstrs[i]) + " of " +
                              std::to_string(budget_.measure) +
                              " measured instructions";
        }
        return out;
    }

  private:
    static constexpr std::uint32_t kCores = 4;
    sim::RunBudget budget_;
    SuiteEntry entry_;
    std::vector<SystemConfig> configs_;
};

// --- replay_8ch --------------------------------------------------------

/**
 * trace::replayTrace's event-driven loop rebuilt from its public
 * pieces (specFromHeader, configFromHeader, ReplayCore, controller
 * stepping) so the mem layer can be timed and protocol-checked.
 */
OpOutcome
tracedReplay(const trace::TraceData &data, const std::string &defense,
             LayerTrace &trace, bool capture, bool &drained)
{
    const trace::TraceHeader &header = data.header;
    const DramSpec spec = trace::specFromHeader(header);
    ControllerConfig config = trace::configFromHeader(header, defense,
                                                      spec);
    std::vector<std::unique_ptr<MemoryController>> mems;
    std::vector<MemoryController *> mem_ptrs;
    for (std::uint32_t c = 0; c < header.channels; ++c) {
        config.channelIndex = c;
        mems.push_back(std::make_unique<MemoryController>(spec, config));
        mem_ptrs.push_back(mems.back().get());
    }
    std::vector<ReplayCore> cores;
    cores.reserve(header.channels);
    for (std::uint32_t c = 0; c < header.channels; ++c)
        cores.emplace_back(*mems[c], data.channels[c].records);
    OpProbe probe(trace, mem_ptrs, capture);

    const Cycle end = header.endCycle;
    for (std::uint32_t c = 0; c < header.channels; ++c) {
        ReplayCore &core = cores[c];
        MemoryController &mem = *mems[c];
        while (mem.now() < end) {
            const Cycle current = mem.now();
            const Cycle core_at = core.nextEventAt();
            const auto start = Clock::now();
            if (core_at > current) {
                mem.advanceTo(std::min(core_at, end));
            } else {
                core.tick(current);
                if (!core.blocked()) {
                    mem.tick();
                } else {
                    const Cycle work = mem.nextWorkAt();
                    if (work >= end) {
                        mem.advanceTo(end);
                    } else {
                        if (work > current)
                            mem.advanceTo(work);
                        mem.tick();
                    }
                }
            }
            trace.memS += secondsBetween(start, Clock::now());
            ++trace.memSpans;
            trace.sampleQueue(mem);
        }
    }

    OpOutcome out;
    drained = true;
    for (std::uint32_t c = 0; c < header.channels; ++c) {
        ChannelOutcome channel = channelOutcome(*mems[c]);
        channel.stats.requests = cores[c].replayed();
        out.channels.push_back(channel);
        drained = drained && cores[c].done();
        trace.undelivered +=
            data.channels[c].records.size() - cores[c].replayed();
    }
    probe.finish(out);
    return out;
}

class Replay8ch : public Workload
{
  public:
    Replay8ch()
    {
        budget_.warmup = kReplayWarmup;
        budget_.measure = kReplayMeasure;
    }

    const char *name() const override { return "replay_8ch"; }

    std::vector<std::string>
    ops() const override
    {
        return defenses();
    }

    void
    setup(std::uint64_t seed, LayerTrace *trace) override
    {
        sim::DesignConfig design;
        design.label = "none";
        design.mitigation = "none";
        design.spec = "ddr5-8000b";
        design.nbo = 1024;
        design.channels = 8;
        const sim::RecordedRun recorded = sim::recordSuiteRun(
            reseededEntry("cloud_mix", seed), design, budget_);

        const auto serialize_start = Clock::now();
        const std::string bytes = trace::serializeTrace(recorded.trace);
        const auto parse_start = Clock::now();
        data_ = trace::TraceReader::parse(bytes);
        const auto parse_end = Clock::now();
        if (trace) {
            trace->serializeS += secondsBetween(serialize_start,
                                                parse_start);
            trace->parseS += secondsBetween(parse_start, parse_end);
            trace->traceBytes += bytes.size();
            for (const trace::ChannelTrace &channel : data_.channels)
                trace->traceRecords += channel.records.size();
        }
    }

    OpOutcome
    run(std::size_t index, LayerTrace *trace) override
    {
        const std::string &defense = defenses().at(index);
        OpOutcome out;
        bool drained = true;
        if (trace) {
            const auto start = Clock::now();
            out = tracedReplay(data_, defense, *trace, index == 0,
                               drained);
            trace->replayS[defense] +=
                secondsBetween(start, Clock::now());
        } else {
            trace::ReplayOptions options;
            options.mitigation = defense;
            const trace::ReplayResult result =
                trace::replayTrace(data_, options);
            for (const trace::TraceChannelStats &stats : result.channels)
                out.channels.push_back(
                    ChannelOutcome{stats, result.endCycle});
            drained = result.fullyDrained;
        }
        out.name = std::string(name()) + "/" + defense;
        for (const ChannelOutcome &channel : out.channels)
            out.throughput.push_back(
                static_cast<double>(channel.stats.requests));
        out.extra.push_back(drained ? 1 : 0);

        if (out.failure.empty() && defense == data_.header.mitigation) {
            trace::ReplayResult as_replayed;
            for (const ChannelOutcome &channel : out.channels)
                as_replayed.channels.push_back(channel.stats);
            if (!drained || !as_replayed.matchesRecorded(data_))
                out.failure = "same-defense replay does not reproduce "
                              "the recorded statistics";
        }
        return out;
    }

  private:
    sim::RunBudget budget_;
    trace::TraceData data_;
};

// --- attack_leakage ------------------------------------------------------

/** Where the victim and the two probes sit. */
struct Placement
{
    std::uint32_t victimBank = 18;  //!< (rank 0, bg 4, bank 2)
    std::uint32_t victimRow = 0x100;
    std::uint32_t nearRow = 3;      //!< same bank as the victim
    std::uint32_t farBank = 0;
    std::uint32_t farRow = 3;
};

/**
 * Seed 0 is defense_matrix_leakage's own layout.  Other seeds move
 * the victim to any bank and the far probe to a bank in another bank
 * group, keeping the probe rows clear of the victim's target and its
 * decoys (target + 0x100 .. +0x103).
 */
Placement
placementFor(std::uint64_t seed, const DramOrg &org)
{
    Placement placement;
    if (seed == 0)
        return placement;
    Rng rng(deriveRngStream(0x1EA4'A6E0ULL, seed));
    const std::uint32_t banks = org.totalBanks();
    placement.victimBank = static_cast<std::uint32_t>(rng.range(banks));
    placement.victimRow =
        0x100 + static_cast<std::uint32_t>(rng.range(0x4000));
    placement.nearRow = static_cast<std::uint32_t>(rng.range(0x100));
    placement.farBank =
        (placement.victimBank + org.banksPerGroup +
         static_cast<std::uint32_t>(rng.range(banks / 2))) %
        banks;
    placement.farRow = static_cast<std::uint32_t>(rng.range(0x100));
    return placement;
}

sim::OnOffCounts
countSpikes(const std::vector<LatencySample> &samples, Cycle threshold,
            const std::vector<std::pair<Cycle, Cycle>> &on_windows)
{
    sim::OnOffCounts spikes;
    for (const LatencySample &sample : samples) {
        if (sample.latency <= threshold)
            continue;
        const bool on = std::any_of(
            on_windows.begin(), on_windows.end(), [&](const auto &w) {
                return sample.doneAt >= w.first && sample.doneAt < w.second;
            });
        ++(on ? spikes.on : spikes.off);
    }
    return spikes;
}

Cycle
maxLatency(const std::vector<LatencySample> &samples)
{
    Cycle most = 0;
    for (const LatencySample &sample : samples)
        most = std::max(most, sample.latency);
    return most;
}

class AttackLeakage : public Workload
{
  public:
    const char *name() const override { return "attack_leakage"; }

    std::vector<std::string>
    ops() const override
    {
        return defenses();
    }

    void
    setup(std::uint64_t seed, LayerTrace *) override
    {
        spec_ = specByName("ddr5-8000b");
        spec_.prac.nbo = 256;
        placement_ = placementFor(seed, spec_.org);
        configs_.clear();
        for (const std::string &defense : defenses()) {
            ControllerConfig config;
            config.prac.queue = QueueKind::Ideal; // UPRAC, as in fig03
            config.refreshEnabled = false;        // isolate mitigations
            config.para.seed = reseed(config.para.seed, seed);
            configureDefense(config, defense, spec_);
            configs_.push_back(config);
        }
        // The no-defense calibration run sets the noise ceilings every
        // op's spikes are judged against (defense_matrix_leakage's
        // quiet run).  The "none" op still simulates on its own.
        const Experiment quiet = simulate(0, nullptr);
        nearCeiling_ = maxLatency(quiet.near);
        farCeiling_ = maxLatency(quiet.far);
    }

    OpOutcome
    run(std::size_t index, LayerTrace *trace) override
    {
        const std::string &defense = defenses().at(index);
        const Experiment run = simulate(index, trace);
        const Cycle margin = nsToCycles(100);
        const sim::OnOffCounts near_spikes = countSpikes(
            run.near, nearCeiling_ + margin, run.onWindows);
        const sim::OnOffCounts far_spikes = countSpikes(
            run.far, farCeiling_ + margin, run.onWindows);
        const bool leaked = sim::correlatedCounts(near_spikes) ||
                            sim::correlatedCounts(far_spikes);

        OpOutcome out = run.outcome;
        out.name = std::string(name()) + "/" + defense;
        out.throughput = {static_cast<double>(run.nearReads),
                          static_cast<double>(run.farReads)};
        out.extra = {near_spikes.on, near_spikes.off, far_spikes.on,
                     far_spikes.off, leaked ? 1U : 0U};
        if (out.failure.empty() && leaked != expectedLeak(defense))
            out.failure = std::string("leakage verdict ") +
                          (leaked ? "leaks" : "does not leak") +
                          ", expected the opposite";
        if (trace)
            trace->probeSamples += run.near.size() + run.far.size();
        return out;
    }

  private:
    /** What one simulated experiment leaves for the verdict. */
    struct Experiment
    {
        std::vector<LatencySample> near;    //!< same-bank probe
        std::vector<LatencySample> far;     //!< cross-bank probe
        std::uint64_t nearReads = 0;
        std::uint64_t farReads = 0;
        std::vector<std::pair<Cycle, Cycle>> onWindows;
        OpOutcome outcome;
    };

    Experiment
    simulate(std::size_t index, LayerTrace *trace) const
    {
        AttackHarness harness(spec_, configs_.at(index));
        MemoryController &mem = harness.mem();

        AttackerConfig victim_config;
        victim_config.targetBank = placement_.victimBank;
        victim_config.targetRow = placement_.victimRow;
        victim_config.poolSize = 4;
        victim_config.burstSpacing = 0x100;
        HammerAgent victim(mem, victim_config);
        AttackerConfig near_config;
        near_config.targetBank = placement_.victimBank;
        near_config.targetRow = placement_.nearRow;
        ProbeAgent near_probe(mem, near_config);
        AttackerConfig far_config;
        far_config.targetBank = placement_.farBank;
        far_config.targetRow = placement_.farRow;
        ProbeAgent far_probe(mem, far_config);
        MemAgent *const agents[] = {&victim, &near_probe, &far_probe};

        // Untraced: the harness steps the agents.  Traced: the same
        // step (agents in order, then the controller) spelled out.
        std::unique_ptr<OpProbe> probe;
        if (trace)
            probe = std::make_unique<OpProbe>(
                *trace, std::vector<MemoryController *>{&mem},
                index == 0);
        else
            for (MemAgent *agent : agents)
                harness.add(agent);
        auto step = [&] {
            if (!trace) {
                harness.step();
                return;
            }
            const Cycle now = mem.now();
            const auto agent_start = Clock::now();
            for (MemAgent *agent : agents)
                agent->tick(mem, now);
            const auto mem_start = Clock::now();
            mem.tick();
            trace->agentS += secondsBetween(agent_start, mem_start);
            trace->memS += secondsBetween(mem_start, Clock::now());
            ++trace->agentSpans;
            ++trace->memSpans;
            trace->sampleQueue(mem);
        };

        std::vector<std::pair<Cycle, Cycle>> on_windows;
        const Cycle phase = nsToCycles(kLeakPhaseMs * 1.0e6);
        for (int burst = 0; burst < kLeakBursts; ++burst) {
            const Cycle on_end = harness.now() + phase;
            on_windows.emplace_back(harness.now(), on_end);
            while (harness.now() < on_end) {
                if (victim.done())
                    victim.startHammer(spec_.prac.nbo +
                                       spec_.prac.aboAct + 4);
                step();
            }
            victim.stop();
            const Cycle off_end = harness.now() + phase;
            while (harness.now() < off_end)
                step();
        }

        Experiment run{near_probe.samples(), far_probe.samples(),
                       near_probe.completed(), far_probe.completed(),
                       std::move(on_windows), {}};
        run.outcome.channels.push_back(channelOutcome(mem));
        if (trace)
            probe->finish(run.outcome);
        return run;
    }

    DramSpec spec_;
    Placement placement_;
    std::vector<ControllerConfig> configs_;
    Cycle nearCeiling_ = 0;
    Cycle farCeiling_ = 0;
};

} // namespace

const std::vector<std::string> &
defenses()
{
    static const std::vector<std::string> list = {
        "none", "abo-only", "abo+acb-rfm", "tprac",
        "para", "graphene", "pb-rfm"};
    return list;
}

bool
expectedLeak(const std::string &defense)
{
    return defense == "abo-only" || defense == "abo+acb-rfm" ||
           defense == "graphene" || defense == "pb-rfm";
}

std::uint64_t
OpOutcome::simCycles() const
{
    std::uint64_t total = 0;
    for (const ChannelOutcome &channel : channels)
        total += channel.endCycle;
    return total;
}

std::uint64_t
OpOutcome::fingerprint() const
{
    Fnv fnv;
    fnv.add(name);
    for (const std::uint64_t instrs : coreInstrs)
        fnv.add(instrs);
    for (const Cycle cycles : coreCycles)
        fnv.add(cycles);
    for (const ChannelOutcome &channel : channels) {
        const trace::TraceChannelStats &s = channel.stats;
        for (const std::uint64_t value :
             {s.requests, s.acts, s.reads, s.writes, s.refreshes,
              s.alerts, s.mitigationEvents, s.mitigatedRows,
              static_cast<std::uint64_t>(s.maxCounterSeen),
              channel.endCycle})
            fnv.add(value);
        for (const std::uint64_t rfms : s.rfms)
            fnv.add(rfms);
    }
    for (const double value : throughput)
        fnv.add(value);
    for (const std::uint64_t value : extra)
        fnv.add(value);
    return fnv.hash;
}

ProtocolGate::ProtocolGate(const DramSpec &spec, std::size_t channels)
    : checkers_(channels, TimingChecker(spec))
{
}

void
ProtocolGate::observe(std::size_t channel, const Command &cmd, Cycle at)
{
    checkers_.at(channel).observe(cmd, at);
}

std::uint64_t
ProtocolGate::violations() const
{
    std::uint64_t total = 0;
    for (const TimingChecker &checker : checkers_)
        total += checker.violations().size();
    return total;
}

void
ProtocolGate::judge(OpOutcome &op) const
{
    for (std::size_t c = 0; c < checkers_.size() && op.failure.empty(); ++c)
        if (!checkers_[c].clean())
            op.failure = "channel " + std::to_string(c) + ": " +
                         checkers_[c].violations().front();
}

void
LayerTrace::sampleQueue(const MemoryController &mem)
{
    const std::size_t depth = mem.queueDepth();
    if (queueDepth.size() <= depth)
        queueDepth.resize(depth + 1, 0);
    ++queueDepth[depth];
    if (!mem.canAccept())
        ++fullQueueSteps;
}

void
LayerTrace::bookChannel(const MemoryController &mem)
{
    const SchedCounters &s = mem.schedCounters();
    sched.ticksFired += s.ticksFired;
    sched.cyclesJumped += s.cyclesJumped;
    sched.nextWorkCacheHits += s.nextWorkCacheHits;
    sched.nextWorkRebuilds += s.nextWorkRebuilds;
    sched.nextWorkHintRebuilds += s.nextWorkHintRebuilds;
    for (std::size_t t = 0; t < commands.size(); ++t)
        commands[t] += mem.dram().issueCount(static_cast<CmdType>(t));
    alerts += mem.prac().alerts();
    maxCounter = std::max(maxCounter, mem.prac().counters().maxEverSeen());
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "system_tprac", "replay_8ch", "attack_leakage"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "system_tprac")
        return std::make_unique<SystemTprac>();
    if (name == "replay_8ch")
        return std::make_unique<Replay8ch>();
    if (name == "attack_leakage")
        return std::make_unique<AttackLeakage>();
    throw std::invalid_argument("unknown workload '" + name + "'");
}

double
weightedSpeedup(const std::vector<OpOutcome> &round)
{
    const OpOutcome *none = nullptr;
    const OpOutcome *tprac = nullptr;
    for (const OpOutcome &op : round) {
        const std::string defense = op.name.substr(op.name.find('/') + 1);
        if (defense == "none")
            none = &op;
        if (defense == "tprac")
            tprac = &op;
    }
    if (!none || !tprac || none->throughput.empty() ||
        none->throughput.size() != tprac->throughput.size())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < none->throughput.size(); ++i)
        sum += tprac->throughput[i] / none->throughput[i];
    return sum / static_cast<double>(none->throughput.size());
}

} // namespace perfbench
