/**
 * @file
 * The repository benchmark: three workloads that drive the pracleak
 * simulator through its public layer interfaces, an untraced run
 * for the end-to-end metrics, and a traced run that steps the same
 * public pieces itself so spans and counts can be taken around each
 * layer without touching the simulator.
 *
 *  - system_tprac:   full 4-core System, h_rand_heavy, 1 channel of
 *                    DDR5-8000B at NBO 1024; ops = {none, tprac}.
 *  - replay_8ch:     cloud_mix recorded on 8 channels under "none",
 *                    serialized and parsed in set-up; ops = one
 *                    trace::replayTrace per bake-off defense.
 *  - attack_leakage: the defense_matrix_leakage experiment (ON/OFF
 *                    victim bursts, same-bank and cross-bank probes,
 *                    1 channel, NBO 256); ops = one run per defense.
 *
 * One op is one simulation.  Every op passes a correctness gate (see
 * OpOutcome::failure) and yields a fingerprint of every simulated
 * statistic it exposes, so two runs of one commit -- and the traced
 * and untraced runs -- can be compared bit for bit.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dram/command.h"
#include "dram/timing_checker.h"
#include "mem/controller.h"
#include "trace/trace.h"

namespace perfbench {

using pracleak::Cycle;

/** The seven bake-off defenses, in catalog order. */
const std::vector<std::string> &defenses();

/** Known leakage verdict of @p defense in attack_leakage. */
bool expectedLeak(const std::string &defense);

/** One channel at the end of an op. */
struct ChannelOutcome
{
    pracleak::trace::TraceChannelStats stats;
    Cycle endCycle = 0;
};

/** Everything one op produced. */
struct OpOutcome
{
    std::string name;                       //!< "<workload>/<defense>"
    std::vector<std::uint64_t> coreInstrs;  //!< measure window
    std::vector<Cycle> coreCycles;
    std::vector<ChannelOutcome> channels;

    /**
     * Work per request source (core IPC, replayed requests per
     * channel, completed probe reads): weighted speedup is the mean
     * of their tprac/none ratios.
     */
    std::vector<double> throughput;

    /** Workload-specific outcome counts (spikes, drain status). */
    std::vector<std::uint64_t> extra;

    /**
     * Why the op failed its correctness gate; empty when it passed.
     * A failure is a TimingChecker violation on any channel (traced
     * run), a same-defense replay that does not match the
     * recording, a leakage verdict off the known table, or a core
     * short of its measure budget.
     */
    std::string failure;

    /** Simulated controller cycles, summed over channels. */
    std::uint64_t simCycles() const;

    /** FNV-1a over every simulated statistic above. */
    std::uint64_t fingerprint() const;
};

/**
 * Independent protocol check of every channel of one op: a
 * TimingChecker per channel, fed through DramDevice::setTraceSink.
 */
class ProtocolGate
{
  public:
    /** Check @p channels channels of @p spec. */
    ProtocolGate(const pracleak::DramSpec &spec, std::size_t channels);

    /** Observe one issued command on @p channel. */
    void observe(std::size_t channel, const pracleak::Command &cmd,
                 Cycle at);

    /** Total violations over all channels. */
    std::uint64_t violations() const;

    /** Fail @p op with the first violation, unless it already failed. */
    void judge(OpOutcome &op) const;

  private:
    std::vector<pracleak::TimingChecker> checkers_;
};

/** Inputs captured from a traced op for the per-layer microcases. */
struct Capture
{
    pracleak::DramSpec spec;
    pracleak::ControllerConfig config;  //!< channel 0's
    std::vector<std::pair<pracleak::Command, Cycle>> commands;
    std::vector<pracleak::trace::TraceRecord> requests;
};

/** Spans (host seconds) and counts a traced run accumulates. */
struct LayerTrace
{
    // Every span includes the cost of its own clock reads; the counts
    // of spans let the report subtract it (LayerCosts::clockReadS).
    double workloadNextS = 0.0;
    std::uint64_t workloadNextCalls = 0;
    double coreTickS = 0.0;         //!< includes workload.next spans
    std::uint64_t coreTickSpans = 0;
    std::uint64_t coreTicks = 0;
    std::uint64_t instrs = 0;
    Cycle ffSkipped = 0;
    Cycle systemCycles = 0;

    double memS = 0.0;              //!< includes the checker's spans
    std::uint64_t memSpans = 0;
    double checkerS = 0.0;
    std::uint64_t checkerSpans = 0;
    double agentS = 0.0;
    std::uint64_t agentSpans = 0;
    pracleak::SchedCounters sched;
    std::array<std::uint64_t, 7> commands{};   //!< by CmdType
    std::uint64_t violations = 0;
    std::uint64_t alerts = 0;
    std::uint32_t maxCounter = 0;
    std::vector<std::uint64_t> queueDepth;     //!< histogram by depth
    std::uint64_t fullQueueSteps = 0;
    std::uint64_t probeSamples = 0;

    double serializeS = 0.0;
    double parseS = 0.0;
    std::uint64_t traceBytes = 0;
    std::uint64_t traceRecords = 0;
    std::uint64_t undelivered = 0;
    std::map<std::string, double> replayS;

    Capture capture;            //!< from the first op

    /** Sample a channel's queue depth at the end of one loop step. */
    void sampleQueue(const pracleak::MemoryController &mem);

    /** Book the end-of-op counters of one channel. */
    void bookChannel(const pracleak::MemoryController &mem);
};

/** Host cost of each layer's hot calls on one Capture's inputs. */
struct LayerCosts
{
    double clockReadS = 0.0;        //!< one Clock::now(), per span
    double tagLookupNs = 0.0;       //!< TagArray::lookup, LLC geometry
    std::map<std::size_t, double> tickNs;   //!< by held queue depth
    double earliestIssueNs = 0.0;   //!< DramDevice::earliestIssue
    double issueNs = 0.0;           //!< DramDevice::issue
    double pracOnActivateNs = 0.0;  //!< PracEngine listener, per ACT

    struct Defense
    {
        double onActivateNs = 0.0;
        double pollNs = 0.0;        //!< maintenanceCommands + next...At
        std::uint64_t rfms = 0;     //!< RFMs the defense asked for
    };
    std::map<std::string, Defense> mitigation;
};

/**
 * Replay @p capture into fresh layer instances and time their hot
 * calls: the request lines into an LLC-sized TagArray, the requests
 * into a controller held at queue depths 8, 32 and 64, the command
 * stream into a DramDevice and a PracEngine, and its ACTs into every
 * bake-off defense built by makeMitigation.
 */
LayerCosts measureLayers(const Capture &capture);

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /**
     * Build the inputs every op shares from @p seed (0 reproduces the
     * suite's own inputs); timed as setup_s.  A non-null @p trace
     * receives the trace-layer spans of the set-up.
     */
    virtual void setup(std::uint64_t seed, LayerTrace *trace) = 0;

    /**
     * Whether setup() runs a simulation; otherwise it only derives
     * configs, which is floating-point analysis.  Picks the reference
     * kernel setup_s is rescaled by (HostClock in main.cpp).
     */
    virtual bool setupSimulates() const { return true; }

    /** Op names, in run order; op 0 is always the "none" defense. */
    virtual std::vector<std::string> ops() const = 0;

    /**
     * Run op @p index.  A null @p trace runs the untraced op;
     * otherwise the traced run records spans and counts into it.
     * Ops must run in index order within a round.
     */
    virtual OpOutcome run(std::size_t index, LayerTrace *trace) = 0;
};

/** The benchmark's workload names. */
const std::vector<std::string> &workloadNames();

/** Workload @p name; throws on unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/**
 * Weighted speedup of a round: the mean over request sources of
 * throughput(tprac) / throughput(none).
 */
double weightedSpeedup(const std::vector<OpOutcome> &round);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
