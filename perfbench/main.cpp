/**
 * @file
 * perfbench: run one benchmark workload in this process and print its
 * metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 reports the end-to-end metrics: set-up time (median of
 * repeated set-ups), simulated controller cycles per host second
 * (rounds of every op repeat for S seconds; each op's median time
 * counts), peak RSS, and weighted speedup.  Host times are rescaled
 * to a reference host speed (HostClock).  --trace 1 runs one untraced
 * and one traced round and reports the per-layer metrics.  One JSON line per op of the
 * first round carries its fingerprint and exact counters; the last
 * line is the result object.  The exit code is 1 when any op failed
 * its correctness gate, 2 on a usage or run-time error.
 *
 * The simulator model is not validated against hardware, so no error
 * figure is reported for any simulated result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "sim/design.h"

namespace {

using perfbench::OpOutcome;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Host-speed calibration.  On a shared host the speed one process gets
 * drifts by up to +-30% within seconds (seen on a 4-vCPU Xeon VM, with
 * no steal time: process CPU time drifts the same), which swamps the
 * regressions the bounds are meant to catch.  A fixed kernel is timed
 * right before and after every measured interval, and the interval is
 * rescaled to the host speed at which the kernel takes
 * kReferenceSeconds.  The kernel matches the kind of work timed, since
 * host contention slows memory-bound work far more than arithmetic:
 *
 *  - Simulation: random finds, inserts and erases on an 8K-key hash
 *    map, the kind of work the simulator's maps and queues do.  On
 *    that VM it tracked the simulator's op times best overall of the
 *    kernels tried (random read-modify-writes over a 256 KiB or a
 *    32 MiB table, sorting, floating-point divides).
 *  - Arithmetic: a chain of floating-point divides, like the TPRAC
 *    window analysis that makes up system_tprac's set-up.  Rescaled
 *    by the hash map instead, that set-up swung by 35% between
 *    batches of runs; by this kernel it held within 1%.
 *
 * The kernels are benchmark code: a change to the simulator moves the
 * rescaled time exactly as it moves the raw one.
 */
class HostClock
{
  public:
    enum class Kind
    {
        Simulation,
        Arithmetic
    };

    /** Run @p work of @p kind; its host seconds at the reference speed. */
    template <typename Work>
    double
    time(Work &&work, Kind kind = Kind::Simulation)
    {
        const double before = kernelSeconds(kind);
        const auto start = Clock::now();
        work();
        const double raw = secondsSince(start);
        const double after = kernelSeconds(kind);
        return raw * kReferenceSeconds / (0.5 * (before + after));
    }

  private:
    static constexpr double kReferenceSeconds = 0.01;

    double
    kernelSeconds(Kind kind)
    {
        return kind == Kind::Simulation ? hashMapSeconds()
                                        : divideSeconds();
    }

    double
    divideSeconds()
    {
        const auto start = Clock::now();
        double acc = 1.0;
        double step = 0.0;
        for (int i = 0; i < 1'000'000; ++i) {
            step += 0.37;
            acc = acc * 0.999 + step / (acc + 3.0);
            if (acc > 1e6)
                acc = 1.0;
        }
        sink_ = sink_ + acc;
        return secondsSince(start);
    }

    double
    hashMapSeconds()
    {
        const auto start = Clock::now();
        for (int i = 0; i < 300'000; ++i) {
            state_ = state_ * 6364136223846793005ULL +
                     1442695040888963407ULL;
            const std::uint64_t key = (state_ >> 40) & 8191;
            const auto it = map_.find(key);
            if (it == map_.end())
                map_.emplace(key, state_);
            else if (state_ & (std::uint64_t{1} << 20))
                map_.erase(it);
            else
                it->second += state_;
        }
        return secondsSince(start);
    }

    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    std::uint64_t state_ = 12345;
    volatile double sink_ = 0.0;
};

struct Round
{
    std::vector<OpOutcome> ops;
    std::vector<double> opSeconds;  //!< rescaled by HostClock

    double
    seconds() const
    {
        double total = 0.0;
        for (const double op : opSeconds)
            total += op;
        return total;
    }

    std::uint64_t
    simCycles() const
    {
        std::uint64_t total = 0;
        for (const OpOutcome &op : ops)
            total += op.simCycles();
        return total;
    }
};

Round
runRound(perfbench::Workload &workload, perfbench::LayerTrace *trace,
         HostClock &clock)
{
    // Every round simulates from scratch: nothing here memoizes, and
    // the design helpers' baseline cache is dropped for good measure.
    pracleak::sim::clearBaselineCache();
    Round round;
    for (std::size_t i = 0; i < workload.ops().size(); ++i)
        round.opSeconds.push_back(clock.time(
            [&] { round.ops.push_back(workload.run(i, trace)); }));
    return round;
}

void
printOp(const OpOutcome &op, const char *mode)
{
    std::uint64_t acts = 0, reads = 0, writes = 0, refreshes = 0,
                  rfms = 0, alerts = 0, instrs = 0;
    for (const perfbench::ChannelOutcome &channel : op.channels) {
        acts += channel.stats.acts;
        reads += channel.stats.reads;
        writes += channel.stats.writes;
        refreshes += channel.stats.refreshes;
        alerts += channel.stats.alerts;
        for (const std::uint64_t count : channel.stats.rfms)
            rfms += count;
    }
    for (const std::uint64_t count : op.coreInstrs)
        instrs += count;
    std::printf("{\"op\": \"%s\", \"mode\": \"%s\", "
                "\"fingerprint\": \"%016llx\", \"sim_cycles\": %llu, "
                "\"counters\": {\"instrs\": %llu, \"acts\": %llu, "
                "\"reads\": %llu, \"writes\": %llu, "
                "\"refreshes\": %llu, \"rfms\": %llu, "
                "\"alerts\": %llu}, \"failure\": \"%s\"}\n",
                op.name.c_str(), mode,
                static_cast<unsigned long long>(op.fingerprint()),
                static_cast<unsigned long long>(op.simCycles()),
                static_cast<unsigned long long>(instrs),
                static_cast<unsigned long long>(acts),
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(writes),
                static_cast<unsigned long long>(refreshes),
                static_cast<unsigned long long>(rfms),
                static_cast<unsigned long long>(alerts),
                op.failure.c_str());
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * Median of repeated set-ups: at least 3 samples, more while under
 * 1 s.  A sample repeats the set-up until it lasts 10 ms and counts
 * the mean, so a set-up of a few microseconds is timed steadily too.
 */
double
setupSeconds(perfbench::Workload &workload, std::uint64_t seed,
             HostClock &clock)
{
    std::vector<double> samples;
    double total = 0.0;
    int batch = 1;
    const HostClock::Kind kind = workload.setupSimulates()
                                     ? HostClock::Kind::Simulation
                                     : HostClock::Kind::Arithmetic;
    while (samples.size() < 3 || (total < 1.0 && samples.size() < 15)) {
        const double seconds = clock.time(
            [&] {
                for (int i = 0; i < batch; ++i)
                    workload.setup(seed, nullptr);
            },
            kind);
        if (seconds < 0.01 && batch < (1 << 20)) {
            batch *= 2;
            continue;
        }
        samples.push_back(seconds / batch);
        total += seconds;
    }
    return median(samples);
}

/** Attempted and failed ops over a set of rounds. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const std::vector<OpOutcome> &ops)
    {
        for (const OpOutcome &op : ops) {
            ++attempted;
            failed += op.failure.empty() ? 0 : 1;
        }
    }
};

int
runEndToEnd(perfbench::Workload &workload, std::uint64_t seed,
            double seconds)
{
    HostClock clock;
    const double setup_s = setupSeconds(workload, seed, clock);

    std::vector<Round> rounds;
    const auto start = Clock::now();
    do {
        rounds.push_back(runRound(workload, nullptr, clock));
    } while (secondsSince(start) < seconds);

    // Repeats must reproduce the first round bit for bit.
    Tally tally;
    for (Round &round : rounds) {
        for (std::size_t i = 0; i < round.ops.size(); ++i)
            if (round.ops[i].failure.empty() &&
                round.ops[i].fingerprint() !=
                    rounds.front().ops[i].fingerprint())
                round.ops[i].failure =
                    "fingerprint differs from the first round";
        tally.add(round.ops);
    }
    for (const OpOutcome &op : rounds.front().ops)
        printOp(op, "untraced");
    for (const Round &round : rounds)
        for (const OpOutcome &op : round.ops)
            if (!op.failure.empty())
                std::fprintf(stderr, "perfbench: %s failed: %s\n",
                             op.name.c_str(), op.failure.c_str());

    // One round's simulated cycles over the sum of each op's median
    // time across the rounds.
    double op_medians = 0.0;
    for (std::size_t i = 0; i < rounds.front().ops.size(); ++i) {
        std::vector<double> times;
        for (const Round &round : rounds)
            times.push_back(round.opSeconds[i]);
        op_medians += median(times);
    }
    const std::vector<Metric> metrics = {
        {"setup_s", setup_s, "s"},
        {"sim_cycles_per_s",
         static_cast<double>(rounds.front().simCycles()) / op_medians,
         "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"weighted_speedup",
         perfbench::weightedSpeedup(rounds.front().ops), "ratio"},
    };
    printResult(tally.failed == 0, tally.attempted, tally.failed,
                metrics);
    return tally.failed == 0 ? 0 : 1;
}

std::string
metricKey(std::string defense)
{
    std::replace(defense.begin(), defense.end(), '+', '-');
    return defense;
}

double
percentile(const std::vector<std::uint64_t> &histogram, double p)
{
    std::uint64_t total = 0;
    for (const std::uint64_t count : histogram)
        total += count;
    std::uint64_t seen = 0;
    for (std::size_t depth = 0; depth < histogram.size(); ++depth) {
        seen += histogram[depth];
        if (total > 0 && static_cast<double>(seen) >= p * total)
            return static_cast<double>(depth);
    }
    return 0.0;
}

int
runTraced(perfbench::Workload &workload, std::uint64_t seed)
{
    perfbench::LayerTrace trace;
    workload.setup(seed, &trace);
    HostClock clock;
    const Round untraced = runRound(workload, nullptr, clock);
    Round traced = runRound(workload, &trace, clock);

    // The traced run must reproduce the untraced outcome exactly.
    for (std::size_t i = 0; i < traced.ops.size(); ++i)
        if (traced.ops[i].failure.empty() &&
            traced.ops[i].fingerprint() !=
                untraced.ops[i].fingerprint())
            traced.ops[i].failure =
                "traced outcome differs from the untraced run";
    Tally tally;
    tally.add(untraced.ops);
    tally.add(traced.ops);
    for (const OpOutcome &op : traced.ops) {
        printOp(op, "traced");
        if (!op.failure.empty())
            std::fprintf(stderr, "perfbench: %s failed: %s\n",
                         op.name.c_str(), op.failure.c_str());
    }

    const perfbench::LayerCosts costs =
        perfbench::measureLayers(trace.capture);
    const pracleak::SchedCounters &sched = trace.sched;
    std::uint64_t commands = 0;
    for (const std::uint64_t count : trace.commands)
        commands += count;
    auto count = [&](pracleak::CmdType type) {
        return static_cast<double>(
            trace.commands[static_cast<std::size_t>(type)]);
    };
    // A span's time less the clock read it includes.  A nested span
    // (workload.next in a core tick, the checker in a mem step) also
    // leaves one read of its own in the span around it.
    auto net = [&](double seconds, std::uint64_t spans) {
        return seconds - costs.clockReadS * static_cast<double>(spans);
    };
    const double next_s =
        net(trace.workloadNextS, trace.workloadNextCalls);
    const double core_s = net(trace.coreTickS - trace.workloadNextS,
                              trace.coreTickSpans + trace.workloadNextCalls);
    const double mem_s = net(trace.memS - trace.checkerS,
                             trace.memSpans + trace.checkerSpans);
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    std::vector<Metric> metrics = {
        {"workload.next_ns",
         1e9 * ratio(next_s, static_cast<double>(trace.workloadNextCalls)),
         "ns"},
        {"cpu.core_tick_s", core_s, "s"},
        {"cpu.core_ticks", static_cast<double>(trace.coreTicks), "count"},
        {"cpu.instrs", static_cast<double>(trace.instrs), "count"},
        {"cpu.ff_skip_ratio",
         ratio(static_cast<double>(trace.ffSkipped),
               static_cast<double>(trace.systemCycles)),
         "ratio"},
        {"cpu.tag_lookup_ns", costs.tagLookupNs, "ns"},
        {"mem.advance_s", mem_s, "s"},
        {"mem.ns_per_tick",
         1e9 * ratio(mem_s, static_cast<double>(sched.ticksFired)), "ns"},
        {"mem.ticks_fired", static_cast<double>(sched.ticksFired),
         "count"},
        {"mem.cycles_jumped", static_cast<double>(sched.cyclesJumped),
         "count"},
        {"mem.nextwork_rebuilds",
         static_cast<double>(sched.nextWorkRebuilds), "count"},
        {"mem.nextwork_hint_rebuilds",
         static_cast<double>(sched.nextWorkHintRebuilds), "count"},
        {"mem.nextwork_cache_hits",
         static_cast<double>(sched.nextWorkCacheHits), "count"},
        {"mem.useful_tick_ratio",
         ratio(static_cast<double>(commands),
               static_cast<double>(sched.ticksFired)),
         "ratio"},
        {"mem.queue_depth_p50", percentile(trace.queueDepth, 0.50),
         "count"},
        {"mem.queue_depth_p95", percentile(trace.queueDepth, 0.95),
         "count"},
        {"mem.enqueue_retries", static_cast<double>(trace.fullQueueSteps),
         "count"},
    };
    for (const auto &[depth, ns] : costs.tickNs)
        metrics.push_back(
            {"mem.tick_ns.q" + std::to_string(depth), ns, "ns"});
    const std::vector<Metric> more = {
        {"dram.earliest_issue_ns", costs.earliestIssueNs, "ns"},
        {"dram.issue_ns", costs.issueNs, "ns"},
        {"dram.commands", static_cast<double>(commands), "count"},
        {"dram.acts", count(pracleak::CmdType::ACT), "count"},
        {"dram.rfms",
         count(pracleak::CmdType::RFMab) + count(pracleak::CmdType::RFMpb),
         "count"},
        {"dram.timing_violations", static_cast<double>(trace.violations),
         "count"},
        {"prac.on_activate_ns", costs.pracOnActivateNs, "ns"},
        {"prac.alerts", static_cast<double>(trace.alerts), "count"},
        {"prac.max_counter", static_cast<double>(trace.maxCounter),
         "count"},
    };
    metrics.insert(metrics.end(), more.begin(), more.end());
    for (const auto &[defense, cost] : costs.mitigation) {
        const std::string key = "mitigation." + metricKey(defense);
        metrics.push_back({key + ".on_activate_ns", cost.onActivateNs,
                           "ns"});
        metrics.push_back({key + ".poll_ns", cost.pollNs, "ns"});
        metrics.push_back(
            {key + ".rfms", static_cast<double>(cost.rfms), "count"});
    }
    metrics.push_back({"trace.serialize_s", trace.serializeS, "s"});
    metrics.push_back({"trace.parse_s", trace.parseS, "s"});
    metrics.push_back(
        {"trace.bytes", static_cast<double>(trace.traceBytes), "B"});
    metrics.push_back(
        {"trace.records", static_cast<double>(trace.traceRecords),
         "count"});
    for (const std::string &defense : perfbench::defenses()) {
        const auto it = trace.replayS.find(defense);
        metrics.push_back({"trace.replay_s." + metricKey(defense),
                           it == trace.replayS.end() ? 0.0 : it->second,
                           "s"});
    }
    metrics.push_back({"trace.undelivered_requests",
                       static_cast<double>(trace.undelivered), "count"});
    metrics.push_back({"attack.agent_tick_s",
                       net(trace.agentS, trace.agentSpans), "s"});
    metrics.push_back({"attack.probe_samples",
                       static_cast<double>(trace.probeSamples), "count"});
    metrics.push_back(
        {"bench.trace_overhead_pct",
         100.0 * (traced.seconds() / untraced.seconds() - 1.0), "%"});
    // Most of that overhead: the TimingChecker behind the protocol gate.
    metrics.push_back({"bench.protocol_gate_s",
                       net(trace.checkerS, trace.checkerSpans), "s"});

    printResult(tally.failed == 0, tally.attempted, tally.failed,
                metrics);
    return tally.failed == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads:");
    for (const std::string &name : perfbench::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    int traced = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload_name = value;
            continue;
        }
        if (flag == "--seed")
            seed = std::strtoull(value, &end, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value, &end);
        else if (flag == "--trace")
            traced = static_cast<int>(std::strtol(value, &end, 10));
        else
            return usage();
        if (end == value || *end != '\0')
            return usage();
    }
    if (workload_name.empty() || seconds <= 0.0 ||
        (traced != 0 && traced != 1))
        return usage();

    try {
        const auto workload = perfbench::makeWorkload(workload_name);
        return traced ? runTraced(*workload, seed)
                      : runEndToEnd(*workload, seed, seconds);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }
}
