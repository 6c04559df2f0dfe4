#include "bench.h"

#include <algorithm>
#include <chrono>

#include "cpu/cache.h"
#include "mitigation/registry.h"
#include "prac/prac_engine.h"

namespace perfbench {

using namespace pracleak;

namespace {

using Clock = std::chrono::steady_clock;

/** Keeps measured results observable so the loops are not elided. */
volatile std::uint64_t g_sink = 0;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Median over repeated passes of @p pass, which returns the host
 * seconds it measured itself (so per-pass construction stays out of
 * the timing).  Passes repeat until 5 have run and 0.2 s is spent.
 */
template <typename Pass>
double
medianPass(Pass pass)
{
    std::vector<double> samples;
    double total = 0.0;
    while (samples.size() < 5 || (total < 0.2 && samples.size() < 1000)) {
        samples.push_back(pass());
        total += samples.back();
    }
    return median(samples);
}

/**
 * Medians of two pass kinds run alternately, so drift in the host's
 * speed hits both alike; for costs taken as their difference.
 */
template <typename PassA, typename PassB>
std::pair<double, double>
medianPassPair(PassA pass_a, PassB pass_b)
{
    std::vector<double> a, b;
    double total = 0.0;
    while (a.size() < 5 || (total < 0.4 && a.size() < 1000)) {
        a.push_back(pass_a());
        b.push_back(pass_b());
        total += a.back() + b.back();
    }
    return {median(a), median(b)};
}

/** Median cost of one back-to-back pair of clock reads. */
double
clockPairSeconds()
{
    std::vector<double> samples(1001);
    for (double &sample : samples) {
        const auto a = Clock::now();
        sample = secondsBetween(a, Clock::now());
    }
    return median(samples);
}

std::uint32_t
flatBankOf(const DramOrg &org, const Command &cmd)
{
    return org.flatBank(cmd.rank,
                        cmd.bankGroup * org.banksPerGroup + cmd.bank);
}

double
tagLookupNs(const Capture &capture)
{
    if (capture.requests.empty())
        return 0.0;
    TagArray llc(CacheHierConfig{}.llc);
    for (const trace::TraceRecord &record : capture.requests)
        if (!llc.lookup(record.addr >> kLineShift))
            llc.insert(record.addr >> kLineShift, false);
    const double pass = medianPass([&] {
        std::uint64_t hits = 0;
        const auto start = Clock::now();
        for (const trace::TraceRecord &record : capture.requests)
            hits += llc.lookup(record.addr >> kLineShift);
        const double seconds = secondsBetween(start, Clock::now());
        g_sink = g_sink + hits;
        return seconds;
    });
    return 1e9 * pass / static_cast<double>(capture.requests.size());
}

/**
 * tick() of a fresh controller whose queue is topped back up to
 * @p depth from the captured requests after every tick, so the
 * FR-FCFS scan always sees exactly that many entries.
 */
double
tickNs(const Capture &capture, std::size_t depth, double clock_pair)
{
    const std::vector<trace::TraceRecord> &requests = capture.requests;
    if (requests.empty() || depth > capture.config.queueCapacity)
        return 0.0;
    constexpr int kTicks = 20'000;
    const double pass = medianPass([&] {
        MemoryController mem(capture.spec, capture.config);
        std::size_t next = 0;
        auto refill = [&] {
            while (mem.queueDepth() < depth) {
                const trace::TraceRecord &record =
                    requests[next++ % requests.size()];
                Request request;
                request.type = record.type;
                request.addr = record.addr;
                request.coreId = record.coreId;
                mem.enqueue(std::move(request));
            }
        };
        double seconds = 0.0;
        for (int i = 0; i < kTicks; ++i) {
            refill();
            const auto start = Clock::now();
            mem.tick();
            seconds += secondsBetween(start, Clock::now()) - clock_pair;
        }
        return seconds;
    });
    return 1e9 * pass / kTicks;
}

/**
 * The captured command stream replayed into a fresh DramDevice, once
 * with an earliestIssue() query before each issue() and once
 * without: the difference is the query's cost.
 */
void
dramNs(const Capture &capture, double &earliest_ns, double &issue_ns)
{
    const auto &commands = capture.commands;
    if (commands.empty())
        return;
    auto replay = [&](bool query) {
        return [&, query] {
            DramDevice device(capture.spec);
            Cycle earliest = 0;
            const auto start = Clock::now();
            for (const auto &[cmd, at] : commands) {
                if (query)
                    earliest += device.earliestIssue(cmd);
                device.issue(cmd, at);
            }
            const double seconds = secondsBetween(start, Clock::now());
            g_sink = g_sink + earliest;
            return seconds;
        };
    };
    const double n = static_cast<double>(commands.size());
    const auto [with_query, issue_only] =
        medianPassPair(replay(true), replay(false));
    issue_ns = 1e9 * issue_only / n;
    earliest_ns = 1e9 * (with_query - issue_only) / n;
}

/** The command stream's listener events into a fresh, ABO-armed PRAC
 *  engine, per ACT. */
double
pracOnActivateNs(const Capture &capture)
{
    const DramOrg &org = capture.spec.org;
    std::uint64_t acts = 0;
    for (const auto &entry : capture.commands)
        acts += entry.first.type == CmdType::ACT;
    if (acts == 0)
        return 0.0;
    PracEngineConfig config = capture.config.prac;
    config.aboEnabled = true;
    const double pass = medianPass([&] {
        PracEngine engine(capture.spec, config);
        const auto start = Clock::now();
        for (const auto &[cmd, at] : capture.commands) {
            switch (cmd.type) {
              case CmdType::ACT:
                engine.onActivate(flatBankOf(org, cmd), cmd.row, at);
                break;
              case CmdType::REFab: engine.onRefresh(cmd.rank, at); break;
              case CmdType::RFMab: engine.onRfm(at); break;
              case CmdType::RFMpb:
                engine.onRfmPb(flatBankOf(org, cmd), at);
                break;
              default: break;
            }
        }
        const double seconds = secondsBetween(start, Clock::now());
        g_sink = g_sink + engine.alerts();
        return seconds;
    });
    return 1e9 * pass / static_cast<double>(acts);
}

/**
 * The captured ACTs into a fresh instance of @p defense, with and
 * without polling maintenanceCommands() + nextMaintenanceAt() after
 * each one; requested RFMs are credited back through onRfmIssued().
 */
LayerCosts::Defense
defenseCost(const Capture &capture, const std::string &defense)
{
    LayerCosts::Defense cost;
    std::vector<std::pair<Command, Cycle>> acts;
    for (const auto &entry : capture.commands)
        if (entry.first.type == CmdType::ACT)
            acts.push_back(entry);
    if (acts.empty())
        return cost;

    const DramSpec &spec = capture.spec;
    ControllerConfig config = capture.config;
    configureDefense(config, defense, spec);
    PracEngineConfig prac_config = config.prac;
    prac_config.aboEnabled = findMitigation(defense)->usesAbo;

    auto replay = [&](bool poll) {
        return [&, poll] {
            PracEngine prac(spec, prac_config);
            MitigationContext ctx;
            ctx.spec = &spec;
            ctx.config = &config;
            ctx.prac = &prac;
            const std::unique_ptr<Mitigation> mitigation =
                makeMitigation(defense, ctx);
            std::uint64_t rfms = 0;
            Cycle next = 0;
            const auto start = Clock::now();
            for (const auto &[cmd, at] : acts) {
                mitigation->onActivate(flatBankOf(spec.org, cmd),
                                       cmd.row, at);
                if (!poll)
                    continue;
                const MaintenanceRequest request =
                    mitigation->maintenanceCommands(at);
                if (request.wanted) {
                    const std::uint32_t count =
                        request.perBank ? 1 : request.rfms;
                    for (std::uint32_t i = 0; i < count; ++i)
                        mitigation->onRfmIssued(request.reason,
                                                request.perBank, at);
                    rfms += count;
                }
                next += mitigation->nextMaintenanceAt(at);
            }
            const double seconds = secondsBetween(start, Clock::now());
            g_sink = g_sink + next;
            if (poll)
                cost.rfms = rfms;
            return seconds;
        };
    };
    const double n = static_cast<double>(acts.size());
    const auto [with_poll, hooks_only] =
        medianPassPair(replay(true), replay(false));
    cost.onActivateNs = 1e9 * hooks_only / n;
    cost.pollNs = 1e9 * (with_poll - hooks_only) / n;
    return cost;
}

} // namespace

LayerCosts
measureLayers(const Capture &capture)
{
    LayerCosts costs;
    costs.clockReadS = clockPairSeconds();
    costs.tagLookupNs = tagLookupNs(capture);
    for (const std::size_t depth : {8, 32, 64})
        costs.tickNs[depth] = tickNs(capture, depth, costs.clockReadS);
    dramNs(capture, costs.earliestIssueNs, costs.issueNs);
    costs.pracOnActivateNs = pracOnActivateNs(capture);
    for (const std::string &defense : defenses())
        costs.mitigation[defense] = defenseCost(capture, defense);
    return costs;
}

} // namespace perfbench
