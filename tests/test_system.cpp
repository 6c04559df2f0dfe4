/**
 * @file
 * Tests for the trace core, workload generators, and the full System
 * harness (warm-up/measure methodology, weighted speedup).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "cpu/system.h"
#include "lockstep.h"
#include "mitigation/registry.h"
#include "workload/suite.h"
#include "workload/synthetic.h"

namespace pracleak {
namespace {

SystemConfig
smallConfig(const char *defense, std::uint32_t nbo = 1024)
{
    SystemConfig config;
    config.spec.prac.nbo = nbo;
    configureDefense(config.mem, defense, config.spec);
    config.warmupInstrs = 5'000;
    config.measureInstrs = 50'000;
    return config;
}

TEST(Workload, GeneratesWithinFootprint)
{
    WorkloadParams params;
    params.footprintLines = 1024;
    params.seed = 3;
    SyntheticWorkload workload(params, 0);
    for (int i = 0; i < 10000; ++i) {
        const TraceOp op = workload.next();
        ASSERT_TRUE(op.isMem);
        EXPECT_LT(op.addr, 1024u * kLineBytes);
    }
}

TEST(Workload, WriteFractionApproximatelyHonored)
{
    WorkloadParams params;
    params.writeFraction = 0.3;
    params.seed = 4;
    SyntheticWorkload workload(params, 0);
    int writes = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += workload.next().isWrite;
    EXPECT_NEAR(writes / static_cast<double>(n), 0.3, 0.03);
}

TEST(Workload, SeqProbZeroJumpsEverywhere)
{
    WorkloadParams params;
    params.seqProb = 0.0;
    params.footprintLines = 1ULL << 20;
    params.seed = 5;
    SyntheticWorkload workload(params, 0);
    Addr prev = workload.next().addr;
    int sequential = 0;
    for (int i = 0; i < 1000; ++i) {
        const Addr addr = workload.next().addr;
        sequential += (addr == prev + kLineBytes);
        prev = addr;
    }
    EXPECT_LT(sequential, 10);
}

TEST(Workload, CoresGetDisjointRegions)
{
    WorkloadParams params;
    const auto a = makeWorkload(params, 0);
    const auto b = makeWorkload(params, 1);
    // 32 GB per core: top bits differ.
    EXPECT_NE(static_cast<SyntheticWorkload &>(*a).next().addr >> 35,
              static_cast<SyntheticWorkload &>(*b).next().addr >> 35);
}

TEST(Suite, HasAllCategoriesAndNames)
{
    const auto suite = standardSuite();
    ASSERT_GE(suite.size(), 10u);
    int high = 0, medium = 0, low = 0, hetero = 0;
    std::set<std::string> names;
    for (const auto &entry : suite) {
        names.insert(entry.params.name);
        switch (entry.intensity) {
          case MemIntensity::High: ++high; break;
          case MemIntensity::Medium: ++medium; break;
          case MemIntensity::Low: ++low; break;
        }
        hetero += entry.heterogeneous;
    }
    EXPECT_GE(high, 4);
    EXPECT_GE(medium, 2);
    EXPECT_GE(low, 2);
    EXPECT_GE(hetero, 1);
    EXPECT_EQ(names.size(), suite.size()) << "duplicate names";
}

TEST(Suite, InstantiateHomogeneousAndHetero)
{
    for (const auto &entry : standardSuite()) {
        const auto sources = instantiate(entry, 4);
        ASSERT_EQ(sources.size(), 4u);
        if (entry.heterogeneous) {
            EXPECT_NE(sources[0]->name(), sources[1]->name());
        } else {
            EXPECT_EQ(sources[0]->name(), sources[1]->name());
        }
    }
}

TEST(System, RunsAndReportsIpc)
{
    const SuiteEntry entry = suiteByIntensity(MemIntensity::Medium)[0];
    System system(smallConfig("none"),
                  instantiate(entry, 2));
    const RunResult result = system.run();

    ASSERT_EQ(result.cores.size(), 2u);
    for (const auto &core : result.cores) {
        EXPECT_EQ(core.instrs, 50'000u);
        EXPECT_GT(core.ipc, 0.0);
        EXPECT_LE(core.ipc, 4.0); // retire width bound
    }
    EXPECT_GT(result.measureCycles, 0u);
    EXPECT_GT(result.energy.totalNj(), 0.0);
}

TEST(System, RbmpkiOrdersCategories)
{
    auto measure = [](MemIntensity intensity) {
        SystemConfig config = smallConfig("none");
        // Categories are calibrated for warmed caches; give the
        // cache-resident workloads time to fill their footprints.
        config.warmupInstrs = 100'000;
        config.measureInstrs = 150'000;
        const SuiteEntry entry = suiteByIntensity(intensity)[0];
        System system(config, instantiate(entry, 2));
        return system.run().rbmpki();
    };
    const double high = measure(MemIntensity::High);
    const double medium = measure(MemIntensity::Medium);
    const double low = measure(MemIntensity::Low);

    // Table 4 boundaries.
    EXPECT_GE(high, 10.0);
    EXPECT_GE(medium, 1.0);
    EXPECT_LT(medium, 10.0);
    EXPECT_LT(low, 1.0);
    EXPECT_GT(high, medium);
    EXPECT_GT(medium, low);
}

TEST(System, TpracSlowsDownButStaysSilent)
{
    const SuiteEntry entry = suiteByIntensity(MemIntensity::High)[0];
    System baseline(smallConfig("none"),
                    instantiate(entry, 2));
    System tprac(smallConfig("tprac"),
                 instantiate(entry, 2));

    const RunResult base = baseline.run();
    const RunResult defended = tprac.run();

    const double perf = normalizedPerf(defended, base);
    EXPECT_LT(perf, 1.001);
    EXPECT_GT(perf, 0.85); // paper: worst single workload ~8% at 1024
    EXPECT_GT(defended.stats.rfm(RfmReason::TimingBased), 0u);
    EXPECT_EQ(defended.stats.alerts, 0u);
    EXPECT_EQ(defended.stats.rfm(RfmReason::Abo), 0u);
}

TEST(System, AboOnlyNearZeroOverheadOnBenignWork)
{
    const SuiteEntry entry = suiteByIntensity(MemIntensity::High)[0];
    System baseline(smallConfig("none"),
                    instantiate(entry, 2));
    System abo(smallConfig("abo-only"),
               instantiate(entry, 2));

    const RunResult base = baseline.run();
    const RunResult abod = abo.run();
    // Benign workloads never reach NBO=1024 (Section 6.2).
    EXPECT_EQ(abod.stats.alerts, 0u);
    EXPECT_NEAR(normalizedPerf(abod, base), 1.0, 0.02);
}

TEST(System, ObfuscationRfmsReachRunResult)
{
    // Obfuscation's random RFMs are in the run's record like every
    // other reason's, summed over the channels.
    SystemConfig config = smallConfig("obfuscation");
    config.channels = 2;
    System system(config,
                  instantiate(suiteByIntensity(MemIntensity::High)[0], 2));
    const RunResult result = system.run();

    std::uint64_t issued = 0;
    for (std::size_t c = 0; c < system.channelCount(); ++c)
        issued += system.channel(c).rfmCount(RfmReason::Random);
    EXPECT_GT(result.stats.rfm(RfmReason::Random), 0u);
    EXPECT_EQ(result.stats.rfm(RfmReason::Random), issued);
}

/** One StatSet counter of a golden System run, per clock. */
struct CounterGolden
{
    const char *name;
    std::uint64_t lockstep;   //!< tests/lockstep.h reference
    std::uint64_t eventClock; //!< System::run's default
};

/**
 * Four h_rand_heavy cores under TPRAC against an 8-entry queue: 97% of
 * core cycles end in a refused access.  Cores tick in index order, so
 * cores 0 and 1 take nearly every freed slot and cores 2 and 3 starve;
 * the run ends at maxCycles.  No access merges into an MSHR, so
 * cache.mshr_merges is absent.  Captured from the core that re-ran the
 * lookup of every refused access each cycle: a skipped retry must book
 * its one cache.llc_misses and move nothing else.
 */
const CounterGolden kRefusedRetryCounters[] = {
    {"cache.l1_hits", 0, 0},
    {"cache.l2_hits", 1, 1},
    {"cache.llc_hits", 0, 0},
    {"cache.llc_misses", 194602, 194602},
    {"mem.reads", 1486, 1486},
    {"mem.refreshes", 12, 12},
    {"mem.row_conflicts", 992, 992},
    {"mem.row_hits", 1478, 1478},
    {"mem.row_misses", 1494, 1494},
    {"mem.tb_rfms", 1, 1},
    {"mem.writes", 0, 0},
    {"prac.mitigated_rows", 127, 127},
    {"sched.cycles_jumped", 0, 41895},
    {"sched.nextwork_cache_hits", 0, 0},
    {"sched.nextwork_hint_rebuilds", 45618, 3723},
    {"sched.nextwork_rebuilds", 0, 0},
    {"sched.ticks_fired", 50000, 8105},
};

/** Each core's measured {instructions, cycles}, both clock modes. */
const std::pair<std::uint64_t, Cycle> kRefusedRetryCores[] = {
    {4000, 3785},
    {918, 50000},
    {49, 50000},
    {65, 50000},
};

TEST(System, RefusedRetriesBookedExactly)
{
    SuiteEntry entry;
    for (const SuiteEntry &candidate : standardSuite())
        if (candidate.params.name == "h_rand_heavy")
            entry = candidate;
    for (const bool event_clock : {false, true}) {
        SCOPED_TRACE(event_clock ? "event clock" : "lockstep");
        SystemConfig config = smallConfig("tprac");
        config.mem.queueCapacity = 8;
        config.warmupInstrs = 0;
        config.measureInstrs = 4'000;
        config.maxCycles = 50'000;
        System system(config, instantiate(entry, 4));
        const int level = setLogLevel(0); // the run ends at maxCycles
        const RunResult result = system.run(
            event_clock ? System::advanceOnClock : lockstep::advance);
        setLogLevel(level);

        const auto &counters = system.stats().counters();
        EXPECT_EQ(counters.size(), std::size(kRefusedRetryCounters));
        for (const CounterGolden &golden : kRefusedRetryCounters) {
            const auto it = counters.find(golden.name);
            ASSERT_NE(it, counters.end()) << golden.name;
            EXPECT_EQ(it->second, event_clock ? golden.eventClock
                                              : golden.lockstep)
                << golden.name;
        }
        ASSERT_EQ(result.cores.size(), std::size(kRefusedRetryCores));
        for (std::size_t i = 0; i < result.cores.size(); ++i) {
            EXPECT_EQ(result.cores[i].instrs, kRefusedRetryCores[i].first);
            EXPECT_EQ(result.cores[i].cycles, kRefusedRetryCores[i].second);
        }
    }
}

/**
 * A System is refused at construction with std::invalid_argument,
 * which the CLI reports with exit 2: without a core (a recording would
 * be an empty trace), or with a channel count that is not a non-zero
 * power of two.
 */
TEST(System, RejectsNoCoresAndBadChannelCounts)
{
    const SuiteEntry entry = standardSuite().front();
    for (const std::uint32_t channels : {0u, 3u}) {
        SystemConfig config = smallConfig("none");
        config.channels = channels;
        EXPECT_THROW(System(config, instantiate(entry, 1)),
                     std::invalid_argument)
            << channels;
    }
    EXPECT_THROW(System(smallConfig("none"), instantiate(entry, 0)),
                 std::invalid_argument);
    EXPECT_NO_THROW(System(smallConfig("none"), instantiate(entry, 1)));
}

TEST(System, WeightedSpeedupIdentity)
{
    RunResult a;
    a.cores = {{"w", 100, 100, 1.0}, {"w", 100, 100, 2.0}};
    EXPECT_DOUBLE_EQ(normalizedPerf(a, a), 1.0);
}

} // namespace
} // namespace pracleak
