/**
 * @file
 * Tests for the trace core, workload generators, and the full System
 * harness (warm-up/measure methodology, weighted speedup).
 */

#include <gtest/gtest.h>

#include <set>

#include "cpu/system.h"
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
    EXPECT_GT(defended.tbRfms, 0u);
    EXPECT_EQ(defended.alerts, 0u);
    EXPECT_EQ(defended.aboRfms, 0u);
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
    EXPECT_EQ(abod.alerts, 0u);
    EXPECT_NEAR(normalizedPerf(abod, base), 1.0, 0.02);
}

TEST(System, WeightedSpeedupIdentity)
{
    RunResult a;
    a.cores = {{"w", 100, 100, 1.0}, {"w", 100, 100, 2.0}};
    EXPECT_DOUBLE_EQ(normalizedPerf(a, a), 1.0);
}

} // namespace
} // namespace pracleak
