/**
 * @file
 * Idle-cycle fast-forward correctness: with fast-forward on vs off,
 * every reported statistic -- IPC, cycles, alerts, RFMs, energy
 * counts -- must be identical.  Fast-forward is purely a wall-clock
 * optimization; any divergence here is a bug in the next-event
 * bookkeeping (TraceCore::nextEventAt / MemoryController::nextWorkAt).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cpu/system.h"
#include "sim/design.h"
#include "workload/suite.h"
#include "workload/synthetic.h"

namespace pracleak {
namespace {

void
expectIdentical(const RunResult &off, const RunResult &on)
{
    EXPECT_EQ(off.measureCycles, on.measureCycles);
    EXPECT_EQ(off.aboRfms, on.aboRfms);
    EXPECT_EQ(off.acbRfms, on.acbRfms);
    EXPECT_EQ(off.tbRfms, on.tbRfms);
    EXPECT_EQ(off.tbRfmsSkipped, on.tbRfmsSkipped);
    EXPECT_EQ(off.alerts, on.alerts);
    EXPECT_EQ(off.rowMisses, on.rowMisses);
    EXPECT_EQ(off.maxCounterSeen, on.maxCounterSeen);
    EXPECT_EQ(off.energyCounts.acts, on.energyCounts.acts);
    EXPECT_EQ(off.energyCounts.reads, on.energyCounts.reads);
    EXPECT_EQ(off.energyCounts.writes, on.energyCounts.writes);
    EXPECT_EQ(off.energyCounts.refreshes, on.energyCounts.refreshes);
    EXPECT_EQ(off.energyCounts.mitigatedRows,
              on.energyCounts.mitigatedRows);
    EXPECT_DOUBLE_EQ(off.energy.totalNj(), on.energy.totalNj());
    ASSERT_EQ(off.cores.size(), on.cores.size());
    for (std::size_t i = 0; i < off.cores.size(); ++i) {
        EXPECT_EQ(off.cores[i].instrs, on.cores[i].instrs);
        EXPECT_EQ(off.cores[i].cycles, on.cores[i].cycles);
        EXPECT_DOUBLE_EQ(off.cores[i].ipc, on.cores[i].ipc);
    }
    ASSERT_EQ(off.channels.size(), on.channels.size());
    for (std::size_t c = 0; c < off.channels.size(); ++c) {
        EXPECT_EQ(off.channels[c].energyCounts.acts,
                  on.channels[c].energyCounts.acts);
        EXPECT_EQ(off.channels[c].tbRfms, on.channels[c].tbRfms);
        EXPECT_EQ(off.channels[c].alerts, on.channels[c].alerts);
    }
}

RunResult
runSuiteEntry(const char *entry, const char *defense,
              bool fast_forward, std::uint32_t channels = 1)
{
    sim::DesignConfig design;
    design.label = "ff-test";
    design.mitigation = defense;
    design.fastForward = fast_forward;
    design.channels = channels;
    sim::RunBudget budget;
    budget.warmup = 10'000;
    budget.measure = 80'000;
    return sim::runOne(sim::findSuiteEntry(entry), design, budget, 4);
}

TEST(FastForward, MixedWorkloadIdenticalWithTprac)
{
    // The heterogeneous cloud mix exercises refreshes, TB-RFMs, and
    // four different stall patterns at once.
    const RunResult off =
        runSuiteEntry("cloud_mix", "tprac", false);
    const RunResult on =
        runSuiteEntry("cloud_mix", "tprac", true);
    expectIdentical(off, on);
}

TEST(FastForward, PointerChaseIdenticalAndActuallySkips)
{
    const RunResult off =
        runSuiteEntry("h_chase", "tprac", false);
    const RunResult on =
        runSuiteEntry("h_chase", "tprac", true);
    expectIdentical(off, on);
    EXPECT_EQ(off.ffCyclesSkipped, 0u);
    EXPECT_GT(on.ffCyclesSkipped, 0u)
        << "a dependent chase must trigger idle-cycle skips";
}

TEST(FastForward, MultiChannelIdentical)
{
    const RunResult off =
        runSuiteEntry("h_chase", "tprac", false, 2);
    const RunResult on =
        runSuiteEntry("h_chase", "tprac", true, 2);
    expectIdentical(off, on);
}

TEST(FastForward, CacheResidentChaseSkipsDeepAndStaysExact)
{
    // A cache-resident pointer chase is the fast-forward sweet spot:
    // long all-core stalls with no DRAM work due.  Over L2- and
    // LLC-sized footprints on one and two cores, a deep share of the
    // cycles must be skipped and every statistic must still match.
    for (const std::uint64_t lines : {4096u, 12288u}) {
        for (const std::uint32_t cores : {1u, 2u}) {
            const WorkloadParams params = pointerChaseParams(lines);
            RunResult results[2];
            for (int ff = 0; ff < 2; ++ff) {
                sim::DesignConfig design;
                design.label = "chase";
                design.mitigation = "tprac";
                design.fastForward = ff == 1;
                sim::RunBudget budget;
                budget.warmup = 60'000;
                budget.measure = 200'000;
                std::vector<std::unique_ptr<WorkloadSource>> sources;
                for (std::uint32_t core = 0; core < cores; ++core)
                    sources.push_back(makeWorkload(params, core));
                System system(sim::makeSystemConfig(design, budget),
                              std::move(sources));
                results[ff] = system.run();
            }
            SCOPED_TRACE(std::to_string(lines) + " lines, " +
                         std::to_string(cores) + " cores");
            expectIdentical(results[0], results[1]);
            EXPECT_GT(results[1].ffCyclesSkipped,
                      results[1].measureCycles / 4)
                << "expected deep skips on a serialized cache-hit "
                   "chase";
        }
    }
}

TEST(FastForward, ObfuscationModeIdentical)
{
    // Random-RFM injection draws once per tREFI from a controller-
    // owned RNG: the draw schedule must survive fast-forward.
    const RunResult off =
        runSuiteEntry("m_blend", "obfuscation", false);
    const RunResult on =
        runSuiteEntry("m_blend", "obfuscation", true);
    expectIdentical(off, on);
}

} // namespace
} // namespace pracleak
