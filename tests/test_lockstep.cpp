/**
 * @file
 * System on the event clock against the per-cycle reference
 * (tests/lockstep.h), one table row per case.  Every statistic must
 * match; a divergence is a bug in the next-event bookkeeping
 * (TraceCore::nextEventAt, MemoryController::nextWorkAt) or in the
 * clock's jump.  Each row is registered under the name it had as a
 * stand-alone test, so ctest runs the rows in parallel and keeps
 * their history.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "lockstep.h"

namespace pracleak {
namespace {

/** One configuration, run on both clocks. */
struct Point
{
    const char *workload;     //!< suite entry, or "chase"
    std::uint64_t chaseLines; //!< the chase's footprint
    const char *defense;
    std::uint32_t channels;
    std::uint32_t cores;
};

/** How much of the measure window the event clock must jump. */
enum class Jumps
{
    Unchecked,
    Some,
    Quarter,
};

struct Case
{
    const char *suite;
    const char *name;
    std::vector<Point> points;
    sim::RunBudget budget;
    std::uint32_t nbo;
    Jumps jumps;
    bool twice; //!< a second event run must equal the first
};

const std::vector<Case> &
cases()
{
    static const std::vector<Case> table = {
        // The heterogeneous cloud mix exercises refreshes, TB-RFMs
        // and four different stall patterns at once.
        {"FastForward", "MixedWorkloadIdenticalWithTprac",
         {{"cloud_mix", 0, "tprac", 1, 4}}, {10'000, 80'000}, 1024,
         Jumps::Unchecked, false},
        // A dependent chase must trigger jumps.
        {"FastForward", "PointerChaseIdenticalAndActuallySkips",
         {{"h_chase", 0, "tprac", 1, 4}}, {10'000, 80'000}, 1024,
         Jumps::Some, false},
        {"FastForward", "MultiChannelIdentical",
         {{"h_chase", 0, "tprac", 2, 4}}, {10'000, 80'000}, 1024,
         Jumps::Unchecked, false},
        // A cache-resident chase is the jump's sweet spot: long
        // all-core stalls with no DRAM work due, over L2- and
        // LLC-sized footprints on one and two cores.
        {"FastForward", "CacheResidentChaseSkipsDeepAndStaysExact",
         {{"chase", 4096, "tprac", 1, 1},
          {"chase", 4096, "tprac", 1, 2},
          {"chase", 12288, "tprac", 1, 1},
          {"chase", 12288, "tprac", 1, 2}},
         {60'000, 200'000}, 1024, Jumps::Quarter, false},
        // Random-RFM injection draws once per tREFI from a
        // controller-owned RNG: the draw schedule must survive jumps.
        {"FastForward", "ObfuscationModeIdentical",
         {{"m_blend", 0, "obfuscation", 1, 4}}, {10'000, 80'000}, 1024,
         Jumps::Unchecked, false},
        // The defenses with the trickiest drain behaviour, on two
        // channels.
        {"EventQueue", "SystemSchedulersIdenticalAcrossDefenses",
         {{"m_blend", 0, "tprac", 2, 4},
          {"m_blend", 0, "graphene", 2, 4},
          {"m_blend", 0, "pb-rfm", 2, 4}},
         {5'000, 40'000}, 1024, Jumps::Unchecked, false},
        // Eight saturating cores keep both channels busy nearly every
        // cycle: jumps are short and the cache-rebuild fusion carries
        // the load.  Two event runs must also agree (determinism).
        {"EventQueue", "SaturatedEightThreadEventPathDeterministic",
         {{"h_rand_heavy", 0, "tprac", 2, 8}}, {2'000, 20'000}, 1024,
         Jumps::Unchecked, true},
        // The chase jumps most of its cycles, so every new defense's
        // nextMaintenanceAt is exercised for real.
        {"MitigationFastForward", "ResultsIdenticalForNewDefenses",
         {{"chase", 4096, "para", 1, 1},
          {"chase", 4096, "graphene", 1, 1},
          {"chase", 4096, "pb-rfm", 1, 1}},
         {5'000, 100'000}, 512, Jumps::Some, false},
    };
    return table;
}

SuiteEntry
entryFor(const Point &point)
{
    if (std::string(point.workload) != "chase")
        return sim::findSuiteEntry(point.workload);
    SuiteEntry entry;
    entry.params = pointerChaseParams(point.chaseLines);
    return entry;
}

class LockstepCase : public testing::Test
{
  public:
    explicit LockstepCase(const Case &c) : case_(c) {}

    void
    TestBody() override
    {
        for (const Point &point : case_.points) {
            SCOPED_TRACE(std::string(point.workload) + " " +
                         std::to_string(point.chaseLines) + " lines, " +
                         point.defense + ", " +
                         std::to_string(point.channels) + " channels, " +
                         std::to_string(point.cores) + " cores");
            sim::DesignConfig design;
            design.label = "lockstep";
            design.mitigation = point.defense;
            design.nbo = case_.nbo;
            design.channels = point.channels;
            const SuiteEntry entry = entryFor(point);
            const RunResult reference = lockstep::runOne(
                entry, design, case_.budget, point.cores);
            const RunResult event =
                sim::runOne(entry, design, case_.budget, point.cores);
            lockstep::expectRunsIdentical(reference, event);
            EXPECT_EQ(reference.ffCyclesSkipped, 0u);
            if (case_.jumps == Jumps::Some)
                EXPECT_GT(event.ffCyclesSkipped, 0u);
            if (case_.jumps == Jumps::Quarter)
                EXPECT_GT(event.ffCyclesSkipped, event.measureCycles / 4);
            if (case_.twice)
                lockstep::expectRunsIdentical(
                    event, sim::runOne(entry, design, case_.budget,
                                       point.cores));
        }
    }

  private:
    Case case_;
};

const bool kRegistered = [] {
    for (const Case &c : cases())
        testing::RegisterTest(c.suite, c.name, nullptr, nullptr, __FILE__,
                              __LINE__, [&c]() -> testing::Test * {
                                  return new LockstepCase(c);
                              });
    return true;
}();

} // namespace
} // namespace pracleak
