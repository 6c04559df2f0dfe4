/**
 * @file
 * Tests for the pluggable mitigation subsystem (src/mitigation/):
 * the string-keyed registry and its legacy-enum resolution, the
 * parameter derivations of configureDefense, the PARA / Graphene /
 * PB-RFM defense mechanics, per-channel RNG stream derivation, and
 * the fast-forward invariant for every new defense.
 */

#include <gtest/gtest.h>

#include <set>

#include "attack/agents.h"
#include "attack/harness.h"
#include "mitigation/graphene.h"
#include "mitigation/para.h"
#include "mitigation/pb_rfm.h"
#include "mitigation/registry.h"
#include "sim/design.h"
#include "tprac/analysis.h"
#include "workload/synthetic.h"

namespace pracleak {
namespace {

// --- Registry ------------------------------------------------------

TEST(MitigationRegistry, CatalogCoversAllDefenses)
{
    const char *expected[] = {"none",  "abo-only", "abo+acb-rfm",
                              "tprac", "obfuscation", "para",
                              "graphene", "pb-rfm"};
    EXPECT_EQ(mitigationCatalog().size(), std::size(expected));
    for (const char *name : expected) {
        const MitigationInfo *info = findMitigation(name);
        ASSERT_NE(info, nullptr) << name;
        EXPECT_STRNE(info->description, "") << name;
    }
    EXPECT_EQ(findMitigation("bogus"), nullptr);

    // The new-generation defenses run without the ABO substrate.
    EXPECT_FALSE(findMitigation("none")->usesAbo);
    EXPECT_FALSE(findMitigation("para")->usesAbo);
    EXPECT_FALSE(findMitigation("graphene")->usesAbo);
    EXPECT_FALSE(findMitigation("pb-rfm")->usesAbo);
    EXPECT_TRUE(findMitigation("abo-only")->usesAbo);
    EXPECT_TRUE(findMitigation("tprac")->usesAbo);
}

TEST(MitigationRegistry, ConfigureDefenseDerivesParameters)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 512;
    const FeintingParams fp = FeintingParams::fromSpec(spec);

    ControllerConfig acb;
    configureDefense(acb, "abo+acb-rfm", spec);
    EXPECT_EQ(acb.bat,
              std::max<std::uint32_t>(16, maxSafeBat(512, true, fp)));

    ControllerConfig tprac;
    configureDefense(tprac, "tprac", spec);
    EXPECT_GT(tprac.tbRfm.windowCycles, 0u);

    ControllerConfig para;
    configureDefense(para, "para", spec);
    EXPECT_DOUBLE_EQ(para.para.refreshProb, 64.0 / 512.0);

    ControllerConfig graphene;
    configureDefense(graphene, "graphene", spec);
    EXPECT_EQ(graphene.graphene.threshold, 512u / 4);
    // Table sized so the Space-Saving overestimate stays below the
    // trigger threshold within one tREFW.
    EXPECT_GE(graphene.graphene.tableSize,
              maxActsPerTrefw(0.0, fp) / graphene.graphene.threshold);

    ControllerConfig pb;
    configureDefense(pb, "pb-rfm", spec);
    EXPECT_EQ(pb.pbRfm.raaimt,
              std::max<std::uint32_t>(16, maxSafeBat(512, true, fp)));

    // Explicit values survive the derivation pass.
    ControllerConfig custom;
    custom.pbRfm.raaimt = 99;
    configureDefense(custom, "pb-rfm", spec);
    EXPECT_EQ(custom.pbRfm.raaimt, 99u);
}

// --- RNG streams ---------------------------------------------------

TEST(MitigationRng, DerivedStreamsAreDecorrelated)
{
    const std::uint64_t seed = 0xFEEDULL;
    std::set<std::uint64_t> seen;
    for (std::uint64_t stream = 0; stream < 64; ++stream)
        seen.insert(deriveRngStream(seed, stream));
    EXPECT_EQ(seen.size(), 64u);            // no collisions
    EXPECT_EQ(seen.count(seed), 0u);        // stream 0 != identity
    EXPECT_NE(deriveRngStream(seed, 0), deriveRngStream(seed + 1, 0));
}

// --- Defense mechanics ---------------------------------------------

TEST(PbRfm, TriggersEveryRaaimtActivations)
{
    PbRfmConfig config;
    config.raaimt = 10;
    PbRfmMitigation pb(config, /*num_banks=*/4, nullptr);

    for (int act = 0; act < 25; ++act)
        pb.onActivate(2, 100 + act, act);
    EXPECT_EQ(pb.eventsTriggered(), 2u);
    EXPECT_EQ(pb.raaCount(2), 5u);
    EXPECT_EQ(pb.raaCount(0), 0u);

    MaintenanceRequest req = pb.maintenanceCommands(25);
    ASSERT_TRUE(req.wanted);
    EXPECT_TRUE(req.perBank);
    EXPECT_EQ(req.reason, RfmReason::PerBank);
    EXPECT_EQ(req.flatBank, 2u);
    EXPECT_EQ(pb.nextMaintenanceAt(25), 25u);

    pb.onRfmIssued(RfmReason::PerBank, true, 26);
    pb.onRfmIssued(RfmReason::PerBank, true, 27);
    EXPECT_FALSE(pb.maintenanceCommands(28).wanted);
    EXPECT_EQ(pb.nextMaintenanceAt(28), kNeverCycle);
}

TEST(Graphene, TracksHeavyHitterAndTriggersAtThreshold)
{
    GrapheneConfig config;
    config.tableSize = 4;
    config.threshold = 8;
    GrapheneMitigation graphene(config, /*num_banks=*/2,
                                /*trefw=*/1'000'000, nullptr);

    // Seven activations stay below the threshold...
    for (int act = 0; act < 7; ++act)
        graphene.onActivate(1, 42, act);
    EXPECT_EQ(graphene.eventsTriggered(), 0u);
    EXPECT_FALSE(graphene.maintenanceCommands(7).wanted);

    // ...the eighth crosses it and queues an RFMpb for the bank.
    graphene.onActivate(1, 42, 7);
    EXPECT_EQ(graphene.eventsTriggered(), 1u);
    MaintenanceRequest req = graphene.maintenanceCommands(8);
    ASSERT_TRUE(req.wanted);
    EXPECT_TRUE(req.perBank);
    EXPECT_EQ(req.reason, RfmReason::Graphene);
    EXPECT_EQ(req.flatBank, 1u);
    graphene.onRfmIssued(RfmReason::Graphene, true, 9);
    EXPECT_FALSE(graphene.maintenanceCommands(10).wanted);
}

TEST(Graphene, SpaceSavingEvictsMinimumAndInheritsEstimate)
{
    GrapheneConfig config;
    config.tableSize = 2;
    config.threshold = 6;
    GrapheneMitigation graphene(config, 1, 1'000'000, nullptr);

    for (int act = 0; act < 4; ++act)
        graphene.onActivate(0, 7, act);     // row 7 -> estimate 4
    graphene.onActivate(0, 8, 4);           // row 8 -> estimate 1
    EXPECT_EQ(graphene.trackedRows(0), 2u);

    // Row 9 evicts row 8 (the minimum) and inherits estimate 2; a
    // second new row inherits 3, and so on: untracked rows cannot
    // sneak past the threshold minus the inherited overestimate.
    graphene.onActivate(0, 9, 5);
    EXPECT_EQ(graphene.trackedRows(0), 2u);
    graphene.onActivate(0, 10, 6);          // evicts 9, estimate 3
    graphene.onActivate(0, 10, 7);          // estimate 4
    graphene.onActivate(0, 10, 8);          // estimate 5
    graphene.onActivate(0, 10, 9);          // estimate 6 -> trigger
    EXPECT_EQ(graphene.eventsTriggered(), 1u);
}

TEST(Graphene, TableResetsEveryTrefw)
{
    GrapheneConfig config;
    config.tableSize = 4;
    config.threshold = 100;
    GrapheneMitigation graphene(config, 1, /*trefw=*/1000, nullptr);
    graphene.onActivate(0, 1, 10);
    graphene.onActivate(0, 2, 20);
    EXPECT_EQ(graphene.trackedRows(0), 2u);
    graphene.onActivate(0, 3, 1000);        // reset boundary crossed
    EXPECT_EQ(graphene.trackedRows(0), 1u);
}

// --- PARA ----------------------------------------------------------

TEST(Para, BoundsCountersUnderDirectHammer)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 512;

    ControllerConfig config;
    config.refreshEnabled = false;
    configureDefense(config, "para", spec);

    AttackHarness harness(spec, config);
    const DramAddress target{0, 0, 0, 5000, 0};
    const std::vector<DramAddress> decoys{
        DramAddress{0, 0, 0, 6000, 0}, DramAddress{0, 0, 0, 6001, 0}};
    HammerAgent attacker(harness.mem().mapper(), target, decoys);
    harness.add(&attacker);

    const Cycle end = nsToCycles(1.0e6);
    while (harness.now() < end) {
        if (attacker.done())
            attacker.startHammer(1024);
        harness.step();
    }

    // ~9600 ACTs land in the bank; with p = 64/512 the hottest row
    // is reset every ~8 activations in expectation, so the maximum
    // stays far below NBO (and no Alert can fire: ABO is disarmed).
    EXPECT_GT(harness.mem().mitigationEvents(), 100u);
    EXPECT_LT(harness.mem().prac().counters().maxEverSeen(), 128u);
    EXPECT_EQ(harness.mem().prac().alerts(), 0u);
    // In-DRAM refreshes never touch the bus: no RFM of any reason.
    for (const RfmReason reason :
         {RfmReason::Abo, RfmReason::Acb, RfmReason::TimingBased,
          RfmReason::Random, RfmReason::Graphene, RfmReason::PerBank})
        EXPECT_EQ(harness.mem().rfmCount(reason), 0u);
}

TEST(Para, ChannelsDrawFromIndependentStreams)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 512;
    ControllerConfig config;
    config.para.refreshProb = 0.5;
    config.mitigation = "para";

    // Same channel index twice -> identical decision sequences;
    // different index -> decorrelated.
    auto countRefreshes = [&](std::uint32_t channel) {
        config.channelIndex = channel;
        MemoryController mem(spec, config);
        for (std::uint32_t act = 0; act < 512; ++act) {
            Request req;
            req.addr = mem.mapper().compose(
                DramAddress{0, 0, 0, act * 2, 0});
            mem.enqueue(std::move(req));
            mem.run(spec.timing.tRC + 4);
        }
        return mem.mitigationEvents();
    };
    const std::uint64_t channel0 = countRefreshes(0);
    EXPECT_EQ(channel0, countRefreshes(0));
    EXPECT_GT(channel0, 100u); // p=0.5 over ~512 ACTs
    // Equality of totals across streams is possible but the exact
    // sequences are not; totals differing is overwhelmingly likely
    // and deterministic for this fixed seed.
    EXPECT_NE(channel0, countRefreshes(1));
}

// --- Fast-forward invariance for the new defenses ------------------

TEST(MitigationFastForward, ResultsIdenticalForNewDefenses)
{
    using sim::DesignConfig;
    using sim::RunBudget;

    RunBudget budget;
    budget.warmup = 5'000;
    budget.measure = 100'000;

    // Low-RBMPKI pointer chase: fast-forward skips most of its
    // cycles (FastForward.CacheResidentChaseSkipsDeepAndStaysExact),
    // so nextMaintenanceAt of every new defense is exercised for real.
    auto run = [&](const char *defense, bool fast_forward) {
        DesignConfig design;
        design.label = defense;
        design.mitigation = defense;
        design.nbo = 512;
        design.fastForward = fast_forward;
        std::vector<std::unique_ptr<WorkloadSource>> sources;
        sources.push_back(makeWorkload(pointerChaseParams(4096), 0));
        System system(sim::makeSystemConfig(design, budget),
                      std::move(sources));
        return system.run();
    };

    for (const char *defense : {"para", "graphene", "pb-rfm"}) {
        const RunResult off = run(defense, false);
        const RunResult on = run(defense, true);

        EXPECT_EQ(off.measureCycles, on.measureCycles) << defense;
        EXPECT_EQ(off.rowMisses, on.rowMisses) << defense;
        EXPECT_EQ(off.grapheneRfms, on.grapheneRfms) << defense;
        EXPECT_EQ(off.pbRfms, on.pbRfms) << defense;
        EXPECT_EQ(off.mitigationEvents, on.mitigationEvents)
            << defense;
        EXPECT_EQ(off.energyCounts.acts, on.energyCounts.acts)
            << defense;
        EXPECT_EQ(off.ipcSum(), on.ipcSum()) << defense;
        EXPECT_GT(on.ffCyclesSkipped, 0u) << defense;
    }
}

} // namespace
} // namespace pracleak
