/**
 * @file
 * Integration tests for the memory controller: request service,
 * open-page behaviour, refresh cadence, the RFM flows of every
 * mitigation mode, and seeded stress goldens over the FR-FCFS
 * scheduler's deep-queue corners and over traffic to many banks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/harness.h"
#include "common/rng.h"
#include "dram/timing_checker.h"
#include "mem/controller.h"
#include "mitigation/registry.h"

namespace pracleak {
namespace {

DramSpec
specWith(std::uint32_t nbo, std::uint32_t nmit = 1)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = nbo;
    spec.prac.nmit = nmit;
    return spec;
}

/** Issue one read and spin until completion; returns latency. */
Cycle
readOnce(MemoryController &mem, Addr addr)
{
    Cycle latency = kNeverCycle;
    Request req;
    req.type = ReqType::Read;
    req.addr = addr;
    req.onComplete = [&](const Request &done) {
        latency = done.latency();
    };
    EXPECT_TRUE(mem.enqueue(std::move(req)));
    for (int i = 0; i < 100000 && latency == kNeverCycle; ++i)
        mem.tick();
    EXPECT_NE(latency, kNeverCycle);
    return latency;
}

TEST(Controller, ColdReadLatency)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.refreshEnabled = false;
    MemoryController mem(spec, config);

    const Cycle latency = readOnce(mem, 0x1000000);
    // ACT + tRCD + tCL + tBL plus a couple of scheduling cycles.
    const Cycle floor = spec.timing.tRCD + spec.timing.readLatency();
    EXPECT_GE(latency, floor);
    EXPECT_LE(latency, floor + 10);
}

TEST(Controller, RowHitFasterThanConflict)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.refreshEnabled = false;
    MemoryController mem(spec, config);
    const AddressMapper &mapper = mem.mapper();

    const Addr row_a = mapper.compose(DramAddress{0, 0, 0, 10, 0});
    const Addr row_a2 = mapper.compose(DramAddress{0, 0, 0, 10, 5});
    const Addr row_b = mapper.compose(DramAddress{0, 0, 0, 11, 0});

    readOnce(mem, row_a);
    const Cycle hit = readOnce(mem, row_a2);     // same open row
    const Cycle conflict = readOnce(mem, row_b); // needs PRE + ACT
    EXPECT_LT(hit, conflict);
    EXPECT_GE(conflict, hit + spec.timing.tRP);
}

TEST(Controller, WritesComplete)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.refreshEnabled = false;
    MemoryController mem(spec, config);

    bool done = false;
    Request req;
    req.type = ReqType::Write;
    req.addr = 0x2000000;
    req.onComplete = [&](const Request &) { done = true; };
    ASSERT_TRUE(mem.enqueue(std::move(req)));
    for (int i = 0; i < 10000 && !done; ++i)
        mem.tick();
    EXPECT_TRUE(done);
    EXPECT_EQ(mem.dram().issueCount(CmdType::WR), 1u);
}

TEST(Controller, QueueCapacityRespected)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.queueCapacity = 4;
    MemoryController mem(spec, config);

    for (int i = 0; i < 4; ++i) {
        Request req;
        req.addr = static_cast<Addr>(i) << 20;
        EXPECT_TRUE(mem.enqueue(std::move(req)));
    }
    Request overflow;
    overflow.addr = 0x5000000;
    EXPECT_FALSE(mem.enqueue(std::move(overflow)));
    EXPECT_FALSE(mem.canAccept());
}

TEST(Controller, RefreshCadenceMatchesTrefi)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    MemoryController mem(spec, config);

    // Ten tREFI of idle time: every rank refreshes every tREFI.
    mem.run(spec.timing.tREFI * 10);
    const std::uint64_t refs = mem.dram().issueCount(CmdType::REFab);
    EXPECT_GE(refs, 36u); // 4 ranks x ~9-10 windows
    EXPECT_LE(refs, 44u);
}

TEST(Controller, NoMitigationIssuesNoRfms)
{
    const DramSpec spec = specWith(64); // tiny NBO
    ControllerConfig config;
    AttackHarness harness(spec, config);

    // Hammer far past NBO via raw requests.
    const AddressMapper &mapper = harness.mem().mapper();
    for (int i = 0; i < 200; ++i) {
        const std::uint32_t row = 100 + (i % 2);
        Request req;
        req.addr = mapper.compose(DramAddress{0, 0, 0, row, 0});
        harness.mem().enqueue(std::move(req));
        harness.run(spec.timing.tRC * 3);
    }
    EXPECT_EQ(harness.mem().dram().issueCount(CmdType::RFMab), 0u);
    EXPECT_EQ(harness.mem().prac().alerts(), 0u);
}

TEST(Controller, AboServiceIssuesNmitRfms)
{
    const DramSpec spec = specWith(32, 4);
    ControllerConfig config;
    config.mitigation = "abo-only";
    config.refreshEnabled = false;
    MemoryController mem(spec, config);
    const AddressMapper &mapper = mem.mapper();

    // Hammer one target row, alternating with rotating decoys so
    // only the target crosses NBO = 32.
    for (int i = 0; i < 80; ++i) {
        const std::uint32_t row =
            (i % 2) ? 100u : 200u + (static_cast<std::uint32_t>(i) % 8);
        Request req;
        req.addr = mapper.compose(DramAddress{0, 0, 0, row, 0});
        mem.enqueue(std::move(req));
        mem.run(spec.timing.tRC * 3);
    }
    mem.run(spec.timing.tRFMab * 8);
    EXPECT_EQ(mem.prac().alerts(), 1u);
    EXPECT_EQ(mem.rfmCount(RfmReason::Abo), 4u);
    EXPECT_EQ(mem.dram().issueCount(CmdType::RFMab), 4u);
}

TEST(Controller, AcbIssuesProactiveRfms)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.mitigation = "abo+acb-rfm";
    config.bat = 16;
    config.refreshEnabled = false;
    MemoryController mem(spec, config);
    const AddressMapper &mapper = mem.mapper();

    // 40 activations in one bank: BAT=16 -> at least two ACB-RFMs.
    for (int i = 0; i < 40; ++i) {
        Request req;
        req.addr = mapper.compose(
            DramAddress{0, 0, 0, 100u + (i % 4), 0});
        mem.enqueue(std::move(req));
        mem.run(spec.timing.tRC * 3);
    }
    mem.run(spec.timing.tRFMab * 4);
    EXPECT_GE(mem.rfmCount(RfmReason::Acb), 2u);
    EXPECT_EQ(mem.prac().alerts(), 0u); // far below NBO
}

TEST(Controller, TpracIssuesPeriodicRfmsWhenIdle)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    config.mitigation = "tprac";
    config.tbRfm.windowCycles = spec.timing.tREFI; // 1 tREFI
    MemoryController mem(spec, config);

    mem.run(spec.timing.tREFI * 10);
    // Activity-INDEPENDENT: RFMs flow with zero demand traffic.
    EXPECT_GE(mem.rfmCount(RfmReason::TimingBased), 8u);
    EXPECT_LE(mem.rfmCount(RfmReason::TimingBased), 11u);
}

TEST(Controller, TpracRfmRateIndependentOfLoad)
{
    const DramSpec spec = specWith(1024);
    auto run_with_traffic = [&](bool traffic) {
        ControllerConfig config;
        config.mitigation = "tprac";
        config.tbRfm.windowCycles = spec.timing.tREFI;
        MemoryController mem(spec, config);
        const AddressMapper &mapper = mem.mapper();
        const Cycle end = spec.timing.tREFI * 10;
        std::uint64_t issued = 0;
        while (mem.now() < end) {
            if (traffic && mem.canAccept()) {
                Request req;
                req.addr = mapper.compose(DramAddress{
                    0, 0, 0,
                    static_cast<std::uint32_t>(issued++ % 64), 0});
                mem.enqueue(std::move(req));
            }
            mem.tick();
        }
        return mem.rfmCount(RfmReason::TimingBased);
    };

    const std::uint64_t idle = run_with_traffic(false);
    const std::uint64_t busy = run_with_traffic(true);
    // The defining TPRAC property (Fig. 6): RFM cadence does not
    // depend on memory activity.
    EXPECT_NEAR(static_cast<double>(idle), static_cast<double>(busy),
                1.0);
}

TEST(Controller, ReadLatencyHistogramPopulated)
{
    const DramSpec spec = specWith(1024);
    ControllerConfig config;
    StatSet stats;
    MemoryController mem(spec, config, &stats);
    readOnce(mem, 0x123440);
    ASSERT_TRUE(stats.hasHistogram("mem.read_latency_ns"));
    EXPECT_EQ(stats.getHistogram("mem.read_latency_ns").count(), 1u);
}

// --- seeded stress golden ------------------------------------------

/** What one stress run pins: its command stream and clock economics. */
struct StressGolden
{
    std::uint64_t seed = 0;
    std::uint64_t commandHash = 0; //!< FNV-1a over (cycle, command)s
    std::uint64_t commands = 0;
    SchedCounters sched{};
};

struct StressRun
{
    StressGolden outcome;
    std::string describe;
    std::vector<std::string> violations;
};

std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xFF;
        hash *= 0x100000001B3ULL;
    }
    return hash;
}

/**
 * One seeded stress run.  The seed draws a spec, a defense, a queue
 * depth, a streak cap, refresh on or off, and a clock mode; the NBO
 * is low enough that Alerts fire.  Traffic is bursty and aimed at a
 * few rows of a few banks, so the queue holds row hits, conflicts and
 * capped streaks, reads and writes at once.  Event-mode seeds step
 * with advanceTo() and nextWorkAt()/skipTo() jumps between enqueues.
 *
 * A @p wide run draws from its own RNG stream and spreads its traffic
 * over 8 hot (bank, row) pairs up to one per bank of the spec, plus
 * 30% of requests to random rows of random banks, behind deeper
 * queues: many banks wait on the scheduler at once.
 */
StressRun
runStress(std::uint64_t seed, bool wide = false)
{
    Rng rng(
        deriveRngStream(wide ? 0x5EED'0B1DULL : 0x5EED'C0DEULL, seed));
    const std::vector<std::string> specs = specNames();
    const std::string spec_name = specs[rng.range(specs.size())];
    DramSpec spec = specByName(spec_name);
    spec.prac.nbo =
        16 + static_cast<std::uint32_t>(rng.range(wide ? 64 : 32));
    const std::vector<std::string> defenses = mitigationNames();
    const std::string defense = defenses[rng.range(defenses.size())];

    ControllerConfig config;
    constexpr std::size_t kCapacities[2][3] = {{4, 16, 64}, {16, 64, 128}};
    config.queueCapacity = kCapacities[wide][rng.range(3)];
    config.frfcfsCap = 1 + static_cast<std::uint32_t>(rng.range(6));
    config.refreshEnabled = rng.chance(0.5);
    configureDefense(config, defense, spec);
    config.tbRfm.perBank = rng.chance(0.3);
    const bool event = rng.chance(0.5);
    const bool observed = rng.chance(0.5);

    StatSet stats;
    MemoryController mem(spec, config, observed ? &stats : nullptr);
    TimingChecker checker(spec);
    StressRun run;
    run.outcome.seed = seed;
    std::uint64_t hash = 0xCBF2'9CE4'8422'2325ULL;
    mem.dram().setTraceSink([&](const Command &cmd, Cycle now) {
        checker.observe(cmd, now);
        hash = fnvMix(hash, now);
        hash = fnvMix(hash, static_cast<std::uint64_t>(cmd.type) |
                                (std::uint64_t{cmd.rank} << 8) |
                                (std::uint64_t{cmd.bankGroup} << 16) |
                                (std::uint64_t{cmd.bank} << 24));
        hash = fnvMix(hash, cmd.row | (std::uint64_t{cmd.col} << 32));
        ++run.outcome.commands;
    });

    auto random_bank = [&] {
        DramAddress da;
        da.rank = static_cast<std::uint32_t>(rng.range(spec.org.ranks));
        da.bankGroup =
            static_cast<std::uint32_t>(rng.range(spec.org.bankGroups));
        da.bank = static_cast<std::uint32_t>(
            rng.range(spec.org.banksPerGroup));
        return da;
    };
    std::vector<DramAddress> rows;
    if (wide) {
        const std::uint32_t total = spec.org.totalBanks();
        std::vector<std::uint32_t> flats(total);
        for (std::uint32_t flat = 0; flat < total; ++flat)
            flats[flat] = flat;
        const std::uint64_t pairs = 8 + rng.range(total - 7);
        for (std::uint64_t p = 0; p < pairs; ++p) {
            std::swap(flats[p], flats[p + rng.range(total - p)]);
            const std::uint32_t in_rank =
                flats[p] % spec.org.banksPerRank();
            DramAddress da;
            da.rank = flats[p] / spec.org.banksPerRank();
            da.bankGroup = in_rank / spec.org.banksPerGroup;
            da.bank = in_rank % spec.org.banksPerGroup;
            da.row = static_cast<std::uint32_t>(rng.range(1024));
            rows.push_back(da);
        }
    } else {
        const std::uint64_t banks = 1 + rng.range(4);
        for (std::uint64_t b = 0; b < banks; ++b) {
            DramAddress da = random_bank();
            const std::uint64_t hot = 1 + rng.range(3);
            for (std::uint64_t r = 0; r < hot; ++r) {
                da.row = static_cast<std::uint32_t>(rng.range(1024));
                rows.push_back(da);
            }
        }
    }

    std::uint64_t completions = 0;
    auto offer = [&] {
        const std::size_t burst =
            rng.chance(0.05) ? config.queueCapacity
                             : static_cast<std::size_t>(rng.chance(0.5));
        for (std::size_t i = 0; i < burst && mem.canAccept(); ++i) {
            DramAddress da;
            if (wide && rng.chance(0.3)) {
                da = random_bank();
                da.row = static_cast<std::uint32_t>(
                    rng.range(spec.org.rowsPerBank));
            } else {
                da = rows[rng.range(rows.size())];
            }
            da.col = static_cast<std::uint32_t>(
                rng.range(spec.org.colsPerRow));
            Request req;
            req.type = rng.chance(0.3) ? ReqType::Write : ReqType::Read;
            req.addr = mem.mapper().compose(da);
            if (rng.chance(0.5))
                req.onComplete = [&](const Request &done) {
                    ++completions;
                    hash = fnvMix(hash, done.completed);
                };
            mem.enqueue(std::move(req));
        }
    };

    constexpr Cycle kEnd = 40'000;
    while (mem.now() < kEnd) {
        offer();
        if (!event) {
            mem.tick();
            continue;
        }
        const double step = rng.uniform();
        if (step < 0.5) {
            mem.advanceTo(std::min(kEnd, mem.now() + 1 + rng.range(16)));
        } else if (step < 0.8) {
            mem.skipTo(std::min({mem.nextWorkAt(), kEnd,
                                 mem.now() + rng.range(64)}));
            if (mem.now() < kEnd)
                mem.tick();
        } else {
            mem.tick();
        }
    }
    run.outcome.commandHash = fnvMix(hash, completions);
    run.outcome.sched = mem.schedCounters();
    run.violations = checker.violations();
    run.describe = spec_name + " " + defense + " pairs " +
                   std::to_string(rows.size()) + " q" +
                   std::to_string(config.queueCapacity) + " cap" +
                   std::to_string(config.frfcfsCap) +
                   (config.refreshEnabled ? " ref" : " noref") +
                   (event ? " event" : " lockstep") + " nbo" +
                   std::to_string(spec.prac.nbo) + " alerts " +
                   std::to_string(mem.prac().alerts()) + " rfmab " +
                   std::to_string(mem.dram().issueCount(CmdType::RFMab)) +
                   " rfmpb " +
                   std::to_string(mem.dram().issueCount(CmdType::RFMpb));
    return run;
}

/** @p g as a kStressGoldens row. */
std::string
goldenRow(const StressGolden &g)
{
    using ull = unsigned long long;
    char row[192];
    std::snprintf(row, sizeof(row),
                  "{%llu, 0x%016llxULL, %llu, {%llu, %llu, %llu, %llu, "
                  "%llu}},",
                  ull{g.seed}, ull{g.commandHash}, ull{g.commands},
                  ull{g.sched.ticksFired}, ull{g.sched.cyclesJumped},
                  ull{g.sched.nextWorkCacheHits},
                  ull{g.sched.nextWorkRebuilds},
                  ull{g.sched.nextWorkHintRebuilds});
    return row;
}

/**
 * Captured from the original deque-based FR-FCFS scheduler (two
 * oldest-first passes over one queue): a scheduler must issue the
 * same commands at the same cycles and tick, skip and rebuild its
 * next-work bound exactly as often.
 */
const StressGolden kStressGoldens[] = {
    {1, 0xcf6a65d2ad186c5fULL, 1106, {40000, 0, 0, 0, 38894}},
    {2, 0x16a25b45111760e1ULL, 764, {40000, 0, 0, 0, 39236}},
    {3, 0xf8409f0abd61d727ULL, 926, {3488, 36512, 972, 314, 2562}},
    {4, 0x07c23d253e0e4bfaULL, 394, {2347, 37653, 914, 105, 1953}},
    {5, 0x09851d3159b00240ULL, 1005, {3629, 36371, 996, 278, 2624}},
    {6, 0x57ce07f8577c0c5bULL, 2804, {40000, 0, 0, 0, 37196}},
    {7, 0xf3e81289f9d55f5bULL, 658, {40000, 0, 0, 0, 39342}},
    {8, 0x5ff83edd640d5408ULL, 1053, {40000, 0, 0, 0, 38947}},
    {9, 0x9d29a1c1c7c8c11bULL, 647, {2834, 37166, 930, 215, 2187}},
    {10, 0x5dde9279f47ca427ULL, 1014, {3391, 36609, 914, 299, 2377}},
    {11, 0xf76c874cdf32cb1aULL, 691, {2999, 37001, 967, 242, 2308}},
    {12, 0x0b2812d79a1be854ULL, 1937, {6110, 33890, 1086, 509, 4173}},
    {13, 0x48b55c9ba7af5f94ULL, 929, {3437, 36563, 901, 335, 2508}},
    {14, 0xd467b4ec6aad5cb8ULL, 1108, {3796, 36204, 966, 361, 2688}},
    {15, 0xb4852e77cdbd3a31ULL, 881, {40000, 0, 0, 0, 39119}},
    {16, 0x4f7b6be2f7c1fef9ULL, 798, {3206, 36794, 939, 256, 2408}},
    {17, 0xab087bdb05109de2ULL, 983, {3415, 36585, 955, 310, 2432}},
    {18, 0x722e68213fcafa02ULL, 849, {40000, 0, 0, 0, 39151}},
    {19, 0x9435a561db6d40caULL, 915, {3371, 36629, 892, 310, 2456}},
    {20, 0xaa4eee35d6c8b04cULL, 2176, {40000, 0, 0, 0, 37824}},
    {21, 0xe65093e4ae1104feULL, 524, {40000, 0, 0, 0, 39476}},
    {22, 0x69905cd68f5ca190ULL, 592, {2485, 37515, 826, 187, 1893}},
    {23, 0xd6a685ffb9203e53ULL, 1053, {40000, 0, 0, 0, 38947}},
    {24, 0x55815fa17440d448ULL, 547, {2657, 37343, 956, 157, 2110}},
    {25, 0x2c10e4a8cf5d831fULL, 874, {40000, 0, 0, 0, 39126}},
    {26, 0x6d4b839b153b13b7ULL, 593, {40000, 0, 0, 0, 39407}},
    {27, 0x71d5568a58bc6da8ULL, 613, {2845, 37155, 975, 200, 2232}},
    {28, 0x587bc29afb10aa8fULL, 1746, {40000, 0, 0, 0, 38254}},
    {29, 0xa51af40a3d4186c9ULL, 1081, {40000, 0, 0, 0, 38919}},
    {30, 0xc186063640793477ULL, 1683, {5029, 34971, 1023, 421, 3346}},
    {31, 0x3abaac86c41e5b64ULL, 1511, {5360, 34640, 1001, 446, 3849}},
    {32, 0xe754a1c8f97fbd98ULL, 1667, {6405, 33595, 1107, 608, 4738}},
    {33, 0x5ab95a2fb68c8fdfULL, 776, {40000, 0, 0, 0, 39224}},
    {34, 0x1492f0823dc80d13ULL, 997, {3607, 36393, 914, 332, 2610}},
    {35, 0xe3928a1670bd45f1ULL, 791, {40000, 0, 0, 0, 39209}},
    {36, 0x08b9578f63e6c002ULL, 503, {2283, 37717, 891, 149, 1780}},
    {37, 0x118b9690cdda44b5ULL, 1141, {40000, 0, 0, 0, 38859}},
    {38, 0xc57b0b5b207b9011ULL, 1817, {5155, 34845, 960, 562, 3338}},
    {39, 0x97f3fb07929bfedbULL, 821, {40000, 0, 0, 0, 39179}},
    {40, 0x15a88adaf10147c7ULL, 1096, {40000, 0, 0, 0, 38904}},
    {41, 0xe59f0c5fc68a80e9ULL, 272, {40000, 0, 0, 0, 39728}},
    {42, 0xc28fcd39232e2445ULL, 1075, {40000, 0, 0, 0, 38925}},
    {43, 0xd4838207ac86ae46ULL, 1289, {4594, 35406, 1028, 384, 3305}},
    {44, 0xcb5d06aa99225622ULL, 1444, {40000, 0, 0, 0, 38556}},
    {45, 0x38ce98ac2fa41149ULL, 1241, {40000, 0, 0, 0, 38759}},
    {46, 0x56c8b0c5d3aecdaeULL, 1464, {40000, 0, 0, 0, 38536}},
    {47, 0x1e76f019dc4e9d67ULL, 461, {40000, 0, 0, 0, 39539}},
    {48, 0x814e4b745031b12aULL, 363, {2146, 37854, 906, 109, 1783}},
};

/**
 * runStress(seed, wide = true), captured from the scheduler that
 * walked every queued bank on each scan.  Seeds 1-16 include an
 * Alert, RFMpb drains, and refresh drains on multi-rank specs; 32,
 * 282 and 309 add Alerts under the event clock.
 */
const StressGolden kWideStressGoldens[] = {
    {1, 0xab2b37f0491a222cULL, 6084, {13146, 26854, 821, 1183, 7062}},
    {2, 0xc318a0bad109e22dULL, 4211, {40000, 0, 0, 0, 35789}},
    {3, 0xdc673acfd8c01ca8ULL, 4023, {8548, 31452, 892, 932, 4525}},
    {4, 0x58672a8b9d8df79bULL, 3453, {7713, 32287, 905, 809, 4260}},
    {5, 0x85e4fda9c5c54c54ULL, 4049, {40000, 0, 0, 0, 35951}},
    {6, 0xfe70b0ea91c7be33ULL, 5253, {40000, 0, 0, 0, 34747}},
    {7, 0x4acf696bd9e46f14ULL, 4039, {10060, 29940, 972, 858, 6021}},
    {8, 0xa7526549da2210d0ULL, 6263, {40000, 0, 0, 0, 33737}},
    {9, 0xe5ab8eb3e734d4c8ULL, 3975, {9186, 30814, 961, 962, 5211}},
    {10, 0xd8f435780f806855ULL, 5452, {13224, 26776, 937, 1049, 7772}},
    {11, 0x512957831f3da9feULL, 3380, {40000, 0, 0, 0, 36620}},
    {12, 0xfe4d9614e92eb9fcULL, 5429, {10898, 29102, 827, 1055, 5469}},
    {13, 0x0fec1ddd47d3f346ULL, 4995, {40000, 0, 0, 0, 35005}},
    {14, 0x1428dce3068bf8fdULL, 4028, {40000, 0, 0, 0, 35972}},
    {15, 0x624bbced60fc7e58ULL, 8587, {40000, 0, 0, 0, 31413}},
    {16, 0xd0490a07c295fa20ULL, 5667, {13622, 26378, 990, 1098, 7955}},
    {32, 0x6d0b834c5cc8f0c0ULL, 6202, {13082, 26918, 834, 1154, 6880}},
    {282, 0x6876dce1a97dd23eULL, 4724, {10372, 29628, 887, 918, 5648}},
    {309, 0x413eb8adceb431edULL, 6422, {12382, 27618, 751, 1196, 5960}},
};

void
expectGolden(const StressRun &run, const StressGolden &golden)
{
    const StressGolden &got = run.outcome;
    const SchedCounters &s = got.sched;
    SCOPED_TRACE(run.describe + "\n  got " + goldenRow(got));
    EXPECT_TRUE(run.violations.empty()) << run.violations.front();
    EXPECT_EQ(got.commandHash, golden.commandHash);
    EXPECT_EQ(got.commands, golden.commands);
    EXPECT_EQ(s.ticksFired, golden.sched.ticksFired);
    EXPECT_EQ(s.cyclesJumped, golden.sched.cyclesJumped);
    EXPECT_EQ(s.nextWorkCacheHits, golden.sched.nextWorkCacheHits);
    EXPECT_EQ(s.nextWorkRebuilds, golden.sched.nextWorkRebuilds);
    EXPECT_EQ(s.nextWorkHintRebuilds, golden.sched.nextWorkHintRebuilds);
}

TEST(ControllerStress, SeededGoldensAndTimingClean)
{
    for (const StressGolden &golden : kStressGoldens)
        expectGolden(runStress(golden.seed), golden);
}

TEST(ControllerStress, WideTrafficGoldensAndTimingClean)
{
    for (const StressGolden &golden : kWideStressGoldens)
        expectGolden(runStress(golden.seed, /*wide=*/true), golden);
}

} // namespace
} // namespace pracleak
