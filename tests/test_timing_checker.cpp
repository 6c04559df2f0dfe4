/**
 * @file
 * Tests for the independent timing checker, plus the key property
 * test: random traffic driven through the controller produces a
 * command stream with zero timing violations (the checker and the
 * device model cross-validate each other).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "attack/harness.h"
#include "common/rng.h"
#include "dram/timing_checker.h"
#include "mitigation/registry.h"

namespace pracleak {
namespace {

Command
act(std::uint32_t rank, std::uint32_t bg, std::uint32_t bank,
    std::uint32_t row)
{
    return Command{CmdType::ACT, rank, bg, bank, row, 0};
}

TEST(TimingChecker, CleanStreamPasses)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    TimingChecker checker(spec);
    checker.observe(act(0, 0, 0, 1), 0);
    checker.observe(Command{CmdType::RD, 0, 0, 0, 1, 0},
                    spec.timing.tRCD);
    checker.observe(Command{CmdType::PRE, 0, 0, 0, 0, 0},
                    spec.timing.tRCD + spec.timing.tRTP);
    EXPECT_TRUE(checker.clean()) << checker.violations().front();
}

TEST(TimingChecker, DetectsTrcdViolation)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    TimingChecker checker(spec);
    checker.observe(act(0, 0, 0, 1), 0);
    checker.observe(Command{CmdType::RD, 0, 0, 0, 1, 0},
                    spec.timing.tRCD - 1);
    EXPECT_FALSE(checker.clean());
}

TEST(TimingChecker, DetectsTrcViolation)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    TimingChecker checker(spec);
    checker.observe(act(0, 0, 0, 1), 0);
    checker.observe(Command{CmdType::PRE, 0, 0, 0, 0, 0},
                    spec.timing.tRAS);
    checker.observe(act(0, 0, 0, 2), spec.timing.tRC - 1);
    EXPECT_FALSE(checker.clean());
}

TEST(TimingChecker, DetectsActToOpenBank)
{
    TimingChecker checker(DramSpec::ddr5_8000b());
    checker.observe(act(0, 0, 0, 1), 0);
    checker.observe(act(0, 0, 0, 2), 100000);
    EXPECT_FALSE(checker.clean());
}

TEST(TimingChecker, DetectsRfmWithOpenRow)
{
    TimingChecker checker(DramSpec::ddr5_8000b());
    checker.observe(act(0, 0, 0, 1), 0);
    checker.observe(Command{CmdType::RFMab, 0, 0, 0, 0, 0}, 100000);
    EXPECT_FALSE(checker.clean());
}

TEST(TimingChecker, DetectsFawViolation)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    TimingChecker checker(spec);
    // Five ACTs to distinct banks packed into less than tFAW.
    const Cycle step = spec.timing.tRRD_S;
    for (std::uint32_t i = 0; i < 5; ++i)
        checker.observe(act(0, i, 0, 1), i * step);
    EXPECT_FALSE(checker.clean());
}

/**
 * Cross-validation property: random multi-agent traffic through the
 * full controller must produce a timing-clean command stream, for
 * every registered defense.
 */
class ControllerTimingProperty
    : public ::testing::TestWithParam<std::string>
{
};

/** Chaotic requester hitting random rows across a few banks. */
class RandomAgent : public MemAgent
{
  public:
    explicit RandomAgent(std::uint64_t seed) : rng_(seed) {}

    void
    tick(MemoryController &mem, Cycle) override
    {
        if (outstanding_ >= 8)
            return;
        Request req;
        req.type = rng_.chance(0.3) ? ReqType::Write : ReqType::Read;
        DramAddress da;
        da.rank = static_cast<std::uint32_t>(rng_.range(4));
        da.bankGroup = static_cast<std::uint32_t>(rng_.range(8));
        da.bank = static_cast<std::uint32_t>(rng_.range(4));
        da.row = static_cast<std::uint32_t>(rng_.range(64));
        da.col = static_cast<std::uint32_t>(rng_.range(128));
        req.addr = mem.mapper().compose(da);
        req.onComplete = [this](const Request &) { --outstanding_; };
        if (mem.enqueue(std::move(req)))
            ++outstanding_;
    }

  private:
    Rng rng_;
    std::uint32_t outstanding_ = 0;
};

TEST_P(ControllerTimingProperty, RandomTrafficIsTimingClean)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 128; // low threshold: force frequent alerts
    spec.prac.nmit = 2;

    // Aggressive ACB threshold and TB-Window; configureDefense keeps
    // them and derives every other defense's parameters from NBO.
    ControllerConfig config;
    config.bat = 64;
    config.tbRfm.windowCycles = nsToCycles(2000);
    configureDefense(config, GetParam(), spec);

    AttackHarness harness(spec, config);
    TimingChecker checker(spec);
    harness.mem().dram().setTraceSink(
        [&](const Command &cmd, Cycle now) {
            checker.observe(cmd, now);
        });

    RandomAgent agent_a(1), agent_b(2), agent_c(3);
    harness.add(&agent_a);
    harness.add(&agent_b);
    harness.add(&agent_c);

    harness.run(nsToCycles(200000)); // ~50 tREFI of chaos

    EXPECT_TRUE(checker.clean())
        << checker.violations().size() << " violations, first: "
        << checker.violations().front();
    // Sanity: the run actually exercised the machine.
    EXPECT_GT(harness.mem().dram().issueCount(CmdType::ACT), 100u);
    EXPECT_GT(harness.mem().dram().issueCount(CmdType::REFab), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDefenses, ControllerTimingProperty,
    ::testing::ValuesIn(mitigationNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(ControllerTiming, TpracPerBankRandomTrafficIsClean)
{
    // The Section-7.2 RFMpb path under random multi-agent traffic.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 128;

    ControllerConfig config;
    config.mitigation = "tprac";
    config.tbRfm.windowCycles = nsToCycles(30000);
    config.tbRfm.perBank = true;

    AttackHarness harness(spec, config);
    TimingChecker checker(spec);
    harness.mem().dram().setTraceSink(
        [&](const Command &cmd, Cycle now) {
            checker.observe(cmd, now);
        });

    RandomAgent agent_a(4), agent_b(5);
    harness.add(&agent_a);
    harness.add(&agent_b);
    harness.run(nsToCycles(150000));

    EXPECT_TRUE(checker.clean()) << checker.violations().front();
    EXPECT_GT(harness.mem().dram().issueCount(CmdType::RFMpb), 100u);
}

} // namespace
} // namespace pracleak
