/**
 * @file
 * Tests for the Section-7.1 obfuscation alternative: random RFM
 * injection blurs but does not eliminate the timing channel, at a
 * tunable cost.
 */

#include <gtest/gtest.h>

#include "attack/covert.h"
#include "attack/harness.h"
#include "common/rng.h"

namespace pracleak {
namespace {

TEST(Obfuscation, InjectsRfmsAtConfiguredRate)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    ControllerConfig config;
    config.mitigation = "obfuscation";
    config.randomRfmPerTrefi = 0.5;
    MemoryController mem(spec, config);

    const std::uint64_t windows = 400;
    mem.run(spec.timing.tREFI * windows);
    const std::uint64_t rfms = mem.rfmCount(RfmReason::Random);
    // Binomial(400, 0.5): expect ~200, 5 sigma ~ 50.
    EXPECT_GT(rfms, 150u);
    EXPECT_LT(rfms, 250u);
}

TEST(Obfuscation, ZeroRateInjectsNothing)
{
    DramSpec spec = DramSpec::ddr5_8000b();
    ControllerConfig config;
    config.mitigation = "obfuscation";
    config.randomRfmPerTrefi = 0.0;
    MemoryController mem(spec, config);
    mem.run(spec.timing.tREFI * 100);
    EXPECT_EQ(mem.rfmCount(RfmReason::Random), 0u);
}

TEST(Obfuscation, InjectionIndependentOfActivity)
{
    // Same seed, with and without demand traffic: identical draws.
    DramSpec spec = DramSpec::ddr5_8000b();
    auto count = [&](bool traffic) {
        ControllerConfig config;
        config.mitigation = "obfuscation";
        config.randomRfmPerTrefi = 0.5;
        config.obfuscationSeed = 99;
        MemoryController mem(spec, config);
        std::uint64_t row = 0;
        const Cycle end = spec.timing.tREFI * 100;
        while (mem.now() < end) {
            if (traffic && mem.canAccept()) {
                Request req;
                req.addr = mem.mapper().compose(DramAddress{
                    0, 0, 0, static_cast<std::uint32_t>(row++ % 32),
                    0});
                mem.enqueue(std::move(req));
            }
            mem.tick();
        }
        return mem.rfmCount(RfmReason::Random);
    };
    EXPECT_EQ(count(false), count(true));
}

TEST(Obfuscation, DegradesButDoesNotCloseActivityChannel)
{
    CovertParams params;
    params.nbo = 256;
    params.defense = "obfuscation";
    params.randomRfmPerTrefi = 0.5;

    Rng rng(31);
    std::vector<bool> message(24);
    for (std::size_t i = 0; i < message.size(); ++i)
        message[i] = rng.chance(0.5);

    const CovertResult result = runActivityCovert(params, message);

    // The naive threshold receiver now sees random spikes in Bit-0
    // windows: substantial errors appear...
    EXPECT_GT(result.symbolErrors, 2u);
    // ...but Bit-1 windows still always contain an (ABO) RFM, so the
    // channel is not information-free: every sent 1 is decoded 1.
    for (std::size_t i = 0; i < message.size(); ++i)
        if (message[i])
            EXPECT_EQ(result.decoded[i], 1u) << "window " << i;
}

TEST(Obfuscation, AboStillFires)
{
    // Unlike TPRAC, obfuscation does not prevent rows from reaching
    // NBO; the Alert (and its leak) remains.
    DramSpec spec = DramSpec::ddr5_8000b();
    spec.prac.nbo = 64;
    ControllerConfig config;
    config.mitigation = "obfuscation";
    config.randomRfmPerTrefi = 0.25;
    config.prac.queue = QueueKind::Ideal;
    MemoryController mem(spec, config);

    std::uint64_t i = 0;
    const Cycle end = spec.timing.tREFI * 40;
    while (mem.now() < end) {
        if (mem.canAccept()) {
            Request req;
            req.addr = mem.mapper().compose(DramAddress{
                0, 0, 0, (i++ % 2) ? 100u : 200u + (std::uint32_t)(i % 8),
                0});
            mem.enqueue(std::move(req));
        }
        mem.tick();
    }
    EXPECT_GT(mem.prac().alerts(), 0u);
}

} // namespace
} // namespace pracleak
