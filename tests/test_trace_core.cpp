/**
 * @file
 * Unit tests for the trace-driven core model: retirement mechanics,
 * MLP bounds, dependent-load serialization, and refused accesses.
 */

#include <gtest/gtest.h>

#include <deque>

#include "cpu/cache.h"
#include "cpu/trace_core.h"

namespace pracleak {
namespace {

/**
 * Scripted workload: plays a fixed op list, then idles by dripping
 * single non-memory instructions.  Exposes how much of the script has
 * been consumed so tests can ignore the idle drip.
 */
class ScriptedWorkload : public WorkloadSource
{
  public:
    explicit ScriptedWorkload(std::deque<TraceOp> ops)
        : ops_(std::move(ops))
    {
    }

    TraceOp
    next() override
    {
        if (ops_.empty()) {
            ++idleOps_;
            return TraceOp{1, false, false, false, 0};
        }
        const TraceOp op = ops_.front();
        ops_.pop_front();
        return op;
    }

    bool scriptDone() const { return ops_.empty(); }
    std::uint64_t idleOps() const { return idleOps_; }

    const std::string &name() const override { return name_; }

  private:
    std::deque<TraceOp> ops_;
    std::uint64_t idleOps_ = 0;
    std::string name_ = "scripted";
};

/** A cache line address whose MOP mapping varies bank with @p i. */
Addr
spreadAddr(int i)
{
    // Line index i*4 skips the 4-line MOP block, so consecutive i hit
    // different bank groups/banks/ranks.
    return static_cast<Addr>(i) * 4 * kLineBytes + (1ULL << 30);
}

class TraceCoreTest : public ::testing::Test
{
  protected:
    TraceCoreTest()
    {
        ControllerConfig config;
        config.refreshEnabled = false;
        mem_ = std::make_unique<MemoryController>(
            DramSpec::ddr5_8000b(), config, &stats_);
        hier_ = std::make_unique<CacheHierarchy>(CacheHierConfig{}, 1,
                                                 mem_.get(), &stats_);
    }

    void
    run(TraceCore &core, Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            core.tick(mem_->now());
            mem_->tick();
        }
    }

    StatSet stats_;
    std::unique_ptr<MemoryController> mem_;
    std::unique_ptr<CacheHierarchy> hier_;
};

TEST_F(TraceCoreTest, RetireWidthBoundsIpc)
{
    ScriptedWorkload workload({TraceOp{100000, false, false, false, 0}});
    CoreParams params;
    params.retireWidth = 4;
    TraceCore core(0, &workload, hier_.get(), params);

    run(core, 100);
    EXPECT_EQ(core.instrsRetired(), 400u);
}

TEST_F(TraceCoreTest, CachedLoadsRetireQuickly)
{
    // One warming miss, then 63 hits to the same line.
    std::deque<TraceOp> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back(TraceOp{0, true, false, false, 0x1000});
    ScriptedWorkload workload(std::move(ops));
    TraceCore core(0, &workload, hier_.get(), CoreParams{});

    run(core, 2000);
    EXPECT_TRUE(workload.scriptDone());
    // 64 loads + idle drip only.
    EXPECT_EQ(core.instrsRetired() - workload.idleOps(), 64u);
}

TEST_F(TraceCoreTest, MlpBoundsOutstandingLoads)
{
    std::deque<TraceOp> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back(TraceOp{0, true, false, false, spreadAddr(i)});
    ScriptedWorkload workload(std::move(ops));
    CoreParams params;
    params.mlp = 4;
    TraceCore core(0, &workload, hier_.get(), params);

    std::size_t max_queue = 0;
    for (int i = 0; i < 60000 && !workload.scriptDone(); ++i) {
        core.tick(mem_->now());
        max_queue = std::max(max_queue, mem_->queueDepth());
        mem_->tick();
    }
    EXPECT_TRUE(workload.scriptDone());
    EXPECT_LE(max_queue, 5u); // mlp + an in-delivery overlap
}

TEST_F(TraceCoreTest, HigherMlpFinishesFaster)
{
    auto cycles_with_mlp = [&](std::uint32_t mlp) {
        ControllerConfig config;
        config.refreshEnabled = false;
        MemoryController mem(DramSpec::ddr5_8000b(), config);
        CacheHierarchy hier(CacheHierConfig{}, 1, &mem);
        std::deque<TraceOp> ops;
        for (int i = 0; i < 128; ++i)
            ops.push_back(
                TraceOp{0, true, false, false, spreadAddr(i)});
        ScriptedWorkload workload(std::move(ops));
        CoreParams params;
        params.mlp = mlp;
        TraceCore core(0, &workload, &hier, params);
        Cycle t = 0;
        while (!workload.scriptDone() && t < 1000000) {
            core.tick(mem.now());
            mem.tick();
            ++t;
        }
        return t;
    };

    const Cycle serial = cycles_with_mlp(1);
    const Cycle parallel = cycles_with_mlp(16);
    // Banked parallelism must collapse the runtime.
    EXPECT_LT(parallel * 3, serial);
}

TEST_F(TraceCoreTest, DependentLoadSerializes)
{
    std::deque<TraceOp> ops;
    ops.push_back(TraceOp{0, true, false, true, 0x7000000}); // DRAM
    ops.push_back(TraceOp{100, false, false, false, 0});
    ScriptedWorkload workload(std::move(ops));
    TraceCore core(0, &workload, hier_.get(), CoreParams{});

    // While the dependent load is outstanding nothing younger runs.
    run(core, 10);
    EXPECT_EQ(core.instrsRetired(), 1u);
    EXPECT_FALSE(workload.scriptDone());

    run(core, 2000);
    EXPECT_TRUE(workload.scriptDone());
    EXPECT_EQ(core.instrsRetired() - workload.idleOps(), 101u);
}

TEST_F(TraceCoreTest, StoresArePosted)
{
    // Stores must not stall retirement even when they miss.
    std::deque<TraceOp> ops;
    for (int i = 0; i < 8; ++i)
        ops.push_back(TraceOp{0, true, true, false, spreadAddr(i)});
    ops.push_back(TraceOp{40, false, false, false, 0});
    ScriptedWorkload workload(std::move(ops));
    TraceCore core(0, &workload, hier_.get(), CoreParams{});

    run(core, 40);
    // Script fully consumed long before the DRAM writes complete.
    EXPECT_TRUE(workload.scriptDone());
    EXPECT_GE(core.instrsRetired(), 48u);
}

TEST_F(TraceCoreTest, IndependentLoadsDoNotSerialize)
{
    // Non-dependent misses overlap: 16 banked misses finish in far
    // less than 16 serialized round trips.
    std::deque<TraceOp> ops;
    for (int i = 0; i < 16; ++i)
        ops.push_back(TraceOp{0, true, false, false, spreadAddr(i)});
    ScriptedWorkload workload(std::move(ops));
    TraceCore core(0, &workload, hier_.get(), CoreParams{});

    Cycle t = 0;
    while (!workload.scriptDone() && t < 100000) {
        core.tick(mem_->now());
        mem_->tick();
        ++t;
    }
    // A serialized core would need ~16 x ~300 cycles just to issue.
    EXPECT_LT(t, 1500u);
}

TEST(TraceCore, RefusedAccessSleepsUntilASlotFrees)
{
    // Two requests fill a 2-entry queue; the core's load is refused
    // until the controller's first CAS frees a slot.
    ControllerConfig config;
    config.refreshEnabled = false;
    config.queueCapacity = 2;
    StatSet stats;
    MemoryController mem(DramSpec::ddr5_8000b(), config, &stats);
    CacheHierarchy hier(CacheHierConfig{}, 1, &mem, &stats);
    for (int i = 1; i <= 2; ++i) {
        Request req;
        req.addr = spreadAddr(i);
        ASSERT_TRUE(mem.enqueue(std::move(req)));
    }
    ScriptedWorkload workload({TraceOp{0, true, false, false, spreadAddr(0)}});
    TraceCore core(0, &workload, &hier, CoreParams{});

    const std::uint64_t &misses = stats.counter("cache.llc_misses");
    std::uint64_t refused = 0;
    while (!mem.canAccept()) {
        core.tick(mem.now());
        ++refused;
        EXPECT_EQ(misses, refused); // one LLC miss per refused cycle
        EXPECT_EQ(core.instrsRetired(), 0u);
        EXPECT_EQ(core.nextEventAt(), mem.now() + 1);
        mem.tick();
    }
    EXPECT_GT(refused, 10u); // ACT, tRCD, then the CAS

    // The CAS of the last cycle freed a slot: this cycle's retry wins.
    core.tick(mem.now());
    EXPECT_TRUE(workload.scriptDone());
    EXPECT_EQ(core.instrsRetired() - workload.idleOps(), 1u);
    EXPECT_EQ(misses, refused + 1);
    EXPECT_EQ(mem.queueDepth(), 2u);
}

} // namespace
} // namespace pracleak
