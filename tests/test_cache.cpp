/**
 * @file
 * Unit tests for the cache hierarchy: tag arrays, LRU, MSHR merging,
 * writebacks, clflush, and the retry stamp of refused accesses.
 */

#include <gtest/gtest.h>

#include "cpu/cache.h"

namespace pracleak {
namespace {

TEST(TagArray, HitAfterInsert)
{
    TagArray tags(CacheLevelConfig{8 * 1024, 4, 1});
    EXPECT_FALSE(tags.lookup(100));
    tags.insert(100, false);
    EXPECT_TRUE(tags.lookup(100));
}

TEST(TagArray, LruEviction)
{
    // One set: 4 ways, 4 sets -> pick lines mapping to set 0.
    TagArray tags(CacheLevelConfig{16 * 64, 4, 1}); // 4 sets x 4 ways
    // Lines 0, 4, 8, ... all map to set 0 (line & 3).
    for (Addr line = 0; line < 16; line += 4)
        tags.insert(line, false);
    tags.lookup(0); // refresh line 0: line 4 is now LRU
    const auto victim = tags.insert(16, false);
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->line, 4u);
    EXPECT_TRUE(tags.probe(0));
    EXPECT_FALSE(tags.probe(4));
}

TEST(TagArray, DirtyBitSurvivesEviction)
{
    TagArray tags(CacheLevelConfig{4 * 64, 4, 1}); // 1 set x 4 ways
    tags.insert(0, false);
    tags.markDirty(0);
    tags.insert(1, false);
    tags.insert(2, false);
    tags.insert(3, false);
    const auto victim = tags.insert(4, false); // evicts LRU line 0
    ASSERT_TRUE(victim);
    EXPECT_EQ(victim->line, 0u);
    EXPECT_TRUE(victim->dirty);
}

TEST(TagArray, InvalidateReportsDirty)
{
    TagArray tags(CacheLevelConfig{8 * 1024, 4, 1});
    tags.insert(7, false);
    tags.markDirty(7);
    const auto dirty = tags.invalidate(7);
    ASSERT_TRUE(dirty);
    EXPECT_TRUE(*dirty);
    EXPECT_FALSE(tags.probe(7));
    EXPECT_FALSE(tags.invalidate(7)); // already gone
}

TEST(TagArray, ReinsertMergesDirty)
{
    TagArray tags(CacheLevelConfig{8 * 1024, 4, 1});
    tags.insert(9, true);
    tags.insert(9, false); // must not lose the dirty bit
    const auto dirty = tags.invalidate(9);
    ASSERT_TRUE(dirty);
    EXPECT_TRUE(*dirty);
}

TEST(TagArray, ReinsertAfterHoleKeepsOneCopy)
{
    // A clflush can empty a way in front of a cached line; refilling
    // that line (as after an L2 or LLC hit) must find the copy it has
    // rather than take the hole.
    TagArray tags(CacheLevelConfig{4 * 64, 4, 1}); // 1 set x 4 ways
    tags.insert(0, false);
    tags.insert(1, true);
    tags.invalidate(0);
    tags.insert(1, false);
    const auto dirty = tags.invalidate(1);
    ASSERT_TRUE(dirty);
    EXPECT_TRUE(*dirty);
    EXPECT_FALSE(tags.probe(1));
    EXPECT_FALSE(tags.invalidate(1));
}

class CacheHierarchyTest : public ::testing::Test
{
  protected:
    CacheHierarchyTest()
        : spec_(DramSpec::ddr5_8000b())
    {
        ControllerConfig config;
        config.refreshEnabled = false;
        mem_ = std::make_unique<MemoryController>(spec_, config,
                                                  &stats_);
        hier_ = std::make_unique<CacheHierarchy>(CacheHierConfig{}, 2,
                                                 mem_.get(), &stats_);
    }

    /** Load and spin the controller until the callback fires. */
    Cycle
    load(std::uint32_t core, Addr addr)
    {
        Cycle latency = kNeverCycle;
        EXPECT_TRUE(hier_->tryLoad(core, addr, [&](Cycle lat) {
            latency = lat;
        }));
        for (int i = 0; i < 100000 && latency == kNeverCycle; ++i)
            mem_->tick();
        EXPECT_NE(latency, kNeverCycle);
        return latency;
    }

    DramSpec spec_;
    StatSet stats_;
    std::unique_ptr<MemoryController> mem_;
    std::unique_ptr<CacheHierarchy> hier_;
};

TEST_F(CacheHierarchyTest, MissThenHit)
{
    const Cycle miss = load(0, 0x1000000);
    const Cycle hit = load(0, 0x1000000);
    EXPECT_GT(miss, hit);
    // L1 hit costs exactly the L1 latency.
    EXPECT_EQ(hit, CacheHierConfig{}.l1.latency);
    EXPECT_EQ(stats_.get("cache.l1_hits"), 1u);
    EXPECT_EQ(stats_.get("cache.llc_misses"), 1u);
}

TEST_F(CacheHierarchyTest, CrossCoreLlcSharing)
{
    load(0, 0x2000000);
    // Other core: misses its private L1/L2 but hits the shared LLC.
    const Cycle latency = load(1, 0x2000000);
    const CacheHierConfig config;
    EXPECT_EQ(latency, config.l1.latency + config.l2.latency +
                           config.llc.latency);
    EXPECT_EQ(stats_.get("cache.llc_hits"), 1u);
}

TEST_F(CacheHierarchyTest, MshrMergesConcurrentMisses)
{
    int done = 0;
    ASSERT_TRUE(hier_->tryLoad(0, 0x3000000,
                               [&](Cycle) { ++done; }));
    ASSERT_TRUE(hier_->tryLoad(1, 0x3000000,
                               [&](Cycle) { ++done; }));
    EXPECT_EQ(hier_->outstandingMisses(), 1u); // merged
    EXPECT_EQ(stats_.get("cache.mshr_merges"), 1u);
    for (int i = 0; i < 100000 && done < 2; ++i)
        mem_->tick();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(mem_->dram().issueCount(CmdType::RD), 1u);
}

TEST_F(CacheHierarchyTest, FlushForcesNextAccessToDram)
{
    load(0, 0x4000000);
    const std::uint64_t reads_before =
        mem_->dram().issueCount(CmdType::RD);
    hier_->flush(0x4000000);
    load(0, 0x4000000);
    EXPECT_EQ(mem_->dram().issueCount(CmdType::RD), reads_before + 1);
}

TEST_F(CacheHierarchyTest, StoreAllocatesAndDirties)
{
    ASSERT_TRUE(hier_->tryStore(0, 0x5000000));
    for (int i = 0; i < 100000 && hier_->outstandingMisses() > 0; ++i)
        mem_->tick();
    // Line present now; flushing it must produce a writeback.
    const std::uint64_t wb_before = stats_.get("cache.writebacks");
    hier_->flush(0x5000000);
    EXPECT_EQ(stats_.get("cache.writebacks"), wb_before + 1);
}

TEST_F(CacheHierarchyTest, MshrCapacityBounded)
{
    // Capacity = 64 per core x 2 cores = 128.
    int accepted = 0;
    for (int i = 0; i < 200; ++i) {
        const Addr addr = 0x6000000 + (static_cast<Addr>(i) << 20);
        if (hier_->tryLoad(0, addr, [](Cycle) {}))
            ++accepted;
    }
    // The controller queue (64) backpressures before MSHRs run out.
    EXPECT_LE(hier_->outstandingMisses(), 128u);
    EXPECT_LT(accepted, 200);
}

TEST_F(CacheHierarchyTest, RetryStampMovesWhenARefusalCouldEnd)
{
    // Fill the 64-entry queue with misses; the next miss is refused.
    for (Addr i = 0; hier_->tryLoad(0, 0x6000000 + (i << 20), nullptr);)
        ++i;
    std::uint64_t stamp = hier_->retryStamp();
    const std::uint64_t misses = stats_.get("cache.llc_misses");
    EXPECT_FALSE(hier_->tryLoad(1, 0x40000000, nullptr));
    EXPECT_EQ(stats_.get("cache.llc_misses"), misses + 1);
    EXPECT_EQ(hier_->retryStamp(), stamp); // a refusal changes nothing

    // A request leaving the queue.
    while (!mem_->canAccept())
        mem_->tick();
    EXPECT_NE(hier_->retryStamp(), stamp);

    // An MSHR allocated.
    stamp = hier_->retryStamp();
    ASSERT_TRUE(hier_->tryLoad(1, 0x40000000, nullptr));
    EXPECT_NE(hier_->retryStamp(), stamp);

    // An MSHR retired, filling its line.
    const std::size_t outstanding = hier_->outstandingMisses();
    stamp = hier_->retryStamp();
    while (hier_->outstandingMisses() == outstanding &&
           hier_->retryStamp() == stamp)
        mem_->tick();
    EXPECT_LT(hier_->outstandingMisses(), outstanding);
    EXPECT_NE(hier_->retryStamp(), stamp);

    // A flush.
    stamp = hier_->retryStamp();
    hier_->flush(0x6000000);
    EXPECT_NE(hier_->retryStamp(), stamp);
}

TEST(CacheRetryStamp, MovesWhenAnotherCoreRefillsTheLlc)
{
    // One-set L1 and LLC of two ways: core 0's third line pushes the
    // first out of both, but it stays in core 0's L2.
    CacheHierConfig caches;
    caches.l1 = {2 * kLineBytes, 2, 5};
    caches.llc = {2 * kLineBytes, 2, 20};
    ControllerConfig config;
    config.refreshEnabled = false;
    config.queueCapacity = 2;
    MemoryController mem(DramSpec::ddr5_8000b(), config);
    CacheHierarchy hier(caches, 2, &mem);
    const Addr x = 0x1000000, y = 0x2000000, z = 0x3000000;
    for (const Addr addr : {x, y, z}) {
        ASSERT_TRUE(hier.tryLoad(0, addr, nullptr));
        while (hier.outstandingMisses() > 0)
            mem.tick();
    }
    for (const Addr addr : {y, z}) {
        Request req;
        req.addr = addr;
        ASSERT_TRUE(mem.enqueue(std::move(req)));
    }

    // Core 1 misses everywhere and finds the queue full.
    ASSERT_FALSE(hier.tryLoad(1, x, nullptr));
    const std::uint64_t stamp = hier.retryStamp();
    // Core 0 hits its L2, which refills the shared LLC.
    ASSERT_TRUE(hier.tryLoad(0, x, nullptr));
    EXPECT_NE(hier.retryStamp(), stamp);
    EXPECT_TRUE(hier.tryLoad(1, x, nullptr));
}

} // namespace
} // namespace pracleak
