/**
 * @file
 * Three-level cache hierarchy (private L1D + private L2, shared LLC)
 * feeding the memory controller.
 *
 * Modeling choices (documented substitutions from the paper's
 * ChampSim setup, see DESIGN.md):
 *  - True LRU replacement everywhere.  The paper reports <1% result
 *    variance across replacement/prefetch policies, so SRRIP and the
 *    SPP-PPF prefetcher are omitted.
 *  - Non-inclusive levels with fill-on-return to every level.
 *  - Write-back, write-allocate; LLC evictions of dirty lines become
 *    posted DRAM writes.
 *  - A shared MSHR table at the LLC merges concurrent misses to the
 *    same line and bounds outstanding DRAM reads (64 per core).
 *
 * The hierarchy is callback-driven and shares the controller's clock:
 * hits invoke the completion callback synchronously with their
 * aggregate lookup latency; misses complete when the DRAM read
 * returns.
 */

#ifndef PRACLEAK_CPU_CACHE_H
#define PRACLEAK_CPU_CACHE_H

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "mem/controller.h"

namespace pracleak {

/** Geometry and latency of one cache level. */
struct CacheLevelConfig
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t ways = 0;
    Cycle latency = 0;

    std::uint32_t
    sets() const
    {
        return sizeBytes / (kLineBytes * ways);
    }
};

/** Hierarchy-wide configuration (defaults follow Table 3). */
struct CacheHierConfig
{
    CacheLevelConfig l1{48 * 1024, 12, 5};
    CacheLevelConfig l2{512 * 1024, 8, 10};
    CacheLevelConfig llc{8 * 1024 * 1024, 16, 20};
    std::uint32_t mshrsPerCore = 64;
};

/** Set-associative tag array with true-LRU replacement. */
class TagArray
{
  public:
    TagArray(const CacheLevelConfig &config);

    /** Lookup @p line; updates recency on hit. */
    bool lookup(Addr line);

    /** Hit test without recency update (for tests/telemetry). */
    bool probe(Addr line) const;

    /**
     * Insert @p line (evicting the LRU way if the set is full).
     * Returns the evicted line and its dirty bit, if any.
     */
    struct Victim
    {
        Addr line;
        bool dirty;
    };
    std::optional<Victim> insert(Addr line, bool dirty);

    /** Mark @p line dirty if present; returns presence. */
    bool markDirty(Addr line);

    /** Remove @p line if present; returns whether it was dirty. */
    std::optional<bool> invalidate(Addr line);

  private:
    struct Way
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t setOf(Addr line) const;

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::vector<Way> data_;
    std::uint64_t useClock_ = 0;
};

/** Private-L1/L2 + shared-LLC hierarchy for @p num_cores cores. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheHierConfig &config, std::uint32_t num_cores,
                   MemoryController *mem, StatSet *stats = nullptr);

    /**
     * Multi-channel constructor: misses and writebacks route to the
     * controller owning the line's channel (per the controllers'
     * shared ChannelInterleave).  All controllers must share one
     * clock; a single-element vector behaves exactly like the
     * single-controller constructor.
     */
    CacheHierarchy(const CacheHierConfig &config, std::uint32_t num_cores,
                   std::vector<MemoryController *> mems,
                   StatSet *stats = nullptr);

    /**
     * Issue a load.  On a cache hit @p done fires synchronously with
     * the hit latency; on a miss it fires when DRAM data returns.
     * Returns false (and does nothing) when MSHRs or the controller
     * queue are exhausted -- the caller retries next cycle.
     */
    bool tryLoad(std::uint32_t core, Addr addr,
                 std::function<void(Cycle latency)> done);

    /**
     * Issue a posted store (write-allocate).  Returns false when the
     * required miss could not be tracked this cycle.
     */
    bool tryStore(std::uint32_t core, Addr addr);

    /**
     * Invalidate @p addr everywhere (clflush).  Dirty data is written
     * back.  Always succeeds; a full controller queue only delays the
     * writeback, never the invalidation.
     */
    void flush(Addr addr);

    std::size_t outstandingMisses() const { return mshrs_.size(); }

  private:
    struct Waiter
    {
        std::uint32_t core;
        bool isStore;
        std::function<void(Cycle)> done;
        Cycle lookupLatency; //!< L1+L2+LLC latency already incurred
    };

    struct Mshr
    {
        std::vector<Waiter> waiters;
    };

    bool lookupHierarchy(std::uint32_t core, Addr line, Cycle &latency);
    void fill(std::uint32_t core, Addr line, bool dirty);
    void writeback(Addr line);
    bool missToDram(std::uint32_t core, Addr line, Waiter waiter);

    /** Controller owning @p line's channel. */
    MemoryController &memFor(Addr line);

    CacheHierConfig config_;
    std::vector<MemoryController *> mems_;
    StatSet *stats_;

    /**
     * Per-access counters resolved once at construction (null without
     * a StatSet): every core access bumps one, too often for a
     * name-keyed map lookup.
     */
    std::uint64_t *l1Hits_ = nullptr;
    std::uint64_t *l2Hits_ = nullptr;
    std::uint64_t *llcHits_ = nullptr;
    std::uint64_t *llcMisses_ = nullptr;

    std::vector<TagArray> l1_;  //!< per core
    std::vector<TagArray> l2_;  //!< per core
    TagArray llc_;

    std::unordered_map<Addr, Mshr> mshrs_;
    std::size_t mshrCapacity_;
};

} // namespace pracleak

#endif // PRACLEAK_CPU_CACHE_H
