#include "cpu/cache.h"

#include <algorithm>

#include "common/log.h"

namespace pracleak {

// ------------------------------------------------------------- TagArray

TagArray::TagArray(const CacheLevelConfig &config)
    : sets_(config.sets()), ways_(config.ways),
      tags_(static_cast<std::size_t>(config.sets()) * config.ways,
            kEmpty),
      lastUse_(tags_.size(), 0), dirty_(tags_.size(), 0)
{
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
        fatal("cache set count must be a non-zero power of two");
}

std::size_t
TagArray::setOf(Addr line) const
{
    return static_cast<std::size_t>(line & (sets_ - 1)) * ways_;
}

std::size_t
TagArray::find(Addr line) const
{
    const std::size_t base = setOf(line);
    for (std::size_t w = base; w < base + ways_; ++w)
        if (tags_[w] == line)
            return w;
    return kMissing;
}

bool
TagArray::lookup(Addr line)
{
    const std::size_t w = find(line);
    if (w == kMissing)
        return false;
    lastUse_[w] = ++useClock_;
    return true;
}

bool
TagArray::probe(Addr line) const
{
    return find(line) != kMissing;
}

std::optional<TagArray::Victim>
TagArray::insert(Addr line, bool dirty)
{
    if (const std::size_t w = find(line); w != kMissing) {
        // Already present: refresh recency, merge dirty.
        lastUse_[w] = ++useClock_;
        dirty_[w] |= dirty;
        return std::nullopt;
    }

    // The first empty way, else the least recently used one.
    const std::size_t base = setOf(line);
    std::size_t slot = base;
    for (std::size_t w = base; w < base + ways_; ++w) {
        if (tags_[w] == kEmpty) {
            slot = w;
            break;
        }
        if (lastUse_[w] < lastUse_[slot])
            slot = w;
    }

    std::optional<Victim> out;
    if (tags_[slot] != kEmpty)
        out = Victim{tags_[slot], dirty_[slot] != 0};
    tags_[slot] = line;
    dirty_[slot] = dirty;
    lastUse_[slot] = ++useClock_;
    return out;
}

bool
TagArray::markDirty(Addr line)
{
    const std::size_t w = find(line);
    if (w == kMissing)
        return false;
    dirty_[w] = 1;
    lastUse_[w] = ++useClock_;
    return true;
}

std::optional<bool>
TagArray::invalidate(Addr line)
{
    const std::size_t w = find(line);
    if (w == kMissing)
        return std::nullopt;
    tags_[w] = kEmpty;
    return dirty_[w] != 0;
}

// ------------------------------------------------------- CacheHierarchy

CacheHierarchy::CacheHierarchy(const CacheHierConfig &config,
                               std::uint32_t num_cores,
                               MemoryController *mem, StatSet *stats)
    : CacheHierarchy(config, num_cores,
                     std::vector<MemoryController *>{mem}, stats)
{
}

CacheHierarchy::CacheHierarchy(const CacheHierConfig &config,
                               std::uint32_t num_cores,
                               std::vector<MemoryController *> mems,
                               StatSet *stats)
    : config_(config), mems_(std::move(mems)), stats_(stats),
      llc_(config.llc),
      mshrCapacity_(static_cast<std::size_t>(config.mshrsPerCore) *
                    num_cores)
{
    if (mems_.empty())
        fatal("CacheHierarchy needs at least one memory controller");
    if (mems_[0]->mapper().channels() != mems_.size())
        fatal("controller count must match the channel-interleave "
              "fan-out");
    l1_.reserve(num_cores);
    l2_.reserve(num_cores);
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        l1_.emplace_back(config.l1);
        l2_.emplace_back(config.l2);
    }
    if (stats_) {
        l1Hits_ = &stats_->counter("cache.l1_hits");
        l2Hits_ = &stats_->counter("cache.l2_hits");
        llcHits_ = &stats_->counter("cache.llc_hits");
        llcMisses_ = &stats_->counter("cache.llc_misses");
    }
}

MemoryController &
CacheHierarchy::memFor(Addr line)
{
    if (mems_.size() == 1)
        return *mems_[0];
    return *mems_[mems_[0]->mapper().channelOf(line << kLineShift)];
}

bool
CacheHierarchy::lookupHierarchy(std::uint32_t core, Addr line,
                                Cycle &latency)
{
    latency = config_.l1.latency;
    if (l1_[core].lookup(line)) {
        if (stats_)
            ++*l1Hits_;
        return true;
    }
    latency += config_.l2.latency;
    if (l2_[core].lookup(line)) {
        if (stats_)
            ++*l2Hits_;
        fill(core, line, false);
        return true;
    }
    latency += config_.llc.latency;
    if (llc_.lookup(line)) {
        if (stats_)
            ++*llcHits_;
        fill(core, line, false);
        return true;
    }
    if (stats_)
        ++*llcMisses_;
    return false;
}

void
CacheHierarchy::writeback(Addr line)
{
    Request wb;
    wb.type = ReqType::Write;
    wb.addr = line << kLineShift;
    if (!memFor(line).enqueue(std::move(wb))) {
        // Queue full: drop the writeback's bandwidth cost rather than
        // stalling the hierarchy; rare, and data correctness is not
        // modeled.
        if (stats_)
            ++stats_->counter("cache.dropped_writebacks");
    } else if (stats_) {
        ++stats_->counter("cache.writebacks");
    }
}

std::uint64_t
CacheHierarchy::retryStamp() const
{
    std::uint64_t stamp = changes_;
    for (const MemoryController *mem : mems_)
        stamp += mem->dequeued();
    return stamp;
}

void
CacheHierarchy::fill(std::uint32_t core, Addr line, bool dirty)
{
    ++changes_;
    // Fill into every level; only LLC evictions touch DRAM
    // (non-inclusive hierarchy, L1/L2 victims are clean or will be
    // re-fetched through the LLC).
    if (auto v = l1_[core].insert(line, dirty); v && v->dirty)
        l2_[core].insert(v->line, true);
    l2_[core].insert(line, false);
    if (auto v = llc_.insert(line, false); v && v->dirty)
        writeback(v->line);
}

bool
CacheHierarchy::missToDram(std::uint32_t core, Addr line, Waiter waiter)
{
    auto it = mshrs_.find(line);
    if (it != mshrs_.end()) {
        // Merge into the outstanding miss.
        it->second.waiters.push_back(std::move(waiter));
        if (stats_)
            ++stats_->counter("cache.mshr_merges");
        return true;
    }

    MemoryController &mem = memFor(line);
    if (mshrs_.size() >= mshrCapacity_ || !mem.canAccept())
        return false;

    Request req;
    req.type = ReqType::Read;
    req.addr = line << kLineShift;
    req.coreId = core;
    req.onComplete = [this, line](const Request &done_req) {
        auto node = mshrs_.extract(line);
        if (node.empty())
            panic("MSHR completion without entry");
        ++changes_;
        for (Waiter &w : node.mapped().waiters) {
            fill(w.core, line, false);
            if (w.isStore) {
                l1_[w.core].markDirty(line);
            } else if (w.done) {
                w.done(done_req.latency() + w.lookupLatency);
            }
        }
    };

    Mshr entry;
    entry.waiters.push_back(std::move(waiter));
    if (!mem.enqueue(std::move(req)))
        return false;
    mshrs_.emplace(line, std::move(entry));
    ++changes_;
    return true;
}

bool
CacheHierarchy::tryLoad(std::uint32_t core, Addr addr,
                        std::function<void(Cycle)> done)
{
    const Addr line = addr >> kLineShift;
    Cycle latency = 0;
    if (lookupHierarchy(core, line, latency)) {
        if (done)
            done(latency);
        return true;
    }
    return missToDram(core, line,
                      Waiter{core, false, std::move(done), latency});
}

bool
CacheHierarchy::tryStore(std::uint32_t core, Addr addr)
{
    const Addr line = addr >> kLineShift;
    Cycle latency = 0;
    if (lookupHierarchy(core, line, latency)) {
        l1_[core].markDirty(line);
        return true;
    }
    return missToDram(core, line, Waiter{core, true, nullptr, latency});
}

void
CacheHierarchy::flush(Addr addr)
{
    const Addr line = addr >> kLineShift;
    ++changes_;
    bool dirty = false;
    for (std::size_t c = 0; c < l1_.size(); ++c) {
        if (auto d = l1_[c].invalidate(line))
            dirty |= *d;
        if (auto d = l2_[c].invalidate(line))
            dirty |= *d;
    }
    if (auto d = llc_.invalidate(line))
        dirty |= *d;
    if (dirty)
        writeback(line);
}

} // namespace pracleak
