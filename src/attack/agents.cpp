#include "attack/agents.h"

#include <algorithm>

#include "attack/visible_bus.h"
#include "tprac/analysis.h"

namespace pracleak {

namespace {

/**
 * The Feinting pool sized for the TB-RFM-safe cadence -- the exact
 * derivation defense_matrix_security has always used, so a
 * zero-poolSize AttackerConfig is stream-identical to the legacy
 * hand-computed construction.
 */
std::uint32_t
deriveFeintingPool(const MemoryController &mem)
{
    const DramSpec &spec = mem.dram().spec();
    const FeintingParams fp = FeintingParams::fromSpec(spec);
    const double cadence_ns =
        std::max(maxSafeWindowNs(spec.prac.nbo, true, fp), fp.trcNs);
    const std::uint64_t act_w =
        std::max<std::uint64_t>(actsPerWindow(cadence_ns, fp), 1);
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        maxActsPerTrefw(cadence_ns, fp) / act_w, 2048));
}

} // namespace

// ------------------------------------------------------------ ProbeAgent

ProbeAgent::ProbeAgent(const MemoryController &mem,
                       const AttackerConfig &config, bool record_all)
    : addr_(attackerAddress(mem, config.targetBank, config.targetRow)),
      recordAll_(record_all)
{
    // A full timeline holds one sample per read, up to ~55k per
    // simulated millisecond.  Reserving them up front skips a dozen
    // grow-and-copy steps whose freed buffers fragment the heap over
    // a long series of experiments.
    if (record_all)
        samples_.reserve(1 << 16);
}

Cycle
ProbeAgent::spikeThreshold()
{
    // One audited surface for "what can a probe see": the visible-bus
    // model owns the single-RFM latency discriminator (an RFMab
    // blocks the channel for 350 ns; a normal probe read finishes
    // well under 100 ns).
    return VisibleBusModel::probeSpikeThreshold();
}

void
ProbeAgent::tick(MemoryController &mem, Cycle)
{
    if (asleep_)
        return;

    Request req;
    req.type = ReqType::Read;
    req.addr = addr_;
    req.onComplete = [this](const Request &done) {
        asleep_ = false;
        ++completed_;
        const LatencySample sample{done.completed, done.latency()};
        if (sample.latency >= spikeThreshold())
            lastSpikeAt_ = sample.doneAt;
        if (recordAll_ || sample.latency >= spikeThreshold())
            samples_.push_back(sample);
    };
    // A refused read retries next cycle, so only an accepted one
    // puts the probe to sleep.
    asleep_ = mem.enqueue(std::move(req));
}

bool
ProbeAgent::spikeSince(Cycle since) const
{
    return lastSpikeAt_ != 0 && lastSpikeAt_ >= since;
}

void
ProbeAgent::clearSamples()
{
    samples_.clear();
}

// ----------------------------------------------------------- HammerAgent

HammerAgent::HammerAgent(const MemoryController &mem,
                         const AttackerConfig &config)
    : targetAddr_(
          attackerAddress(mem, config.targetBank, config.targetRow))
{
    const std::uint32_t count =
        config.poolSize == 0 ? 2 : config.poolSize;
    const std::uint32_t stride =
        config.burstSpacing == 0 ? 1000 : config.burstSpacing;
    decoyAddrs_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i)
        decoyAddrs_.push_back(attackerAddress(
            mem, config.targetBank, config.targetRow + stride + i));
}

void
HammerAgent::startHammer(std::uint32_t target_acts)
{
    active_ = true;
    nextIsTarget_ = true;
    targetBudget_ = target_acts;
    targetDone_ = 0;
    updateSleep();
}

void
HammerAgent::stop()
{
    active_ = false;
    targetBudget_ = 0;
    updateSleep();
}

bool
HammerAgent::done() const
{
    return !active_ ||
           (targetBudget_ == 0 && outstanding_ == 0);
}

Addr
HammerAgent::nextAddress()
{
    if (nextIsTarget_) {
        nextIsTarget_ = false;
        return targetAddr_;
    }
    nextIsTarget_ = true;
    const Addr addr = decoyAddrs_[decoyIdx_];
    decoyIdx_ = (decoyIdx_ + 1) % decoyAddrs_.size();
    return addr;
}

void
HammerAgent::updateSleep()
{
    // Idle, pipeline full, or the burst's last reads draining: only a
    // completion callback, startHammer() or stop() changes that.
    asleep_ = !active_ || outstanding_ >= kMaxOutstanding ||
              (targetBudget_ == 0 && nextIsTarget_ && outstanding_ > 0);
}

void
HammerAgent::tick(MemoryController &mem, Cycle)
{
    while (active_ && outstanding_ < kMaxOutstanding) {
        if (targetBudget_ == 0 && nextIsTarget_) {
            // Burst complete once in-flight reads drain.
            if (outstanding_ == 0)
                active_ = false;
            break;
        }

        const bool is_target = nextIsTarget_;
        const Addr addr = nextAddress();

        Request req;
        req.type = ReqType::Read;
        req.addr = addr;
        req.onComplete = [this, is_target](const Request &) {
            --outstanding_;
            if (is_target)
                ++targetDone_;
            updateSleep();
        };
        if (!mem.enqueue(std::move(req))) {
            // Queue full: undo the sequencing step and retry later.
            nextIsTarget_ = is_target;
            if (!is_target)
                decoyIdx_ = (decoyIdx_ + decoyAddrs_.size() - 1) %
                            decoyAddrs_.size();
            break;
        }
        ++outstanding_;
        if (is_target)
            --targetBudget_;
    }
    updateSleep();
}

// --------------------------------------------------------- FeintingAgent

FeintingAgent::FeintingAgent(MemoryController &mem,
                             const AttackerConfig &config)
    : mem_(mem), targetRow_(config.targetRow)
{
    const std::uint32_t pool_size = config.poolSize == 0
                                        ? deriveFeintingPool(mem)
                                        : config.poolSize;
    for (std::uint32_t i = 0; i < pool_size; ++i)
        pool_.push_back(targetRow_ + 1 + i);
    pool_.push_back(targetRow_);
}

std::uint32_t
FeintingAgent::nextRow()
{
    if (cursor_ >= pool_.size()) {
        // End of a wave: drop decoys whose counters were mitigated
        // back to zero -- their activations are now pure overhead.
        cursor_ = 0;
        std::vector<std::uint32_t> alive;
        for (const std::uint32_t row : pool_)
            if (row == targetRow_ ||
                mem_.prac().counters().get(0, row) > 0)
                alive.push_back(row);
        pool_ = std::move(alive);
    }
    if (pool_.size() <= 1)
        return targetRow_;
    return pool_[cursor_++];
}

void
FeintingAgent::tick(MemoryController &mem, Cycle)
{
    // Draw a row only for a request the controller takes: a refused
    // draw would skip that row for the rest of the wave, and the
    // wave-end pruning would then drop it as mitigated.
    while (outstanding_ < 2 && mem.canAccept()) {
        Request req;
        req.addr = attackerAddress(mem, 0, nextRow());
        req.onComplete = [this](const Request &) {
            --outstanding_;
        };
        mem.enqueue(std::move(req));
        ++outstanding_;
    }
}

} // namespace pracleak
