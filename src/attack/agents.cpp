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
        optimalPool(cadence_ns, act_w, fp), 2048));
}

} // namespace

// ------------------------------------------------------------ ProbeAgent

ProbeAgent::ProbeAgent(const MemoryController &mem,
                       const AttackerConfig &config, bool record_all)
    : AttackerAgent(config, 1),
      addr_(attackerAddress(mem, config.targetBank, config.targetRow)),
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
ProbeAgent::onComplete(const Request &done, std::uint64_t)
{
    const LatencySample sample{done.completed, done.latency()};
    if (sample.latency >= spikeThreshold())
        lastSpikeAt_ = sample.doneAt;
    if (recordAll_ || sample.latency >= spikeThreshold())
        samples_.push_back(sample);
}

bool
ProbeAgent::spikeSince(Cycle since) const
{
    return lastSpikeAt_ != 0 && lastSpikeAt_ >= since;
}

// ----------------------------------------------------------- HammerAgent

HammerAgent::HammerAgent(const MemoryController &mem,
                         const AttackerConfig &config)
    : AttackerAgent(config, 2), // 2 reads fill the bank's tRC pipeline
      targetAddr_(
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
    wake();
}

void
HammerAgent::repeat(std::uint32_t target_acts)
{
    repeatActs_ = target_acts;
    wake();
}

void
HammerAgent::stop()
{
    active_ = false;
    targetBudget_ = 0;
    repeatActs_ = 0;
}

bool
HammerAgent::done() const
{
    return !active_ || (targetBudget_ == 0 && inFlight() == 0);
}

std::optional<Addr>
HammerAgent::next(MemoryController &)
{
    if (repeatActs_ != 0 && done())
        startHammer(repeatActs_);
    // Idle, or the burst's last reads draining.
    if (!active_ || (targetBudget_ == 0 && nextIsTarget_))
        return std::nullopt;
    if (nextIsTarget_) {
        nextIsTarget_ = false;
        --targetBudget_;
        return targetAddr_;
    }
    nextIsTarget_ = true;
    const Addr addr = decoyAddrs_[decoyIdx_];
    decoyIdx_ = (decoyIdx_ + 1) % decoyAddrs_.size();
    return addr;
}

void
HammerAgent::onComplete(const Request &done, std::uint64_t)
{
    if (done.addr == targetAddr_)
        ++targetDone_;
}

// --------------------------------------------------------- FeintingAgent

FeintingAgent::FeintingAgent(const MemoryController &mem,
                             const AttackerConfig &config)
    : AttackerAgent(config, 2), targetRow_(config.targetRow)
{
    const std::uint32_t pool_size = config.poolSize == 0
                                        ? deriveFeintingPool(mem)
                                        : config.poolSize;
    for (std::uint32_t i = 0; i < pool_size; ++i)
        pool_.push_back(targetRow_ + 1 + i);
    pool_.push_back(targetRow_);
}

std::optional<Addr>
FeintingAgent::next(MemoryController &mem)
{
    if (cursor_ >= pool_.size()) {
        // End of a wave: drop decoys whose counters were mitigated
        // back to zero -- their activations are now pure overhead.
        cursor_ = 0;
        std::vector<std::uint32_t> alive;
        for (const std::uint32_t row : pool_)
            if (row == targetRow_ ||
                mem.prac().counters().get(0, row) > 0)
                alive.push_back(row);
        pool_ = std::move(alive);
    }
    const std::uint32_t row =
        pool_.size() <= 1 ? targetRow_ : pool_[cursor_++];
    return attackerAddress(mem, 0, row);
}

} // namespace pracleak
