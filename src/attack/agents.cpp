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

/** Decoy layout for the config-constructed HammerAgent. */
std::vector<DramAddress>
hammerDecoys(const DramOrg &org, const AttackerConfig &config)
{
    const std::uint32_t count =
        config.poolSize == 0 ? 2 : config.poolSize;
    const std::uint32_t stride =
        config.burstSpacing == 0 ? 1000 : config.burstSpacing;
    std::vector<DramAddress> decoys;
    for (std::uint32_t i = 0; i < count; ++i)
        decoys.push_back(attackerBankAddress(
            org, config.targetBank, config.targetRow + stride + i));
    return decoys;
}

} // namespace

// ------------------------------------------------------------ ProbeAgent

ProbeAgent::ProbeAgent(Addr probe_addr, bool record_all)
    : addr_(probe_addr), recordAll_(record_all)
{
    // A full timeline holds one sample per read, up to ~55k per
    // simulated millisecond.  Reserving them up front skips a dozen
    // grow-and-copy steps whose freed buffers fragment the heap over
    // a long series of experiments.
    if (record_all)
        samples_.reserve(1 << 16);
}

ProbeAgent::ProbeAgent(const MemoryController &mem,
                       const AttackerConfig &config, bool record_all)
    : ProbeAgent(mem.mapper().compose(attackerBankAddress(
                     mem.dram().spec().org, config.targetBank,
                     config.targetRow)),
                 record_all)
{
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
    if (inFlight_)
        return;

    Request req;
    req.type = ReqType::Read;
    req.addr = addr_;
    req.onComplete = [this](const Request &done) {
        inFlight_ = false;
        ++completed_;
        const LatencySample sample{done.completed, done.latency()};
        if (sample.latency >= spikeThreshold())
            lastSpikeAt_ = sample.doneAt;
        if (recordAll_ || sample.latency >= spikeThreshold())
            samples_.push_back(sample);
    };
    if (mem.enqueue(std::move(req)))
        inFlight_ = true;
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

HammerAgent::HammerAgent(const AddressMapper &mapper,
                         const DramAddress &target,
                         std::vector<DramAddress> decoys,
                         std::uint32_t max_outstanding)
    : mapper_(mapper), maxOutstanding_(max_outstanding)
{
    targetAddr_ = mapper.compose(target);
    decoyAddrs_.reserve(decoys.size());
    for (const auto &decoy : decoys)
        decoyAddrs_.push_back(mapper.compose(decoy));
}

HammerAgent::HammerAgent(const MemoryController &mem,
                         const AttackerConfig &config)
    : HammerAgent(mem.mapper(),
                  attackerBankAddress(mem.dram().spec().org,
                                      config.targetBank,
                                      config.targetRow),
                  hammerDecoys(mem.dram().spec().org, config))
{
}

void
HammerAgent::startHammer(std::uint32_t target_acts)
{
    active_ = true;
    nextIsTarget_ = true;
    targetBudget_ = target_acts;
    targetIssued_ = 0;
    targetDone_ = 0;
}

void
HammerAgent::stop()
{
    active_ = false;
    targetBudget_ = 0;
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
HammerAgent::tick(MemoryController &mem, Cycle)
{
    if (!active_)
        return;

    while (outstanding_ < maxOutstanding_) {
        if (targetBudget_ == 0 && nextIsTarget_) {
            // Burst complete once in-flight reads drain.
            if (outstanding_ == 0)
                active_ = false;
            return;
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
        };
        if (!mem.enqueue(std::move(req))) {
            // Queue full: undo the sequencing step and retry later.
            nextIsTarget_ = is_target;
            if (!is_target)
                decoyIdx_ = (decoyIdx_ + decoyAddrs_.size() - 1) %
                            decoyAddrs_.size();
            return;
        }
        ++outstanding_;
        if (is_target) {
            --targetBudget_;
            ++targetIssued_;
        }
    }
}

// --------------------------------------------------------- FeintingAgent

FeintingAgent::FeintingAgent(MemoryController &mem,
                             std::uint32_t pool_size,
                             std::uint32_t target_row)
    : mem_(mem), targetRow_(target_row)
{
    for (std::uint32_t i = 0; i < pool_size; ++i)
        pool_.push_back(target_row + 1 + i);
    pool_.push_back(target_row);
}

FeintingAgent::FeintingAgent(MemoryController &mem,
                             const AttackerConfig &config)
    : FeintingAgent(mem,
                    config.poolSize == 0 ? deriveFeintingPool(mem)
                                         : config.poolSize,
                    config.targetRow)
{
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
    while (outstanding_ < 2) {
        Request req;
        req.addr = mem.mapper().compose(
            DramAddress{0, 0, 0, nextRow(), 0});
        req.onComplete = [this](const Request &) {
            --outstanding_;
        };
        if (!mem.enqueue(std::move(req)))
            return;
        ++outstanding_;
    }
}

} // namespace pracleak
