#include "attack/adversaries.h"

#include <algorithm>

#include "attack/agents.h"
#include "common/log.h"

namespace pracleak {

Addr
attackerAddress(const MemoryController &mem, std::uint32_t flat_bank,
                std::uint32_t row)
{
    const DramOrg &org = mem.dram().spec().org;
    DramAddress daddr{};
    daddr.rank = flat_bank / org.banksPerRank();
    const std::uint32_t in_rank = flat_bank % org.banksPerRank();
    daddr.bankGroup = in_rank / org.banksPerGroup;
    daddr.bank = in_rank % org.banksPerGroup;
    daddr.row = row;
    daddr.channel = mem.config().channelIndex;
    return mem.mapper().compose(daddr);
}

const AttackerField *
findAttackerField(const std::string &name)
{
    for (const AttackerField &field : kAttackerFields)
        if (name == field.name)
            return &field;
    return nullptr;
}

namespace {

/** Reads kept in flight by the adaptive attackers (bank-parallel). */
constexpr std::uint32_t kAdaptiveOutstanding = 8;

/**
 * Bank-parallel saturation depth: enough reads in flight to keep
 * dozens of banks busy at once without exhausting the controller's
 * 64-entry request queue.
 */
constexpr std::uint32_t kDeepOutstanding = 63;

// ----------------------------------------------------- graphene-thrash

/**
 * Space-Saving-table thrasher.  Two cooperating exploits:
 *
 *  1. Victim absorption in the target bank: a Feinting-style wave
 *     over a rotating decoy pool keeps decoy true counters level
 *     with the target's, so when Graphene finally services the bank
 *     the RFMpb's hottest-row victim selection often lands on a
 *     decoy; pruned (mitigated) decoys are replaced with fresh rows
 *     so the table keeps churning through Space-Saving evictions.
 *  2. FIFO clogging: `aggressors` noise banks each hammer an
 *     alternating row pair, generating Graphene triggers whose
 *     RFMpbs queue ahead of the target bank's in the channel-serial
 *     pending FIFO -- every queued noise mitigation delays the
 *     target bank's service while the target keeps climbing.
 *
 * Adaptation: the thrasher polls Mitigation::pendingMitigations()
 * and raises the noise:target issue ratio while the FIFO is
 * draining too fast to stay clogged.
 */
class GrapheneThrashAttacker final : public AttackerAgent
{
  public:
    GrapheneThrashAttacker(const AttackerConfig &config,
                           const MemoryController &mem)
        : AttackerAgent(config, kAdaptiveOutstanding)
    {
        const DramOrg &org = mem.dram().spec().org;
        const std::uint32_t banks = org.totalBanks();

        if (config_.aggressors == 0)
            config_.aggressors = 6;
        config_.aggressors =
            std::min(config_.aggressors, banks - 1);
        if (config_.poolSize == 0) {
            // Sized to evict the tracked-aggressor set: one rotating
            // decoy per table entry plus the target itself.
            const std::uint32_t table =
                mem.config().graphene.tableSize;
            config_.poolSize =
                table == 0 ? 64
                           : std::min<std::uint32_t>(table + 1, 512);
        }
        if (config_.burstSpacing == 0)
            config_.burstSpacing = 2;
        ratio_ = config_.burstSpacing;

        pool_.push_back(config_.targetRow);
        for (std::uint32_t j = 0; j < config_.poolSize; ++j)
            pool_.push_back(config_.targetRow + 1000 + j);
        nextFreshRow_ = config_.targetRow + 1000 + config_.poolSize;

        for (std::uint32_t i = 0; i < config_.aggressors; ++i)
            noiseBanks_.push_back((config_.targetBank + 1 + i) %
                                  banks);
    }

  private:
    std::optional<Addr>
    next(MemoryController &mem) override
    {
        const bool target_lane =
            noiseBanks_.empty() || slot_ % (1 + ratio_) == 0;
        ++slot_;

        Addr addr;
        if (target_lane) {
            if (cursor_ >= pool_.size())
                endWave(mem);
            addr = attackerAddress(mem, config_.targetBank,
                                   pool_[cursor_++]);
        } else {
            const std::uint32_t lane =
                noiseCursor_ % noiseBanks_.size();
            const std::uint32_t row =
                config_.targetRow + (noiseFlip_ ? 1 : 0);
            addr = attackerAddress(mem, noiseBanks_[lane], row);
            ++noiseCursor_;
            if (noiseCursor_ % noiseBanks_.size() == 0)
                noiseFlip_ = !noiseFlip_;
        }
        if (++sincePoll_ >= 256) {
            sincePoll_ = 0;
            adapt(mem);
        }
        return addr;
    }

    void
    endWave(MemoryController &mem)
    {
        cursor_ = 0;
        // Rotate out decoys whose counters were mitigated back to
        // zero: their table entries were serviced, so fresh rows
        // re-enter through Space-Saving eviction at low inherited
        // estimates while the survivors keep their true counts.
        for (std::uint32_t &row : pool_) {
            if (row == config_.targetRow)
                continue;
            if (mem.prac().counters().get(config_.targetBank, row) ==
                0)
                row = nextFreshRow_++;
        }
    }

    void
    adapt(MemoryController &mem)
    {
        if (noiseBanks_.empty())
            return;
        const std::size_t backlog =
            mem.mitigation().pendingMitigations();
        if (backlog < noiseBanks_.size() / 2)
            ratio_ = std::min<std::uint32_t>(ratio_ * 2, 16);
        else
            ratio_ = config_.burstSpacing;
    }

    std::vector<std::uint32_t> pool_;       //!< target-bank wave rows
    std::vector<std::uint32_t> noiseBanks_;
    std::uint32_t nextFreshRow_ = 0;
    std::uint32_t ratio_ = 2;
    std::uint64_t slot_ = 0;
    std::size_t cursor_ = 0;
    std::uint64_t noiseCursor_ = 0;
    bool noiseFlip_ = false;
    std::uint32_t sincePoll_ = 0;
};

// --------------------------------------------------------- para-retry

/**
 * Retry-until-escape hammer.  PARA resets an activated row's counter
 * with probability p per ACT, so any single row's expected maximum
 * is tightly bounded -- but the *best of K* independent candidates
 * is not.  The attacker races `aggressors` candidate rows spread
 * across banks (bank parallelism buys raw ACT throughput), polls
 * their PRAC counters every `burst_spacing` issues, and
 * re-concentrates its activation budget on the half that has
 * escaped the most resets; when the leader is finally reset it
 * widens back out and restarts the race.
 */
class ParaRetryAttacker final : public AttackerAgent
{
  public:
    ParaRetryAttacker(const AttackerConfig &config,
                      const MemoryController &mem)
        : AttackerAgent(config, kAdaptiveOutstanding)
    {
        const DramOrg &org = mem.dram().spec().org;
        if (config_.aggressors == 0)
            config_.aggressors = 8;
        config_.aggressors =
            std::min(config_.aggressors, org.totalBanks());
        if (config_.burstSpacing == 0)
            config_.burstSpacing = 64;

        for (std::uint32_t i = 0; i < config_.aggressors; ++i) {
            Candidate candidate;
            candidate.bank =
                (config_.targetBank + i) % org.totalBanks();
            candidate.row = config_.targetRow + i;
            candidates_.push_back(candidate);
            focus_.push_back(i);
        }
    }

  private:
    struct Candidate
    {
        std::uint32_t bank = 0;
        std::uint32_t row = 0;
    };

    std::optional<Addr>
    next(MemoryController &mem) override
    {
        const Candidate &candidate =
            candidates_[focus_[focusCursor_ % focus_.size()]];
        // Alternate the candidate row with a same-bank decoy so
        // every candidate visit costs one real ACT.
        const Addr addr = attackerAddress(
            mem, candidate.bank,
            flip_ ? candidate.row + 1000 : candidate.row);
        flip_ = !flip_;
        if (!flip_)
            ++focusCursor_;
        if (++sincePoll_ >= config_.burstSpacing) {
            sincePoll_ = 0;
            refocus(mem);
        }
        return addr;
    }

    void
    refocus(MemoryController &mem)
    {
        std::vector<std::uint32_t> counts(candidates_.size());
        std::uint32_t best = 0;
        for (std::size_t i = 0; i < candidates_.size(); ++i) {
            counts[i] = mem.prac().counters().get(
                candidates_[i].bank, candidates_[i].row);
            best = std::max(best, counts[i]);
        }
        if (focus_.size() == 1 && counts[focus_[0]] < lastBest_) {
            // The leader was reset: the bet is dead, restart the
            // race across every candidate.
            focus_.clear();
            for (std::uint32_t i = 0; i < candidates_.size(); ++i)
                focus_.push_back(i);
        } else if (focus_.size() > 1) {
            std::stable_sort(
                focus_.begin(), focus_.end(),
                [&counts](std::uint32_t a, std::uint32_t b) {
                    return counts[a] > counts[b];
                });
            focus_.resize((focus_.size() + 1) / 2);
        }
        lastBest_ = best;
        focusCursor_ = 0;
    }

    std::vector<Candidate> candidates_;
    std::vector<std::uint32_t> focus_;  //!< candidate indices raced
    std::size_t focusCursor_ = 0;
    bool flip_ = false;
    std::uint32_t sincePoll_ = 0;
    std::uint32_t lastBest_ = 0;
};

// -------------------------------------------------------- pb-parallel

/**
 * Bank-parallel RAAIMT saturator.  PB-RFM's triggers are per-bank
 * but its RFMpb service is channel-serial: total trigger rate is
 * acts/RAAIMT regardless of spread, while per-bank ACT throughput
 * is tRC-limited -- so spreading lanes across banks multiplies the
 * activation rate until triggers outrun the drain and the pending
 * FIFO backlog grows without bound.  Every queued mitigation delays
 * the hottest rows' resets, letting lane counters overshoot the
 * RAAIMT budget.  Adaptation: while pendingMitigations() reads
 * empty the drain is keeping up, so the attacker doubles its active
 * lane count (up to `aggressors`).
 */
class PbParallelAttacker final : public AttackerAgent
{
  public:
    PbParallelAttacker(const AttackerConfig &config,
                       const MemoryController &mem)
        : AttackerAgent(config, 0)
    {
        const DramOrg &org = mem.dram().spec().org;
        if (config_.aggressors == 0)
            config_.aggressors =
                std::min<std::uint32_t>(16, org.totalBanks());
        config_.aggressors = std::max<std::uint32_t>(
            1, std::min(config_.aggressors, org.totalBanks()));
        if (config_.poolSize == 0)
            config_.poolSize = 2;
        config_.poolSize = std::max<std::uint32_t>(2, config_.poolSize);
        if (config_.burstSpacing == 0)
            config_.burstSpacing = 128;

        // Stride lanes across ranks (33 is coprime with the 128-bank
        // space): per-rank tFAW would cap a single rank well below
        // the ACT rate needed to outrun the serial RFMpb drain.
        for (std::uint32_t i = 0; i < config_.aggressors; ++i)
            lanes_.push_back(
                i == 0 ? config_.targetBank
                       : (config_.targetBank + i * (org.banksPerRank() + 1)) %
                             org.totalBanks());
        setActive(std::min<std::uint32_t>(
            4, static_cast<std::uint32_t>(lanes_.size())));
    }

  private:
    /**
     * Drive @p lanes lanes.  Deep pipelining only while noise lanes
     * are worth driving: FIFO saturation needs hundreds of MACT/s
     * across banks, but single-bank absorption must stay shallow so
     * stale in-flight target reads cannot land right after a cover
     * reset.
     */
    void
    setActive(std::uint32_t lanes)
    {
        active_ = lanes;
        setDepth(active_ > 1 ? kDeepOutstanding : 2);
    }

    std::optional<Addr>
    next(MemoryController &mem) override
    {
        std::uint32_t bank;
        std::uint32_t row;
        // One slot in ratio_ hammers the target bank (alternating
        // rows so every visit row-conflicts, tRC-limited anyway);
        // the rest sweep the noise lanes, whose only job is to trip
        // their banks' RAAIMT budgets faster than the channel-serial
        // RFMpb drain can retire them.  Once the FIFO backlog grows,
        // the target bank's own RFMpb -- and with it the reset of
        // the target row's counter -- queues ever further behind.
        const bool target_slot =
            active_ <= 1 || slot_ % ratio_ == 0;
        if (target_slot) {
            bank = lanes_[0];
            row = absorptionRow();
        } else {
            const auto noise = static_cast<std::uint32_t>(
                1 + noiseSlot_ % (active_ - 1));
            bank = lanes_[noise];
            // Rotate each noise lane over poolSize rows so no noise
            // row outgrows the target row between its bank's resets.
            const auto rotation = static_cast<std::uint32_t>(
                noiseSlot_ / (active_ - 1) % config_.poolSize);
            row = config_.targetRow + 1000 +
                  noise * config_.poolSize + rotation;
        }
        ++slot_;
        if (target_slot)
            ++targetSlot_;
        else
            ++noiseSlot_;
        if (++sincePoll_ >= config_.burstSpacing) {
            sincePoll_ = 0;
            adapt(mem);
        }
        return attackerAddress(mem, bank, row);
    }

    /**
     * Absorption hammer on the target bank: alternate the target
     * with a rotating pool of same-bank decoys.  The decoys' standing
     * counts absorb a share of the tracked-victim resets (the reset
     * lands on whichever row the single-entry queue saw hottest), so
     * the target overshoots the RAAIMT budget before its own reset
     * lands.  poolSize tunes the target:decoy count equilibrium --
     * conservation caps any row near RAAIMT plus this overshoot, so
     * the knob walks the overshoot space rather than escaping it.
     */
    std::uint32_t
    absorptionRow()
    {
        if (targetSlot_ % 2 == 0)
            return config_.targetRow;
        const auto pick = static_cast<std::uint32_t>(
            (targetSlot_ / 2) % config_.poolSize);
        return config_.targetRow + 1 + pick;
    }

    void
    adapt(MemoryController &mem)
    {
        // Expectation-driven: a growing backlog means the noise
        // lanes are outrunning the serial drain, so widen that side;
        // a drained FIFO means they are wasted bandwidth, so fall
        // back toward the absorption hammer on the target bank.
        const std::size_t backlog =
            mem.mitigation().pendingMitigations();
        if (backlog > lastBacklog_) {
            setActive(std::min<std::uint32_t>(
                active_ * 2,
                static_cast<std::uint32_t>(lanes_.size())));
            ratio_ = std::min<std::uint32_t>(ratio_ * 2, 64);
        } else {
            setActive(std::max<std::uint32_t>(1, active_ / 2));
            ratio_ = std::max<std::uint32_t>(2, ratio_ / 2);
        }
        lastBacklog_ = backlog;
    }

    std::vector<std::uint32_t> lanes_;  //!< flat banks hammered
    std::uint32_t active_ = 1;          //!< lanes currently driven
    std::uint32_t ratio_ = 2;           //!< slots per target visit
    std::size_t lastBacklog_ = 0;
    std::uint64_t targetSlot_ = 0;
    std::uint64_t noiseSlot_ = 0;
    std::uint64_t slot_ = 0;
    std::uint32_t sincePoll_ = 0;
};

} // namespace

// ------------------------------------------------------------ registry

const std::vector<AttackerInfo> &
attackerCatalog()
{
    static const std::vector<AttackerInfo> catalog = {
        {"probe",
         "latency spy: one read in flight, logs RFM-shaped spikes",
         ""},
        {"hammer",
         "oblivious direct hammer: target + same-bank decoys, "
         "restarted bursts (security-matrix baseline)",
         ""},
        {"feinting",
         "mitigation-bandwidth-wasting wave over a pruned decoy "
         "pool (TB-Window worst case)",
         ""},
        {"graphene-thrash",
         "rotating decoy pool evicts the tracked set while noise "
         "banks clog the serial RFMpb FIFO",
         "graphene"},
        {"para-retry",
         "races candidate rows across banks, re-concentrates on "
         "the ones PARA has not reset",
         "para"},
        {"pb-parallel",
         "bank-parallel hammer outrunning the channel-serial RFMpb "
         "drain of per-bank RAAIMT budgets",
         "pb-rfm"},
    };
    return catalog;
}

const AttackerInfo *
findAttacker(const std::string &name)
{
    for (const AttackerInfo &info : attackerCatalog())
        if (name == info.name)
            return &info;
    return nullptr;
}

std::vector<std::string>
attackerNames()
{
    std::vector<std::string> names;
    for (const AttackerInfo &info : attackerCatalog())
        names.emplace_back(info.name);
    return names;
}

std::vector<AttackerKnob>
attackerKnobSpace(const std::string &name)
{
    // Bounds are deliberately generous: the search driver samples
    // uniformly inside them and the constructors clamp to the
    // organization actually being attacked.
    if (name == "feinting")
        return {{"pool_size", 64, 2048}};
    if (name == "graphene-thrash")
        return {{"aggressors", 1, 24},
                {"pool_size", 2, 96},
                {"burst_spacing", 1, 8},
                {"phase", 0, 65536}};
    if (name == "para-retry")
        return {{"aggressors", 2, 32},
                {"burst_spacing", 16, 256},
                {"phase", 0, 65536}};
    if (name == "pb-parallel")
        return {{"aggressors", 2, 32},
                {"pool_size", 2, 8},
                {"burst_spacing", 32, 512},
                {"phase", 0, 65536}};
    return {};
}

std::string
attackerForDefense(const std::string &defense)
{
    if (defense == "graphene")
        return "graphene-thrash";
    if (defense == "para")
        return "para-retry";
    if (defense == "pb-rfm")
        return "pb-parallel";
    return "feinting";
}

std::unique_ptr<AttackerAgent>
attackerByName(const std::string &name, const AttackerConfig &config,
               const MemoryController &mem)
{
    AttackerConfig effective = config;
    effective.attacker = name;
    if (name == "probe")
        return std::make_unique<ProbeAgent>(mem, effective);
    if (name == "hammer") {
        // The security matrix's direct hammer: bursts just past the
        // ABO contract, back to back.
        auto hammer = std::make_unique<HammerAgent>(mem, effective);
        hammer->repeat(pastContractBurst(mem.dram().spec().prac));
        return hammer;
    }
    if (name == "feinting")
        return std::make_unique<FeintingAgent>(mem, effective);
    if (name == "graphene-thrash")
        return std::make_unique<GrapheneThrashAttacker>(effective,
                                                        mem);
    if (name == "para-retry")
        return std::make_unique<ParaRetryAttacker>(effective, mem);
    if (name == "pb-parallel")
        return std::make_unique<PbParallelAttacker>(effective, mem);
    fatal("unknown attacker '" + name + "'");
}

} // namespace pracleak
