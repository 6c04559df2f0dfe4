/**
 * @file
 * Automated attacker search: successive halving over the knob space
 * of a defense-aware adversary (attack/adversaries.h), driven
 * through the checkpointed scenario runner so a search inherits the
 * sweep runner's guarantees -- byte-identical output at any `--jobs`
 * width and across a kill/`--resume` cycle.
 *
 * The candidate set always contains the defense-oblivious "hammer"
 * baseline as candidate 0, and candidate 0 is never eliminated: the
 * final round therefore evaluates the oblivious stressor at the full
 * window alongside the surviving tuned candidates, so the reported
 * best-known attack is >= the oblivious attack by construction --
 * the property defense_matrix_adaptive's table is built on.
 *
 * Exposed through `pracbench search SCENARIO --target-defense D
 * --budget N` and consumed inline by the defense_matrix_adaptive
 * scenario.
 */

#ifndef PRACLEAK_SIM_SEARCH_H
#define PRACLEAK_SIM_SEARCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/adversaries.h"
#include "mem/channel_stats.h"
#include "sim/json.h"
#include "sim/scenario.h"

namespace pracleak::sim {

/** One attacker-knob tuning run against a single defense. */
struct SearchOptions
{
    /** Defense under attack (mitigation-registry key). */
    std::string targetDefense;

    /**
     * Attacker whose knobs are walked; "" picks the defense-matched
     * adversary via attackerForDefense().
     */
    std::string attacker;

    /**
     * Base knob values.  Non-zero knobs are pinned (excluded from
     * sampling) -- the CLI's `attacker.<knob>=` sub-keys land here.
     */
    AttackerConfig base;

    /** Candidate configurations sampled (including the baseline). */
    std::uint32_t budget = 8;

    /** Successive-halving rounds; the last runs the full window. */
    std::uint32_t rounds = 2;

    /** Candidate-sampling seed (deriveRngStream per candidate id). */
    std::uint64_t seed = 0x5EA2C4ULL;

    /** Evaluation universe (the security matrix's scaled world). */
    std::string specName = "ddr5-8000b";
    std::uint32_t nbo = 512;
    double windowMs = 4.0;

    /**
     * Inner-sweep width, as RunOptions::jobs (rows stay in grid order
     * at any width).
     */
    unsigned jobs = 1;

    /** Journal directory for kill/resume; "" = in-memory only. */
    std::string checkpointDir;
    bool resume = false;

    /**
     * Journal namespace, distinguishing searches sharing a
     * checkpoint directory (round journals are named
     * "<tag>.<defense>.r<k>.jsonl").
     */
    std::string journalTag = "search";
};

/** One evaluated candidate in one round. */
struct SearchCandidate
{
    std::uint32_t id = 0;
    AttackerConfig config;
    std::uint32_t maxCounter = 0;
    bool secure = true;
};

/** One successive-halving round. */
struct SearchRound
{
    std::uint32_t round = 0;
    double windowMs = 0.0;
    std::vector<SearchCandidate> candidates; //!< id order
};

/** Full search outcome. */
struct SearchResult
{
    std::string targetDefense;
    std::string attacker;
    std::uint64_t seed = 0;
    std::uint32_t budget = 0;
    std::uint32_t contract = 0;     //!< NBO + ABOACT allowance
    std::vector<SearchRound> rounds;
    SearchCandidate best;           //!< final round, highest metric
    SearchCandidate oblivious;      //!< candidate 0 at full window

    /**
     * Deterministic JSON: no wall-clock or provenance timestamps, so
     * two runs of the same search are byte-identical regardless of
     * jobs width or interruption history.
     */
    JsonValue toJson() const;
};

/**
 * Write @p config's tunable knobs (with @p placement, its placement
 * knobs too) to @p row as "<prefix><name>" columns, in kAttackerFields
 * order.
 */
void setAttackerKnobs(JsonValue &row, const AttackerConfig &config,
                      const std::string &prefix = "",
                      bool placement = false);

/**
 * One attack in the defense_matrix_security universe: the attacker
 * @p config names, against @p defense at NBO @p nbo, run for
 * @p window_ms on a scaled 2 ms tREFW so a complete worst-case attack
 * fits a bench budget.  The search and defense_matrix_security each
 * build their own row from it.
 */
struct ScaledAttack
{
    std::unique_ptr<AttackHarness> harness;
    std::unique_ptr<AttackerAgent> attacker;
    ChannelStats stats;     //!< the channel's counters at the end

    const MemoryController &mem() const { return harness->mem(); }

    /**
     * Append the verdict columns: max_counter, the NBO + ABOACT
     * contract, secure (max_counter within the contract), alerts.
     */
    void setVerdict(ResultRow &row) const;
};

ScaledAttack runScaledAttack(const std::string &defense,
                             const AttackerConfig &config,
                             const std::string &spec_name,
                             std::uint32_t nbo, double window_ms);

/**
 * Run the search.  Fully deterministic from SearchOptions: candidate
 * knobs are sampled from counter-derived RNG streams, rounds execute
 * through runScenario (checkpointed when checkpointDir is set), and
 * survivors are ranked by (max_counter desc, id asc).
 */
SearchResult runAttackerSearch(const SearchOptions &options);

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_SEARCH_H
