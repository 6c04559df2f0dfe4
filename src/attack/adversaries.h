/**
 * @file
 * String-keyed registry of attack agents, mirroring the defense
 * registry in mitigation/registry.h, plus the defense-aware
 * adversaries the attacker-search driver (sim/search.h) tunes.
 *
 * The paper's security matrix is argued with defense-oblivious
 * stressors; this registry upgrades it to best-known-attack claims.
 * Each registered attacker is an AttackerAgent -- a MemAgent
 * (attack/harness.h) constructed from one AttackerConfig aggregate --
 * so scenario grids can sweep `--set attacker=...` exactly like
 * `--set mitigation=...`, with `attacker.<knob>=` sub-keys pinning
 * individual knobs.  The registry returns the agents themselves.
 *
 * Registered attackers (see src/attack/DESIGN.md for the taxonomy):
 *  - "probe"           latency spy (ProbeAgent)
 *  - "hammer"          oblivious direct hammer (a repeating
 *                      HammerAgent), the security-matrix baseline
 *                      every searched adversary must beat
 *  - "feinting"        mitigation-bandwidth-wasting wave attacker
 *                      (FeintingAgent)
 *  - "graphene-thrash" Space-Saving-table thrasher: decoy rotation
 *                      in the target bank plus cross-bank trigger
 *                      noise that clogs the serial RFMpb FIFO
 *  - "para-retry"      retry-until-escape hammer: races candidate
 *                      rows and re-concentrates on the ones PARA's
 *                      probabilistic refresh has not yet reset
 *  - "pb-parallel"     bank-parallel hammer saturating per-bank
 *                      RAAIMT budgets faster than the channel-serial
 *                      RFMpb drain can service them
 */

#ifndef PRACLEAK_ATTACK_ADVERSARIES_H
#define PRACLEAK_ATTACK_ADVERSARIES_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/harness.h"
#include "common/types.h"

namespace pracleak {

/**
 * Construction-time knobs for every registered attacker.  A zero
 * value means "derive a sensible default from the controller's spec
 * and defense configuration"; the per-attacker meaning of each knob
 * is documented in attackerCatalog() and src/attack/DESIGN.md.
 * kAttackerFields names the knobs; the search driver samples those
 * listed in attackerKnobSpace().  Agents are placed only through
 * this aggregate (targetBank/targetRow on the controller's channel).
 */
struct AttackerConfig
{
    /** Registry key ("hammer", "para-retry", ...). */
    std::string attacker;

    /** Parallel aggressor streams (rows, candidates, or noise banks). */
    std::uint32_t aggressors = 0;

    /** Decoy/rotation pool size (rows cycled around the target). */
    std::uint32_t poolSize = 0;

    /** Issue pacing: adaptation poll interval or noise:target ratio. */
    std::uint32_t burstSpacing = 0;

    /** Cycles to idle before the first request (tREFW alignment). */
    std::uint32_t phase = 0;

    /** Flat bank of the primary target row. */
    std::uint32_t targetBank = 0;

    /** Row driven toward NBO (the attack metric tracks its counter). */
    std::uint32_t targetRow = 5000;

    /** Base RNG seed for any randomized decisions (derived streams). */
    std::uint64_t seed = 0xA77AC0DEULL;
};

/** One AttackerConfig knob under its external name. */
struct AttackerField
{
    const char *name;   //!< CLI sub-key suffix and JSON column
    std::uint32_t AttackerConfig::*field;

    /**
     * Searched, and settable as `attacker.<name>`; the other knobs
     * only place the attack.
     */
    bool tunable;
};

/**
 * The one list of AttackerConfig's knobs (all but the registry key
 * and the RNG seed), in output order.  Every knob list walks it: the
 * search driver's sampling, candidate JSON and result rows, the
 * `pracbench search --set attacker.<knob>` keys, and the defense
 * scenarios' `attacker.*` constants and `best_*` columns.
 */
inline constexpr AttackerField kAttackerFields[] = {
    {"aggressors", &AttackerConfig::aggressors, true},
    {"pool_size", &AttackerConfig::poolSize, true},
    {"burst_spacing", &AttackerConfig::burstSpacing, true},
    {"phase", &AttackerConfig::phase, true},
    {"target_bank", &AttackerConfig::targetBank, false},
    {"target_row", &AttackerConfig::targetRow, false},
};

/** The kAttackerFields entry named @p name; nullptr when unknown. */
const AttackerField *findAttackerField(const std::string &name);

/**
 * An attack actor placed by an AttackerConfig, from its phase on;
 * attackerByName() constructs one by registry key.
 */
class AttackerAgent : public MemAgent
{
  public:
    /** Registry key, e.g. "hammer" or "para-retry". */
    const std::string &name() const { return config_.attacker; }

    /** Effective knobs after zero-value derivation. */
    const AttackerConfig &config() const { return config_; }

  protected:
    /** Keep up to @p depth reads in flight. */
    AttackerAgent(AttackerConfig config, std::uint32_t depth)
        : MemAgent(depth, config.phase), config_(std::move(config))
    {
    }

    AttackerConfig config_;
};

/** Catalog entry for one registered attacker. */
struct AttackerInfo
{
    const char *name;
    const char *description;

    /** Defense this attacker is tuned against ("" = oblivious). */
    const char *targetDefense;
};

/** Inclusive sampling range of one searchable knob. */
struct AttackerKnob
{
    const char *knob;       //!< a kAttackerFields name
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
};

/** All registered attackers, in presentation order. */
const std::vector<AttackerInfo> &attackerCatalog();

/** Catalog lookup; nullptr when unknown. */
const AttackerInfo *findAttacker(const std::string &name);

/** Registered attacker keys, in catalog order. */
std::vector<std::string> attackerNames();

/**
 * The search-space bounds of @p name's knobs (empty for attackers
 * with nothing to tune, e.g. the oblivious "hammer" baseline).
 */
std::vector<AttackerKnob> attackerKnobSpace(const std::string &name);

/**
 * The defense-aware attacker matched to defense @p defense
 * ("graphene" -> "graphene-thrash", ...); "feinting" for defenses
 * without a specialised adversary.
 */
std::string attackerForDefense(const std::string &defense);

/**
 * Construct the attacker named @p name against @p mem (whose spec
 * and defense configuration drive zero-knob derivation).  Fatals on
 * unknown keys, like makeMitigation.  The returned agent is not yet
 * registered with any harness.
 */
std::unique_ptr<AttackerAgent>
attackerByName(const std::string &name, const AttackerConfig &config,
               const MemoryController &mem);

/**
 * Inverse of AddressMapper::flatBank: the address of @p row in
 * @p flat_bank on @p mem's own channel.  The probe, hammer and
 * Feinting agents and every registry attacker place their rows
 * through it, so knobs stay organization-independent and an agent
 * pinned to channel c emits addresses that channelOf() maps to c.
 */
Addr attackerAddress(const MemoryController &mem,
                     std::uint32_t flat_bank, std::uint32_t row);

} // namespace pracleak

#endif // PRACLEAK_ATTACK_ADVERSARIES_H
