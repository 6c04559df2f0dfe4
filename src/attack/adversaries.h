/**
 * @file
 * String-keyed registry of attack agents, mirroring the defense
 * registry in mitigation/registry.h, plus the defense-aware
 * adversaries the attacker-search driver (sim/search.h) tunes.
 *
 * The paper's security matrix is argued with defense-oblivious
 * stressors; this registry upgrades it to best-known-attack claims.
 * Each registered attacker implements the MemAgent tick contract and
 * is constructed from one AttackerConfig aggregate, so scenario
 * grids can sweep `--set attacker=...` exactly like `--set
 * mitigation=...`, with `attacker.<knob>=` sub-keys pinning
 * individual knobs.
 *
 * Registered attackers (see src/attack/DESIGN.md for the taxonomy):
 *  - "probe"           latency spy (ProbeAgent behind the registry)
 *  - "hammer"          oblivious direct hammer, the security-matrix
 *                      baseline every searched adversary must beat
 *  - "feinting"        mitigation-bandwidth-wasting wave attacker
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
#include <type_traits>
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
 * The search driver walks exactly the knobs listed in
 * attackerKnobSpace().
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

namespace detail {

/** Implicitly convertible to any field type: probes aggregate arity. */
struct AnyAttackerField
{
    template <class T> operator T() const;
};

template <std::size_t> using AttackerFieldProbe = AnyAttackerField;

template <class T, class... Args>
auto attackerBraceTest(int)
    -> decltype(T{std::declval<Args>()...}, std::true_type{});
template <class, class...>
auto attackerBraceTest(...) -> std::false_type;

template <class T, std::size_t... I>
constexpr bool
attackerAcceptsFieldsImpl(std::index_sequence<I...>)
{
    return decltype(attackerBraceTest<T, AttackerFieldProbe<I>...>(
        0))::value;
}

/** Whether aggregate @p T brace-initializes from exactly N values. */
template <class T, std::size_t N>
inline constexpr bool attackerAcceptsFields =
    attackerAcceptsFieldsImpl<T>(std::make_index_sequence<N>{});

} // namespace detail

/**
 * Field-count tripwire.  AttackerConfig is consumed positionally in
 * places the compiler cannot audit: attackerConfigToJson()/knob
 * export in adversaries.cpp, the `attacker.<knob>` CLI sub-keys, and
 * the search driver's candidate sampling must each enumerate every
 * knob or a new field silently never gets swept.  Update the count
 * only after auditing those sites.
 */
inline constexpr std::size_t kAttackerConfigFieldCount = 8;

static_assert(std::is_aggregate_v<AttackerConfig>,
              "AttackerConfig must stay an aggregate: scenarios and "
              "the search driver rely on designated initializers, "
              "and the field-count tripwire probes "
              "brace-initialization");
static_assert(
    detail::attackerAcceptsFields<AttackerConfig,
                                  kAttackerConfigFieldCount> &&
        !detail::attackerAcceptsFields<AttackerConfig,
                                       kAttackerConfigFieldCount + 1>,
    "AttackerConfig gained or lost a field: audit the knob export, "
    "the attacker.<knob> CLI sub-keys, and the search driver's "
    "candidate sampler (sim/search.cpp), then update "
    "kAttackerConfigFieldCount");

/** A registry-constructed attack actor. */
class AttackerAgent : public MemAgent
{
  public:
    explicit AttackerAgent(AttackerConfig config)
        : config_(std::move(config))
    {
    }

    /** Registry key, e.g. "hammer" or "para-retry". */
    virtual const char *name() const = 0;

    /** Effective knobs after zero-value derivation. */
    const AttackerConfig &config() const { return config_; }

  protected:
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
    const char *knob;       //!< "aggressors", "pool_size", ...
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
               MemoryController &mem);

/**
 * Inverse of AddressMapper::flatBank: the DramAddress of @p row in
 * @p flat_bank.  Attackers compose lane addresses from flat banks so
 * knobs stay organization-independent.
 */
DramAddress attackerBankAddress(const DramOrg &org,
                                std::uint32_t flat_bank,
                                std::uint32_t row);

} // namespace pracleak

#endif // PRACLEAK_ATTACK_ADVERSARIES_H
