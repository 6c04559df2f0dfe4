/**
 * @file
 * Small helpers shared by the scenario translation units.
 */

#ifndef PRACLEAK_SIM_SCENARIO_UTIL_H
#define PRACLEAK_SIM_SCENARIO_UTIL_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mem/channel_stats.h"
#include "sim/json.h"

namespace pracleak::sim {

/** Lift a list of names into grid-axis values. */
inline std::vector<JsonValue>
toValues(const std::vector<std::string> &names)
{
    std::vector<JsonValue> values;
    values.reserve(names.size());
    for (const auto &name : names)
        values.push_back(JsonValue(name));
    return values;
}

/**
 * The seven-way defense bake-off, in catalog order.  "obfuscation" is
 * registered but not part of it.
 */
inline const std::vector<std::string> &
bakeoffDefenses()
{
    static const std::vector<std::string> defenses = {
        "none", "abo-only", "abo+acb-rfm", "tprac",
        "para", "graphene", "pb-rfm"};
    return defenses;
}

/** Deterministic random bit message for covert-channel payloads. */
inline std::vector<bool>
randomBits(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<bool> bits(n);
    for (std::size_t i = 0; i < n; ++i)
        bits[i] = rng.chance(0.5);
    return bits;
}

/**
 * Write the RFM count of each of @p reasons in @p stats as its
 * `<reason>_rfms` column, in the order given.
 */
inline void
setRfmColumns(JsonValue &row, const ChannelStats &stats,
              std::initializer_list<RfmReason> reasons)
{
    for (const RfmReason reason : reasons)
        row.set(rfmColumn(reason), stats.rfm(reason));
}

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_SCENARIO_UTIL_H
