/**
 * @file
 * String-keyed registry of RowHammer defenses.
 *
 * Every defense registers a stable key, a one-line description, and
 * whether it keeps the DRAM's Alert Back-Off substrate armed.  The
 * key is the only defense selector: the memory controller resolves
 * ControllerConfig::mitigation here, every layer that picks a defense
 * derives its parameters through configureDefense(), and scenario
 * grids sweep the same keys via `pracbench --set mitigation=...`.
 */

#ifndef PRACLEAK_MITIGATION_REGISTRY_H
#define PRACLEAK_MITIGATION_REGISTRY_H

#include <memory>
#include <string>
#include <vector>

#include "mitigation/mitigation.h"

namespace pracleak {

/** Catalog entry for one registered defense. */
struct MitigationInfo
{
    const char *name;
    const char *description;

    /** Whether the DRAM Alert protocol stays armed under this defense. */
    bool usesAbo;
};

/** All registered defenses, in bake-off presentation order. */
const std::vector<MitigationInfo> &mitigationCatalog();

/** Catalog lookup; nullptr when unknown. */
const MitigationInfo *findMitigation(const std::string &name);

/** Registered defense keys, in catalog order. */
std::vector<std::string> mitigationNames();

/**
 * Construct the defense named @p name.  Fatals on unknown keys and on
 * invalid per-defense configuration (e.g. a zero BAT for
 * "abo+acb-rfm"), matching the seed controller's checks.
 */
std::unique_ptr<Mitigation> makeMitigation(const std::string &name,
                                           const MitigationContext &ctx);

/**
 * Populate @p config for defense @p name with parameters derived from
 * @p spec (NBO, counter-reset policy) through the Feinting analysis:
 * the ACB BAT, the TPRAC TB-Window, the PB-RFM RAAIMT, the Graphene
 * threshold, and the PARA refresh probability.  Explicitly non-zero
 * values already present in @p config are kept.
 *
 * @param tref_co_design Allow TREF rounds to substitute TB-RFMs
 *                       (only meaningful for "tprac").
 */
void configureDefense(ControllerConfig &config, const std::string &name,
                      const DramSpec &spec, bool tref_co_design = false);

} // namespace pracleak

#endif // PRACLEAK_MITIGATION_REGISTRY_H
