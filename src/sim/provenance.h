/**
 * @file
 * Result provenance: every JSON file the sweep runner emits is
 * stamped with the building git revision and a hash of the effective
 * parameter grid, and replay-derived rows carry the source trace's
 * content hash -- so a stray file in results/ can always be traced
 * back to the code, the sweep, and (when replaying) the exact
 * recorded stream that produced it.
 */

#ifndef PRACLEAK_SIM_PROVENANCE_H
#define PRACLEAK_SIM_PROVENANCE_H

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/json.h"

namespace pracleak::sim {

/**
 * Git revision baked in at build time (PRACLEAK_GIT_REV, from
 * `git describe --always --dirty`); "unknown" when building outside
 * a git checkout.  The `-dirty` suffix flags results produced from
 * an uncommitted tree.
 */
const char *gitRevision();

/** FNV-1a 64-bit over @p bytes (stable, dependency-free). */
std::uint64_t fnv1a64(std::string_view bytes);

/** @p hash as a fixed-width lowercase hex string. */
std::string hashHex(std::uint64_t hash);

/**
 * Hash of a file's contents ("" when unreadable -- provenance must
 * never fail an emission).
 */
std::string fileHashHex(const std::string &path);

/**
 * Hash of an effective parameter grid (FNV-1a over its compact
 * dump), as stamped into provenance objects and checkpoint-journal
 * headers: the identity a resume is validated against.
 */
std::string gridHashHex(const JsonValue &grid);

/** Current UTC wall-clock time as "YYYY-MM-DDTHH:MM:SSZ". */
std::string utcTimestamp();

/**
 * The provenance object stamped into SweepResult::toJson():
 * {"git_rev", "grid_fnv1a64", "generated_at"} computed over the
 * effective grid.  generated_at is the only non-deterministic field
 * an emission carries besides wall_seconds; equivalence checks
 * (golden resume tests, the scripts/resume_smoke.sh diff) strip exactly
 * those two.
 */
JsonValue provenanceObject(const JsonValue &grid);

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_PROVENANCE_H
