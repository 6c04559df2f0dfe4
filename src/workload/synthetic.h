/**
 * @file
 * Synthetic workload generators.
 *
 * Substitution for the paper's SPEC2006/SPEC2017/CloudSuite traces
 * (unavailable offline): the performance results depend on workloads
 * only through memory intensity and row-buffer locality -- the paper
 * itself categorizes workloads purely by row-buffer misses per
 * kilo-instruction (RBMPKI).  These generators expose exactly those
 * knobs, so the High/Medium/Low structure of the evaluation carries
 * over.
 */

#ifndef PRACLEAK_WORKLOAD_SYNTHETIC_H
#define PRACLEAK_WORKLOAD_SYNTHETIC_H

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/types.h"
#include "cpu/trace_core.h"

namespace pracleak {

/** Knobs of one synthetic program. */
struct WorkloadParams
{
    std::string name = "synthetic";

    /** Touched cache lines; footprint = this * 64 B. */
    std::uint64_t footprintLines = 1ULL << 20;

    /** Mean non-memory instructions between memory instructions. */
    double nonMemPerMem = 9.0;

    /** Fraction of memory instructions that are stores. */
    double writeFraction = 0.2;

    /** Probability the next access continues sequentially. */
    double seqProb = 0.5;

    /** Probability a load is serializing (pointer-chase style). */
    double dependentProb = 0.0;

    std::uint64_t seed = 1;
};

/** WorkloadSource implementing the parameterized behaviour. */
class SyntheticWorkload : public WorkloadSource
{
  public:
    /**
     * @param params Behaviour knobs.
     * @param base   Base physical address of this program's memory
     *               (gives each core a disjoint region).
     */
    SyntheticWorkload(const WorkloadParams &params, Addr base);

    TraceOp next() override;
    const std::string &name() const override { return params_.name; }

  private:
    WorkloadParams params_;
    Addr base_;
    Rng rng_;
    std::uint64_t cursor_ = 0; //!< current line offset in footprint
};

/**
 * Construct a workload for @p core_id with a disjoint 32 GB address
 * region and a per-core seed derived from params.seed.
 */
std::unique_ptr<WorkloadSource>
makeWorkload(const WorkloadParams &params, std::uint32_t core_id);

/**
 * Serialized pointer-chase parameters: every load is dependent and
 * random within @p footprint_lines, with no stores.  Cache-resident
 * footprints give a low-RBMPKI workload whose stalls come from cache
 * latency -- the event clock's jump stress case of
 * tests/test_lockstep.cpp.
 */
WorkloadParams pointerChaseParams(std::uint64_t footprint_lines);

} // namespace pracleak

#endif // PRACLEAK_WORKLOAD_SYNTHETIC_H
