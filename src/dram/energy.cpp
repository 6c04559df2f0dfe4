#include "dram/energy.h"

#include <algorithm>

namespace pracleak {

EnergyCounts &
EnergyCounts::operator+=(const EnergyCounts &other)
{
    acts += other.acts;
    reads += other.reads;
    writes += other.writes;
    refreshes += other.refreshes;
    mitigatedRows += other.mitigatedRows;
    elapsed = std::max(elapsed, other.elapsed);
    return *this;
}

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &other)
{
    actPreNj += other.actPreNj;
    readNj += other.readNj;
    writeNj += other.writeNj;
    refreshNj += other.refreshNj;
    mitigationNj += other.mitigationNj;
    backgroundNj += other.backgroundNj;
    return *this;
}

EnergyBreakdown
computeEnergy(const EnergyCounts &counts, const EnergyParams &params)
{
    EnergyBreakdown out;
    out.actPreNj = params.actPreNj * counts.acts;
    out.readNj = params.readNj * counts.reads;
    out.writeNj = params.writeNj * counts.writes;
    out.refreshNj = params.refAbNj * counts.refreshes;
    out.mitigationNj = params.rowMitigationNj * counts.mitigatedRows;
    // W * s = J; convert to nJ.
    out.backgroundNj =
        params.backgroundW * (cyclesToNs(counts.elapsed) * 1e-9) * 1e9;
    return out;
}

} // namespace pracleak
