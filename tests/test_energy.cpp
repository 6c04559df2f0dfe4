/**
 * @file
 * Unit tests for the DRAM energy model (Table 5 substrate).
 */

#include <gtest/gtest.h>

#include "dram/energy.h"

namespace pracleak {
namespace {

TEST(Energy, ZeroCountsZeroOps)
{
    EnergyCounts counts;
    const EnergyBreakdown e = computeEnergy(counts);
    EXPECT_DOUBLE_EQ(e.totalNj(), 0.0);
}

TEST(Energy, PerOpScaling)
{
    EnergyParams params;
    EnergyCounts counts;
    counts.acts = 10;
    counts.reads = 20;
    counts.writes = 5;
    counts.refreshes = 2;
    counts.mitigatedRows = 3;

    const EnergyBreakdown e = computeEnergy(counts, params);
    EXPECT_DOUBLE_EQ(e.actPreNj, 10 * params.actPreNj);
    EXPECT_DOUBLE_EQ(e.readNj, 20 * params.readNj);
    EXPECT_DOUBLE_EQ(e.writeNj, 5 * params.writeNj);
    EXPECT_DOUBLE_EQ(e.refreshNj, 2 * params.refAbNj);
    EXPECT_DOUBLE_EQ(e.mitigationNj, 3 * params.rowMitigationNj);
}

TEST(Energy, BackgroundScalesWithTime)
{
    EnergyParams params;
    params.backgroundW = 0.5;
    EnergyCounts counts;
    counts.elapsed = nsToCycles(1000.0); // 1 us
    const EnergyBreakdown e = computeEnergy(counts, params);
    // 0.5 W for 1 us = 0.5 uJ = 500 nJ.
    EXPECT_NEAR(e.backgroundNj, 500.0, 1.0);
}

TEST(Energy, TotalIsSumOfParts)
{
    EnergyCounts counts;
    counts.acts = 1;
    counts.reads = 1;
    counts.writes = 1;
    counts.refreshes = 1;
    counts.mitigatedRows = 1;
    counts.elapsed = 4000;
    const EnergyBreakdown e = computeEnergy(counts);
    EXPECT_DOUBLE_EQ(e.totalNj(),
                     e.actPreNj + e.readNj + e.writeNj + e.refreshNj +
                         e.mitigationNj + e.backgroundNj);
}

} // namespace
} // namespace pracleak
