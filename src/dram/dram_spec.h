/**
 * @file
 * DDR5 organization, timing, and PRAC parameters.
 *
 * Values follow Table 1 and Table 3 of the paper (32 Gb DDR5-8000B with
 * PRAC-adjusted tRP/tWR per JESD79-5C).  All timings are stored in
 * simulator cycles (0.25 ns at the DDR5-8000 command clock).
 */

#ifndef PRACLEAK_DRAM_DRAM_SPEC_H
#define PRACLEAK_DRAM_DRAM_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace pracleak {

/** Physical organization of one DRAM channel. */
struct DramOrg
{
    std::uint32_t ranks = 4;
    std::uint32_t bankGroups = 8;     //!< per rank
    std::uint32_t banksPerGroup = 4;  //!< per bank group
    std::uint32_t rowsPerBank = 128 * 1024;
    std::uint32_t colsPerRow = 128;   //!< cache lines per 8 KB row

    std::uint32_t banksPerRank() const { return bankGroups * banksPerGroup; }
    std::uint32_t totalBanks() const { return ranks * banksPerRank(); }

    /** Flatten (rank, bank-in-rank) into a channel-wide bank index. */
    std::uint32_t
    flatBank(std::uint32_t rank, std::uint32_t bank_in_rank) const
    {
        return rank * banksPerRank() + bank_in_rank;
    }

    /** Total cache-line capacity of the channel. */
    std::uint64_t
    totalLines() const
    {
        return static_cast<std::uint64_t>(totalBanks()) * rowsPerBank *
               colsPerRow;
    }
};

/** DRAM timing constraints, in simulator cycles. */
struct DramTiming
{
    Cycle tRCD = nsToCycles(16);    //!< ACT -> RD/WR
    Cycle tCL = nsToCycles(16);     //!< RD -> first data
    Cycle tCWL = nsToCycles(16);    //!< WR -> first data
    Cycle tRAS = nsToCycles(16);    //!< ACT -> PRE
    Cycle tRP = nsToCycles(36);     //!< PRE -> ACT (PRAC-extended)
    Cycle tRTP = nsToCycles(5);     //!< RD -> PRE
    Cycle tWR = nsToCycles(10);     //!< end of WR data -> PRE (PRAC-ext.)
    Cycle tRC = nsToCycles(52);     //!< ACT -> ACT, same bank
    Cycle tBL = nsToCycles(2);      //!< burst (BL16 at 8000 MT/s)
    Cycle tCCD_S = nsToCycles(2);   //!< CAS -> CAS, different bank group
    Cycle tCCD_L = nsToCycles(4);   //!< CAS -> CAS, same bank group
    Cycle tRRD_S = nsToCycles(2);   //!< ACT -> ACT, different bank group
    Cycle tRRD_L = nsToCycles(5);   //!< ACT -> ACT, same bank group
    Cycle tFAW = nsToCycles(16);    //!< four-ACT window, per rank
    Cycle tWTR = nsToCycles(5);     //!< WR data end -> RD, same rank
    Cycle tRTW = nsToCycles(2);     //!< bus turnaround RD -> WR
    Cycle tRFC = nsToCycles(410);   //!< REFab duration
    Cycle tREFI = nsToCycles(3900); //!< refresh interval
    Cycle tREFW = nsToCycles(32.0e6);   //!< refresh window (32 ms)
    Cycle tRFMab = nsToCycles(350); //!< RFM all-bank blocking time
    Cycle tRFMpb = nsToCycles(210); //!< RFM per-bank blocking time
    Cycle tABOACT = nsToCycles(180);    //!< max ACT window after Alert

    /** Read latency from RD issue to last data beat. */
    Cycle readLatency() const { return tCL + tBL; }

    /** Write occupancy from WR issue to last data beat. */
    Cycle writeLatency() const { return tCWL + tBL; }
};

/** PRAC / Alert Back-Off parameters (Table 1 of the paper). */
struct PracParams
{
    /** Back-Off threshold: counter value at which DRAM asserts Alert. */
    std::uint32_t nbo = 1024;

    /** RFMs issued per Alert (PRAC level): 1, 2, or 4. */
    std::uint32_t nmit = 1;

    /** ACTs the controller may still issue between Alert and RFM. */
    std::uint32_t aboAct = 3;

    /** Min ACTs after the RFM burst before the next Alert (== nmit). */
    std::uint32_t aboDelay() const { return nmit; }

    /**
     * The ABO contract: the highest activation count a row may reach,
     * NBO plus the ABOACT allowance the controller may still issue
     * before the RFM lands.
     */
    std::uint32_t aboContract() const { return nbo + aboAct; }

    /** Victim rows refreshed per RFM per bank (blast radius coverage). */
    std::uint32_t victimsPerMitigation = 4;
};

/** Complete device specification. */
struct DramSpec
{
    DramOrg org;
    DramTiming timing;
    PracParams prac;

    /**
     * Factory for the paper's evaluated configuration: 32 Gb DDR5-8000B,
     * 1 channel x 4 ranks x 8 bank groups x 4 banks, 128K 8KB rows.
     */
    static DramSpec ddr5_8000b();

    /**
     * Mainstream-bin variants for geometry-sensitivity studies: 16 Gb
     * DDR5-4800 / DDR5-6400 parts with 1-2 ranks and smaller (4 KB)
     * rows.  Timings are representative JEDEC-bin values expressed in
     * the shared 0.25 ns simulator clock; the PRAC parameters are
     * unchanged so defenses stay comparable across bins.
     */
    static DramSpec ddr5_4800(std::uint32_t ranks = 2);
    static DramSpec ddr5_6400(std::uint32_t ranks = 2);
};

/**
 * Registered spec names, in catalog order ("ddr5-8000b" first --
 * the default everywhere a spec name is optional).
 */
const std::vector<std::string> &specNames();

/**
 * Factory lookup by registered name; throws std::invalid_argument
 * listing the known names (CLI- and grid-friendly, like
 * findSuiteEntry).
 */
DramSpec specByName(const std::string &name);

} // namespace pracleak

#endif // PRACLEAK_DRAM_DRAM_SPEC_H
