/**
 * @file
 * PRACLeak side-channel attack on T-table AES (paper Section 3.3).
 *
 * Setup: victim and attacker share the 16 DRAM rows that hold the 16
 * cache lines of the first AES T-table (possible because one 8 KB row
 * collects data from many pages under MOP mapping).  The attacker
 * continuously flushes those lines, so the victim's first-round Te0
 * lookups become DRAM activations.  With the chosen plaintext byte p0
 * fixed, the line of index x0 = p0 XOR k0 accumulates ~1.19
 * activations per encryption versus ~0.19 for the other 15 lines.
 *
 * After n encryptions the attacker round-robins single activations
 * over the 16 rows; the first row to trigger the Alert Back-Off RFM
 * is the hottest one, and its index leaks the top nibble of k0.
 * Under TPRAC the first observed RFM is a Timing-Based RFM whose
 * position is independent of the key (Fig. 9).
 */

#ifndef PRACLEAK_ATTACK_SIDE_CHANNEL_H
#define PRACLEAK_ATTACK_SIDE_CHANNEL_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/agents.h"
#include "common/types.h"
#include "crypto/aes128t.h"
#include "mem/controller.h"

namespace pracleak {

/** Experiment configuration. */
struct SideChannelParams
{
    DramSpec spec = DramSpec::ddr5_8000b();

    /** Defense registry key (mitigation/registry.h). */
    std::string defense = "abo-only";

    std::uint32_t nbo = 256;
    std::uint32_t nmit = 4;
    Cycle tbWindowCycles = 0;   //!< "tprac" window; 0 = derive from nbo

    Aes128T::Key key{};         //!< victim's secret key
    std::uint8_t p0 = 0;        //!< fixed chosen-plaintext byte 0
    int encryptions = 200;
    std::uint64_t seed = 1;

    /**
     * Probe-pipeline lag (reads between the true NBO crossing and the
     * observed spike); -1 auto-calibrates with a known-key dry run.
     */
    int probeLag = -1;

    /** Record the full Fig.-4 timeline (latency + ACT traces). */
    bool recordTimeline = false;

    /**
     * Probe spike threshold in ns; 0 derives it from the PRAC level
     * (nmit * 350 - 100).  Fig. 9's defended sweep lowers it so the
     * attacker still "sees" the (single-RFM) TB-RFM events.
     */
    double spikeThresholdNs = 0.0;
};

/** Experiment outcome. */
struct SideChannelResult
{
    /** Victim-phase activations of each monitored row (ground truth). */
    std::array<std::uint32_t, 16> victimActsPerRow{};

    bool spikeObserved = false;
    int spikeProbeIndex = -1;       //!< attacker read index of the spike
    int estimatedTriggerRow = -1;   //!< attacker's lag-corrected guess
    int trueTriggerRow = -1;        //!< row that asserted the Alert
    std::uint32_t attackerActsToTrigger = 0;
    int recoveredKeyNibble = -1;    //!< estimatedTriggerRow ^ (p0 >> 4)

    // Fig. 4 timeline (only when recordTimeline).
    std::vector<LatencySample> probeTimeline;
    std::vector<Cycle> rfmTimes;
    /** (cycle, monitored-row index) of every ACT in the Te0 bank. */
    std::vector<std::pair<Cycle, int>> actTimeline;
    Cycle victimPhaseEnd = 0;
};

/** Run one measurement of key nibble k0's top 4 bits. */
SideChannelResult runAesSideChannel(const SideChannelParams &params);

/**
 * Repeat the attack @p repeats times (fresh plaintext seeds, same
 * key) and majority-vote the trigger row -- the standard attacker
 * response to environmental noise such as refresh collisions with
 * the Alert window.  Returns the winning run with the voted row and
 * nibble substituted.
 */
SideChannelResult runAesSideChannelMajority(
    const SideChannelParams &params, int repeats = 3);

/**
 * Determine the probe lag by attacking a known key and finding the
 * offset that recovers it (the paper's attacker would calibrate the
 * same way on a machine it controls).
 */
int calibrateProbeLag(SideChannelParams params);

} // namespace pracleak

#endif // PRACLEAK_ATTACK_SIDE_CHANNEL_H
