/**
 * @file
 * PRACLeak covert channels (paper Section 3.2).
 *
 * Activity-based channel: sender and receiver share only the DRAM
 * channel.  Per time window the sender either hammers a private row
 * to NBO activations (Bit-1, triggering an Alert Back-Off RFM whose
 * latency spike the receiver observes) or idles (Bit-0).
 *
 * Activation-count-based channel: sender and receiver share one
 * physical DRAM row.  The sender performs k < NBO activations of the
 * shared row; the receiver then activates the same row until it
 * observes the ABO spike after NBO - k of its own activations,
 * recovering k and thus log2(NBO) bits per window.
 */

#ifndef PRACLEAK_ATTACK_COVERT_H
#define PRACLEAK_ATTACK_COVERT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/controller.h"

namespace pracleak {

/** Channel configuration. */
struct CovertParams
{
    DramSpec spec = DramSpec::ddr5_8000b();

    /** Defense registry key (mitigation/registry.h). */
    std::string defense = "abo-only";

    /** Back-Off threshold (overrides spec.prac.nbo). */
    std::uint32_t nbo = 256;

    /** RFMs per Alert (PRAC level). */
    std::uint32_t nmit = 4;

    /** "tprac" window; 0 derives it from nbo. */
    Cycle tbWindowCycles = 0;

    /** Random-RFM injection rate of the "obfuscation" defense. */
    double randomRfmPerTrefi = 0.5;

    /** Auto-refresh on/off (off isolates the channel for unit tests). */
    bool refreshEnabled = true;
};

/** Outcome of one covert-channel run. */
struct CovertResult
{
    std::size_t symbolsSent = 0;
    std::size_t symbolErrors = 0;
    double bitsPerSymbol = 1.0;
    Cycle totalCycles = 0;

    /** Mean time for one symbol, in microseconds. */
    double periodUs() const;

    /** Achieved bitrate in kilobits per second. */
    double bitrateKbps() const;

    /** Fraction of symbols decoded incorrectly. */
    double errorRate() const;

    std::vector<std::uint32_t> sent;
    std::vector<std::uint32_t> decoded;

    /**
     * Count channel only: calibrated raw activation counts before
     * symbol rounding (diagnostics; -1 when no spike was seen).
     */
    std::vector<std::int64_t> rawCounts;
};

/**
 * Run the activity-based channel transmitting @p message (one bit per
 * window).
 */
CovertResult runActivityCovert(const CovertParams &params,
                               const std::vector<bool> &message);

/**
 * Run one independent activity-channel sender/receiver pair per
 * memory channel, concurrently, on a single multi-channel harness
 * (messages.size() channels; must be a power of two).  Per-channel
 * PRAC state keeps the pairs isolated, so each result should match a
 * standalone runActivityCovert of the same message -- a regression
 * that leaks Alerts or RFMs across channels shows up here as decode
 * errors.
 */
std::vector<CovertResult>
runActivityCovertParallel(const CovertParams &params,
                          const std::vector<std::vector<bool>> &messages);

/**
 * Run the activation-count channel transmitting @p symbols, each in
 * [0, nbo/(2*spacing)) where spacing is 8 for nbo <= 256 and 16
 * beyond (log2(nbo)-4 or -5 bits per window).
 *
 * Symbols are spaced several activations apart (k = spacing*symbol +
 * spacing/2) so spike-attribution jitter -- the receiver's in-flight
 * pipeline plus refresh-induced re-activations, which grow with the
 * phase length -- never flips a symbol; the top half of the count
 * range is excluded so sender activations alone cannot trigger the
 * Alert.
 */
CovertResult runCountCovert(const CovertParams &params,
                            const std::vector<std::uint32_t> &symbols);

/** Build a ControllerConfig for the given channel parameters. */
ControllerConfig covertControllerConfig(const CovertParams &params);

} // namespace pracleak

#endif // PRACLEAK_ATTACK_COVERT_H
