/**
 * @file
 * Reusable attack actors.
 *
 *  - ProbeAgent: the spy.  Keeps one read outstanding to a private
 *    row and logs completion latencies; an RFM anywhere in the
 *    channel shows up as a latency spike (Section 3.1).
 *  - HammerAgent: the trojan's activation engine.  Alternates reads
 *    between a target row and decoy rows in the same bank so every
 *    target read forces a row conflict and hence exactly one ACT of
 *    the target.
 *
 * Each is placed by an AttackerConfig (targetBank, targetRow and, for
 * the hammer, its decoy layout) on the channel of the controller it
 * is constructed against, which must be the channel it is added to
 * the harness on.
 *
 * Both sleep (MemAgent::asleep()) while their tick() has nothing to
 * do until one of their reads completes or their owner calls in;
 * FeintingAgent ticks every cycle.
 */

#ifndef PRACLEAK_ATTACK_AGENTS_H
#define PRACLEAK_ATTACK_AGENTS_H

#include <cstdint>
#include <vector>

#include "attack/adversaries.h"
#include "attack/harness.h"
#include "common/types.h"

namespace pracleak {

/** One latency observation from the probe. */
struct LatencySample
{
    Cycle doneAt = 0;
    Cycle latency = 0;
};

/**
 * Spy that measures its own memory-access latency continuously.
 * Asleep exactly while its read is in flight.
 */
class ProbeAgent : public MemAgent
{
  public:
    /**
     * Read @p config.targetRow of flat bank @p config.targetBank in a
     * loop (its own bank: open-page keeps the row open, so the spy's
     * own activation counters stay parked).
     *
     * @param record_all Keep the full timeline (Fig. 3 needs it);
     *                   otherwise only spike samples are retained.
     */
    ProbeAgent(const MemoryController &mem,
               const AttackerConfig &config, bool record_all = true);

    void tick(MemoryController &mem, Cycle now) override;

    const std::vector<LatencySample> &samples() const { return samples_; }

    /** Number of completed probe reads. */
    std::uint64_t completed() const { return completed_; }

    /** Latency (cycles) above which a sample counts as an RFM spike. */
    static Cycle spikeThreshold();

    /** Whether any spike completed in [since, now]. */
    bool spikeSince(Cycle since) const;

    /** Completion time of the most recent spike (0 if none). */
    Cycle lastSpikeAt() const { return lastSpikeAt_; }

    /** Forget accumulated samples (keeps the in-flight read). */
    void clearSamples();

  private:
    Addr addr_;
    bool recordAll_;
    std::uint64_t completed_ = 0;
    std::vector<LatencySample> samples_;
    Cycle lastSpikeAt_ = 0;
};

/**
 * Memory-level Feinting/Wave attacker (paper Section 4.2): cycles a
 * pool of decoy rows plus one target row in a single bank, pruning
 * decoys whose counters were mitigated back to zero, so mitigation
 * bandwidth is wasted on decoys while the target creeps toward NBO.
 * This is the worst-case stressor the TB-Window analysis is sized
 * against; the defense bake-off runs it against every registered
 * mitigation.
 */
class FeintingAgent : public MemAgent
{
  public:
    /**
     * @p config.poolSize decoys at rows targetRow + 1 .. + poolSize
     * around @p config.targetRow, all in bank 0 of @p mem (whose PRAC
     * counters steer pruning); poolSize 0 derives the TB-RFM-safe
     * worst-case pool from @p mem's spec (the defense bake-off's
     * sizing).
     */
    FeintingAgent(MemoryController &mem, const AttackerConfig &config);

    void tick(MemoryController &mem, Cycle now) override;

  private:
    std::uint32_t nextRow();

    MemoryController &mem_;
    std::uint32_t targetRow_;
    std::vector<std::uint32_t> pool_;
    std::size_t cursor_ = 0;
    std::uint32_t outstanding_ = 0;
};

/** Trojan-side activation engine. */
class HammerAgent : public MemAgent
{
  public:
    /**
     * Hammer @p config.targetRow in flat bank @p config.targetBank,
     * alternating with poolSize same-bank decoys (default 2) at rows
     * targetRow + burstSpacing + i (burstSpacing doubles as the
     * decoy-row stride; default 1000).  More than one decoy keeps the
     * decoys' own counters well below the target's.
     */
    HammerAgent(const MemoryController &mem,
                const AttackerConfig &config);

    void tick(MemoryController &mem, Cycle now) override;

    /** Begin a burst of @p target_acts activations of the target. */
    void startHammer(std::uint32_t target_acts);

    /** Abort the current burst. */
    void stop();

    /** Whether the requested burst has fully completed. */
    bool done() const;

    /** Target reads completed in the current burst. */
    std::uint32_t targetActsDone() const { return targetDone_; }

  private:
    Addr nextAddress();

    /** Re-derive asleep_ after any change to the burst state. */
    void updateSleep();

    /** Reads kept in flight: 2 saturates the bank's tRC pipeline. */
    static constexpr std::uint32_t kMaxOutstanding = 2;

    Addr targetAddr_;
    std::vector<Addr> decoyAddrs_;

    bool active_ = false;
    bool nextIsTarget_ = true;
    std::size_t decoyIdx_ = 0;
    std::uint32_t targetBudget_ = 0;   //!< target reads left to issue
    std::uint32_t targetDone_ = 0;
    std::uint32_t outstanding_ = 0;
};

} // namespace pracleak

#endif // PRACLEAK_ATTACK_AGENTS_H
