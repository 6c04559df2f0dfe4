/**
 * @file
 * The paper's attack actors.
 *
 *  - ProbeAgent: the spy.  Keeps one read in flight to a private row
 *    and logs completion latencies; an RFM anywhere in the channel
 *    shows up as a latency spike (Section 3.1).
 *  - HammerAgent: the trojan's activation engine.  Alternates reads
 *    between a target row and decoy rows in the same bank so every
 *    target read forces a row conflict and hence exactly one ACT of
 *    the target.
 *  - FeintingAgent: the Feinting/Wave attacker (Section 4.2).
 *
 * Each is an AttackerAgent, so the registry (attack/adversaries.h)
 * returns them as "probe", "hammer" and "feinting".  Each is placed
 * by an AttackerConfig (targetBank, targetRow and, for the hammer,
 * its decoy layout) on the channel of the controller it is
 * constructed against, which must be the channel it is added to the
 * harness on.  Like every MemAgent they sleep between their own
 * events (the rule in attack/harness.h).
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

/** Spy that measures its own memory-access latency continuously. */
class ProbeAgent : public AttackerAgent
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

    const std::vector<LatencySample> &samples() const { return samples_; }

    /** Latency (cycles) above which a sample counts as an RFM spike. */
    static Cycle spikeThreshold();

    /** Whether any spike completed in [since, now]. */
    bool spikeSince(Cycle since) const;

    /** Completion time of the most recent spike (0 if none). */
    Cycle lastSpikeAt() const { return lastSpikeAt_; }

    /** Forget accumulated samples (keeps the in-flight read). */
    void clearSamples() { samples_.clear(); }

  private:
    std::optional<Addr> next(MemoryController &) override { return addr_; }
    void onComplete(const Request &done, std::uint64_t) override;

    Addr addr_;
    bool recordAll_;
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
class FeintingAgent : public AttackerAgent
{
  public:
    /**
     * @p config.poolSize decoys at rows targetRow + 1 .. + poolSize
     * around @p config.targetRow, all in bank 0 of @p mem (whose PRAC
     * counters steer pruning); poolSize 0 derives the TB-RFM-safe
     * worst-case pool from @p mem's spec (the defense bake-off's
     * sizing).
     */
    FeintingAgent(const MemoryController &mem,
                  const AttackerConfig &config);

  private:
    std::optional<Addr> next(MemoryController &mem) override;

    std::uint32_t targetRow_;
    std::vector<std::uint32_t> pool_;
    std::size_t cursor_ = 0;
};

/** Trojan-side activation engine. */
class HammerAgent : public AttackerAgent
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

    /** Begin a burst of @p target_acts activations of the target. */
    void startHammer(std::uint32_t target_acts);

    /**
     * Hammer in bursts of @p target_acts, each begun as soon as the
     * previous one drains (the registry's oblivious "hammer").
     */
    void repeat(std::uint32_t target_acts);

    /** Abort the current burst and any repeat. */
    void stop();

    /** Whether the requested burst has fully completed. */
    bool done() const;

    /** Target reads completed in the current burst. */
    std::uint32_t targetActsDone() const { return targetDone_; }

  private:
    std::optional<Addr> next(MemoryController &) override;
    void onComplete(const Request &done, std::uint64_t) override;

    Addr targetAddr_;
    std::vector<Addr> decoyAddrs_;

    bool active_ = false;
    bool nextIsTarget_ = true;
    std::size_t decoyIdx_ = 0;
    std::uint32_t targetBudget_ = 0;   //!< target reads left to issue
    std::uint32_t targetDone_ = 0;
    std::uint32_t repeatActs_ = 0;     //!< repeat()'s burst; 0 = none
};

} // namespace pracleak

#endif // PRACLEAK_ATTACK_AGENTS_H
