/**
 * @file
 * Independent verifier for DRAM command streams.
 *
 * Re-implements the JEDEC timing rules with a deliberately different
 * structure from DramDevice (pairwise command-distance checks instead
 * of next-allowed-time gates) so the two models cross-check each
 * other.  Tests attach it via DramDevice::setTraceSink and assert that
 * no violations accumulate.
 */

#ifndef PRACLEAK_DRAM_TIMING_CHECKER_H
#define PRACLEAK_DRAM_TIMING_CHECKER_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.h"
#include "dram/command.h"
#include "dram/dram_spec.h"

namespace pracleak {

/** Streaming checker; feed every issued command in order. */
class TimingChecker
{
  public:
    explicit TimingChecker(const DramSpec &spec);

    /** Observe one issued command. */
    void observe(const Command &cmd, Cycle now);

    /** Human-readable violations detected so far. */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    bool clean() const { return violations_.empty(); }

  private:
    struct Issued
    {
        Command cmd;
        Cycle at;
    };

    void fail(const std::string &what, const Command &cmd, Cycle now);
    void require(bool ok, const std::string &what, const Command &cmd,
                 Cycle now);

    bool sameBank(const Command &a, const Command &b) const;
    bool sameRank(const Command &a, const Command &b) const;
    bool sameBankGroup(const Command &a, const Command &b) const;

    DramSpec spec_;

    /**
     * Longest distance any rule in observe() checks.  A past command
     * at least this old cannot fail a rule, so it leaves the history.
     */
    Cycle window_;

    /** Commands younger than window_, in issue order. */
    std::deque<Issued> history_;
    std::vector<bool> open_;
    std::vector<std::uint32_t> openRow_;
    std::vector<std::string> violations_;
};

} // namespace pracleak

#endif // PRACLEAK_DRAM_TIMING_CHECKER_H
