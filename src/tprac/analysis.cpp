#include "tprac/analysis.h"

#include <algorithm>
#include <cmath>

#include "common/types.h"

namespace pracleak {

FeintingParams
FeintingParams::fromSpec(const DramSpec &spec)
{
    FeintingParams p;
    p.trcNs = cyclesToNs(spec.timing.tRC);
    p.trefiNs = cyclesToNs(spec.timing.tREFI);
    p.trefwNs = cyclesToNs(spec.timing.tREFW);
    p.trfcNs = cyclesToNs(spec.timing.tRFC);
    p.trfmabNs = cyclesToNs(spec.timing.tRFMab);
    p.rowsPerBank = spec.org.rowsPerBank;
    return p;
}

std::uint64_t
actsPerWindow(double window_ns, const FeintingParams &p)
{
    const double usable = window_ns - p.trfmabNs;
    if (usable <= 0)
        return 0;
    return static_cast<std::uint64_t>(usable / p.trcNs);
}

std::uint64_t
attackRounds(std::uint64_t r1, std::uint64_t acts_per_window)
{
    if (r1 == 0)
        return 0;
    if (acts_per_window == 0)
        return 1; // no mitigations ever happen; one "round" suffices

    std::uint64_t rounds = 0;
    std::uint64_t cumulative = 0;
    std::uint64_t remaining = r1;
    while (remaining > 1) {
        ++rounds;
        cumulative += remaining;
        const std::uint64_t mitigated = cumulative / acts_per_window;
        remaining = (r1 > mitigated) ? r1 - mitigated : 1;
    }
    return rounds + 1; // final round with only the target left
}

std::uint64_t
targetActivations(std::uint64_t r1, std::uint64_t acts_per_window)
{
    const std::uint64_t rounds = attackRounds(r1, acts_per_window);
    if (rounds == 0)
        return 0;
    // One ACT per round while decoys survive; the whole final window
    // goes to the target (Eq. 4).
    return (rounds - 1) + acts_per_window;
}

std::uint64_t
maxActsPerTrefw(double window_ns, const FeintingParams &p)
{
    const double num_refs = p.trefwNs / p.trefiNs;
    const double num_rfms = window_ns > 0 ? p.trefwNs / window_ns : 0;
    const double usable =
        p.trefwNs - num_refs * p.trfcNs - num_rfms * p.trfmabNs;
    if (usable <= 0)
        return 0;
    return static_cast<std::uint64_t>(usable / p.trcNs);
}

std::uint64_t
optimalPool(double window_ns, std::uint64_t acts_per_window,
            const FeintingParams &p)
{
    return std::min<std::uint64_t>(
        maxActsPerTrefw(window_ns, p) / acts_per_window, p.rowsPerBank);
}

std::uint64_t
tmaxWithReset(double window_ns, const FeintingParams &p)
{
    const std::uint64_t act_w = actsPerWindow(window_ns, p);
    if (act_w == 0)
        return 0;
    return targetActivations(optimalPool(window_ns, act_w, p), act_w);
}

std::uint64_t
tmaxNoReset(double window_ns, const FeintingParams &p)
{
    const std::uint64_t act_w = actsPerWindow(window_ns, p);
    if (act_w == 0)
        return 0;

    // TACT is monotonically non-decreasing in R1 (a bigger pool never
    // hurts: the adversary can ignore extra rows), so the bound is at
    // the full row count; we still sweep a coarse grid and take the
    // max as a guard against non-monotonic floor effects.
    std::uint64_t best = 0;
    for (std::uint64_t r1 = 1; r1 <= p.rowsPerBank; r1 = r1 * 2) {
        best = std::max(best, targetActivations(r1, act_w));
    }
    best = std::max(best, targetActivations(p.rowsPerBank, act_w));
    return best;
}

std::uint64_t
tmax(double window_ns, bool counter_reset, const FeintingParams &p)
{
    return counter_reset ? tmaxWithReset(window_ns, p)
                         : tmaxNoReset(window_ns, p);
}

double
maxSafeWindowNs(std::uint32_t nbo, bool counter_reset,
                const FeintingParams &p)
{
    const double step = p.trefiNs / 100.0;
    double best = 0.0;
    // TMAX is monotone in the window, so binary search would do, but a
    // linear scan over [step, 8 tREFI] is trivially cheap and immune
    // to floor-induced plateaus.
    for (double w = step; w <= 8.0 * p.trefiNs; w += step) {
        if (tmax(w, counter_reset, p) < nbo)
            best = w;
        else
            break;
    }
    return best;
}

std::uint32_t
maxSafeBat(std::uint32_t nbo, bool counter_reset, const FeintingParams &p)
{
    // A BAT of b yields one RFM per b activations to the hot bank;
    // the equivalent mitigation cadence is a window of b * tRC plus
    // the RFM blocking time that actsPerWindow() subtracts back out.
    std::uint32_t best = 0;
    for (std::uint32_t bat = 1; bat <= nbo; ++bat) {
        const double w = bat * p.trcNs + p.trfmabNs;
        if (tmax(w, counter_reset, p) < nbo)
            best = bat;
        else
            break;
    }
    return best;
}

} // namespace pracleak
