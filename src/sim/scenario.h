/**
 * @file
 * The scenario registry: every reproduced paper figure/table (and
 * any future experiment) registers under a stable name with a
 * declarative parameter grid and a per-point run function.  The
 * sweep runner (sim/runner.h) runs a registered grid's points on
 * --jobs threads; the `pracbench` CLI is its client.
 */

#ifndef PRACLEAK_SIM_SCENARIO_H
#define PRACLEAK_SIM_SCENARIO_H

#include <functional>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/param_grid.h"

namespace pracleak::sim {

/** One emitted result row: a flat-ish JSON object of metrics. */
using ResultRow = JsonValue;

/** A registered experiment. */
struct Scenario
{
    /** Stable CLI name, e.g. "fig10_performance". */
    std::string name;

    /** Human title, e.g. "Figure 10: normalized performance ...". */
    std::string title;

    /** What the paper reports for this experiment (shown after runs). */
    std::string notes;

    /**
     * Catalog labels shown by `pracbench list` (e.g. "attack",
     * "perf", "defense") so the 20+ scenario catalog stays
     * navigable; purely informational.
     */
    std::vector<std::string> tags;

    /** The swept parameter space. */
    ParamGrid grid;

    /**
     * Run one grid point and return its result rows.  Must be
     * thread-safe against concurrent invocations on other points.
     * Returning an empty vector skips the point (for grids whose
     * cartesian product contains invalid combinations).
     */
    std::function<std::vector<ResultRow>(const ParamSet &)> runPoint;

    /**
     * Optional: reduce all rows (point parameters merged in) to
     * summary rows -- means, counts, derived tables.
     */
    std::function<std::vector<ResultRow>(
        const std::vector<ResultRow> &)>
        summarize;
};

/** Name -> scenario lookup table. */
class ScenarioRegistry
{
  public:
    static ScenarioRegistry &instance();

    /** Register; throws std::invalid_argument on duplicate names. */
    void add(Scenario scenario);

    /** Lookup, nullptr when unknown. */
    const Scenario *find(const std::string &name) const;

    /** All scenarios sorted by name. */
    std::vector<const Scenario *> all() const;

    std::size_t size() const { return scenarios_.size(); }

  private:
    std::vector<Scenario> scenarios_;
};

/**
 * Register every built-in scenario (figs 3-14, tables 2/4/5,
 * ablations).  Idempotent; call before using the registry from a
 * main().  Explicit registration keeps the scenarios linkable from a
 * static library without self-registration object tricks.
 */
void registerBuiltinScenarios();

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_SCENARIO_H
