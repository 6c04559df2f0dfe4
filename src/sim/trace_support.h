/**
 * @file
 * Bridge between the scenario/CLI layer and the trace subsystem
 * (src/trace/): recordSuiteRun() records one suite workload, and
 * recordScenario() / replayScenario() are the `pracbench record` /
 * `pracbench replay` sweeps, which write traces and replay one under
 * any registered defense.
 */

#ifndef PRACLEAK_SIM_TRACE_SUPPORT_H
#define PRACLEAK_SIM_TRACE_SUPPORT_H

#include <string>

#include "sim/design.h"
#include "sim/scenario.h"
#include "trace/trace.h"

namespace pracleak::sim {

/** A recorded run: the trace plus the originating full simulation. */
struct RecordedRun
{
    trace::TraceData trace;
    RunResult run;
};

/**
 * Run @p entry under @p design with trace taps armed on every
 * channel; the returned trace replays against any defense.
 */
RecordedRun recordSuiteRun(const SuiteEntry &entry,
                           const DesignConfig &design,
                           const RunBudget &budget,
                           std::uint32_t cores = 4);

/**
 * `pracbench record DIR` as a sweep: one point per `workload` (the
 * whole Table-4 suite unless overridden) that simulates it with trace
 * taps armed and writes DIR/<workload>.trc.  The other axes are
 * constants: mitigation (none), spec (ddr5-8000b), nbo (1024), warmup
 * (20000), measure (100000), channels (1) and cores (4).  Each row
 * carries the file's `path`, `requests`, `bytes`, `end_cycle` and
 * `fnv1a64`.
 */
Scenario recordScenario(const std::string &dir);

/**
 * `pracbench replay FILE` as a sweep over one `mitigation` axis,
 * which defaults to the recorded defense: each point replays @p trace
 * (it must outlive the sweep) under one defense, and the recorded
 * defense's row carries `bit_identical`.  The summary is the
 * recording's own stats; @p path names the trace in the title.
 */
Scenario replayScenario(const trace::TraceData &trace,
                        const std::string &path);

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_TRACE_SUPPORT_H
