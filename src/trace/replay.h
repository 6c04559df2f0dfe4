/**
 * @file
 * Trace replay: rebuild a fresh controller + mitigation stack from a
 * trace header, feed the recorded per-channel request streams back
 * through ReplayCores, and report the cumulative controller stats at
 * the recorded horizon.
 *
 * Replaying under the recorded defense reproduces the recorded run's
 * controller/mitigation stats bit-identically (pinned by the
 * Golden.TraceReplayBitIdentical test).  Replaying under a different
 * defense is the cheap leg of a defense sweep: the request stream is
 * fixed (open-loop), only the controller+defense reaction differs.
 *
 * The channels share no state, so replayTrace() runs them through
 * parallelFor() (common/parallel.h) on up to one thread per host CPU,
 * the calling thread included; the result does not depend on the
 * thread count.  The controllers are still built on the calling
 * thread in channel order, which is what a telemetry::SeriesCapture
 * relies on to group them.
 */

#ifndef PRACLEAK_TRACE_REPLAY_H
#define PRACLEAK_TRACE_REPLAY_H

#include <string>
#include <vector>

#include "mem/controller.h"
#include "trace/trace.h"

namespace pracleak::trace {

/** Replay knobs. */
struct ReplayOptions
{
    /** Defense to replay under; empty = the recorded defense. */
    std::string mitigation;
};

/** Outcome of one replay. */
struct ReplayResult
{
    std::string mitigation;         //!< effective defense key
    Cycle endCycle = 0;             //!< replay horizon (== recorded)
    std::uint64_t replayedRequests = 0;

    /**
     * Whether every recorded request was enqueued by the horizon.
     * Always true under the recorded defense; a heavier defense can
     * back-pressure the tail past the horizon (open-loop truncation).
     */
    bool fullyDrained = true;

    std::vector<ChannelStats> channels;

    /**
     * Scheduler work summed over channels, read once after the
     * replay: exact and deterministic, so a scheduler regression
     * shows up as a changed count.
     */
    SchedCounters sched;

    /** Sum over channels (max for maxCounterSeen). */
    ChannelStats total() const;

    /** Exact per-channel equality against the recorded stats. */
    bool matchesRecorded(const TraceData &trace) const;
};

/**
 * Rebuild the DRAM spec a trace was recorded against: the named
 * registry spec with the header's PRAC parameters applied.  Throws
 * std::runtime_error when the registry geometry no longer matches the
 * header (the spec was retuned since recording -- re-record).
 */
DramSpec specFromHeader(const TraceHeader &header);

/**
 * Rebuild the per-channel ControllerConfig for a replay of @p header
 * under @p mitigation (defense parameters derived via
 * configureDefense, exactly like a fresh simulation).
 */
ControllerConfig configFromHeader(const TraceHeader &header,
                                  const std::string &mitigation,
                                  const DramSpec &spec);

/** Replay @p trace under @p options. */
ReplayResult replayTrace(const TraceData &trace,
                         const ReplayOptions &options = {});

} // namespace pracleak::trace

#endif // PRACLEAK_TRACE_REPLAY_H
