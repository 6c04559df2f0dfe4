/**
 * @file
 * Chrome trace-event export for sweep runs: one lane per sweep
 * thread, a span per grid point and per phase (sim / journal-flush),
 * a span per recorded workload or replayed defense, and instant
 * events for checkpoint writes.  The emitted JSON loads in Perfetto / chrome://tracing, so
 * scheduling gaps and straggler points are visible at a glance.
 *
 * Zero-cost-when-off contract: every call site holds a
 * `TraceSession *` that is null when tracing is disabled, and the
 * inline `TraceSpan` helper takes no timestamp when its session is
 * null -- a run without `--trace-out` performs no timing calls and
 * allocates nothing.  Tracing observes the harness only (wall clock,
 * scheduling); it must never be consulted by simulation code, so
 * sweep output is byte-identical with tracing on or off.
 */

#ifndef PRACLEAK_TELEMETRY_TRACE_H
#define PRACLEAK_TELEMETRY_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.h"
#include "telemetry/stopwatch.h"

namespace pracleak::telemetry {

/**
 * One trace recording: thread-safe event buffer plus the steady
 * clock all timestamps are relative to.  Lanes are small integers
 * (parallelLane(): 0.. on a thread parallelFor started, -1 on the
 * calling thread) mapped to Chrome thread ids with human-readable
 * names.
 */
class TraceSession
{
  public:
    /** @p path is where write() emits the JSON (atomic rename). */
    explicit TraceSession(std::string path);

    const std::string &path() const { return path_; }

    /** Microseconds since the session started (event `ts` unit). */
    std::uint64_t nowMicros() const { return clock_.micros(); }

    /**
     * Record a complete ('X') event: a span on @p lane covering
     * [@p start_us, @p start_us + @p dur_us].  @p args is attached
     * verbatim when it is an object.
     */
    void complete(const std::string &name, const std::string &category,
                  int lane, std::uint64_t start_us,
                  std::uint64_t dur_us,
                  sim::JsonValue args = sim::JsonValue());

    /** Record a thread-scoped instant ('i') event on @p lane. */
    void instant(const std::string &name, const std::string &category,
                 int lane, sim::JsonValue args = sim::JsonValue());

    /**
     * Record a counter ('C') event on @p lane at @p ts_us: each
     * numeric member of @p args is one counter series, rendered by
     * Perfetto as a stacked value track aligned with the lane's
     * spans.  The bus time-series export (telemetry/timeseries.h)
     * uses this to overlay ACT/RFM rate on the grid-point spans.
     */
    void counter(const std::string &name, int lane,
                 std::uint64_t ts_us, sim::JsonValue args);

    /** Override the display name of @p lane (default: worker-N). */
    void nameLane(int lane, const std::string &name);

    /**
     * Emit the Chrome trace-event JSON to path() via writeAtomic().
     * Callable once at the end of the run; returns false on I/O
     * failure.
     */
    bool write();

    /** Events recorded so far (tests). */
    std::size_t eventCount() const;

  private:
    struct Event
    {
        char phase;          //!< 'X' or 'i'
        std::string name;
        std::string category;
        int lane;
        std::uint64_t tsUs;
        std::uint64_t durUs; //!< 'X' only
        sim::JsonValue args;
    };

    std::string path_;
    Stopwatch clock_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::map<int, std::string> laneNames_;
};

/**
 * RAII span: records the start time at construction and emits one
 * complete event at destruction (or an explicit end()).  A null
 * session makes every member a no-op -- including the clock read --
 * so hot paths can construct spans unconditionally.
 */
class TraceSpan
{
  public:
    TraceSpan() = default;

    TraceSpan(TraceSession *session, std::string name,
              std::string category, int lane,
              sim::JsonValue args = sim::JsonValue())
        : session_(session), name_(std::move(name)),
          category_(std::move(category)), lane_(lane),
          args_(std::move(args))
    {
        if (session_)
            startUs_ = session_->nowMicros();
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan() { end(); }

    /** Emit the event now; later end() calls are no-ops. */
    void end()
    {
        if (!session_)
            return;
        const std::uint64_t now = session_->nowMicros();
        session_->complete(name_, category_, lane_, startUs_,
                           now - startUs_, std::move(args_));
        session_ = nullptr;
    }

  private:
    TraceSession *session_ = nullptr;
    std::string name_;
    std::string category_;
    int lane_ = -1;
    std::uint64_t startUs_ = 0;
    sim::JsonValue args_;
};

} // namespace pracleak::telemetry

#endif // PRACLEAK_TELEMETRY_TRACE_H
