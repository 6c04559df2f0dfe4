/**
 * @file
 * Trace capture: installs a RequestTap on every channel controller of
 * a System, streams the accepted requests into a TraceWriter, and
 * snapshots the run's cumulative controller stats when recording
 * finishes.
 *
 * Usage (the order matters -- taps must be armed before the run):
 *
 *   TraceRecorder recorder("h_rand_heavy", "ddr5-8000b", spec,
 *                          system.channel(0).config(), channels);
 *   recorder.attach(system);
 *   system.run();
 *   recorder.finish(system);            // stats + end cycle
 *   recorder.writer().writeFile(path);  // or takeData() for in-memory
 */

#ifndef PRACLEAK_TRACE_RECORDER_H
#define PRACLEAK_TRACE_RECORDER_H

#include <memory>
#include <string>
#include <vector>

#include "cpu/system.h"
#include "mem/controller.h"
#include "trace/trace.h"

namespace pracleak::trace {

/**
 * The snapshot's old name.  perfbench/ still spells it, and the
 * benchmark's sources stay as they are until its next change.
 */
using pracleak::snapshotChannelStats;

/** Per-channel enqueue-boundary tap bound to one TraceWriter. */
class TraceRecorder
{
  public:
    /**
     * @param workload Display name stored in the header.
     * @param specName DRAM spec registry name (dram/dram_spec.h);
     *                 its geometry is pinned from @p spec.
     * @param config   The controllers' shared configuration; every
     *                 scheduling-relevant knob is serialized so replay
     *                 rebuilds an identical stack.
     */
    TraceRecorder(const std::string &workload,
                  const std::string &specName, const DramSpec &spec,
                  const ControllerConfig &config,
                  std::uint32_t channels);

    /** Arm the taps on every channel controller (before run()). */
    void attach(System &system);

    /** Snapshot stats + end cycle after the run; disarms the taps. */
    void finish(System &system);

    TraceWriter &writer() { return writer_; }
    const TraceWriter &writer() const { return writer_; }

    /** Move the finished trace out (in-memory replay pipelines). */
    TraceData takeData() { return writer_.takeData(); }

  private:
    class ChannelTap : public RequestTap
    {
      public:
        ChannelTap(TraceWriter *writer, std::uint32_t channel)
            : writer_(writer), channel_(channel)
        {
        }

        void
        onEnqueue(const Request &request, Cycle now) override
        {
            writer_->append(channel_,
                            TraceRecord{now, request.type,
                                        request.addr, request.coreId});
        }

      private:
        TraceWriter *writer_;
        std::uint32_t channel_;
    };

    void armTap(MemoryController &mem, std::uint32_t channel);
    void finishChannel(MemoryController &mem, std::uint32_t channel);

    TraceWriter writer_;
    std::vector<std::unique_ptr<ChannelTap>> taps_;
};

/**
 * Build the header for a recording of @p channels controllers running
 * @p config against @p spec (registered as @p specName).
 */
TraceHeader makeTraceHeader(const std::string &workload,
                            const std::string &specName,
                            const DramSpec &spec,
                            const ControllerConfig &config,
                            std::uint32_t channels);

} // namespace pracleak::trace

#endif // PRACLEAK_TRACE_RECORDER_H
