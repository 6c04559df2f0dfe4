/**
 * @file
 * Memory-request trace capture format: the versioned, delta-encoded
 * binary container behind `pracbench record` / `pracbench replay`.
 *
 * A trace captures the per-channel stream of requests accepted at the
 * MemoryController enqueue boundary ({cycle, type, addr, coreId}),
 * together with everything a replay needs to rebuild an identical
 * controller + mitigation stack: the DRAM spec (by registry name,
 * geometry pinned for validation), the channel interleave, and the
 * controller knobs that influence command scheduling.  The recorded
 * run's cumulative per-channel controller stats ride along so a
 * same-defense replay can verify bit-identity without re-running the
 * original simulation.  See src/trace/DESIGN.md for the byte-level
 * layout and the versioning rules.
 */

#ifndef PRACLEAK_TRACE_TRACE_H
#define PRACLEAK_TRACE_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mem/request.h"
#include "mitigation/mitigation.h"

namespace pracleak::trace {

/** Current container version; readers reject anything else. */
inline constexpr std::uint32_t kTraceVersion = 1;

/** One accepted request at the controller enqueue boundary. */
struct TraceRecord
{
    Cycle cycle = 0;            //!< controller cycle at enqueue
    ReqType type = ReqType::Read;
    Addr addr = 0;              //!< physical address (pre-mapping)
    std::uint32_t coreId = 0;

    bool
    operator==(const TraceRecord &other) const
    {
        return cycle == other.cycle && type == other.type &&
               addr == other.addr && coreId == other.coreId;
    }
};

/**
 * Cumulative controller/mitigation stats of one channel at the end of
 * the recorded run.  A same-defense replay must reproduce every field
 * exactly -- this is the bit-identity contract the golden test pins.
 */
struct TraceChannelStats
{
    std::uint64_t requests = 0;
    std::uint64_t acts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rfms[kRfmReasonCount] = {};
    std::uint64_t alerts = 0;
    std::uint64_t mitigationEvents = 0;
    std::uint64_t mitigatedRows = 0;
    std::uint32_t maxCounterSeen = 0;

    bool operator==(const TraceChannelStats &other) const;
};

/** Everything the header carries besides the channel streams. */
struct TraceHeader
{
    std::string workload;       //!< display name of the recorded run
    std::string spec;           //!< DRAM spec registry name
    std::string mitigation;     //!< defense active while recording

    // Geometry snapshot of the named spec, pinned so a renamed or
    // retuned registry entry cannot silently replay against different
    // hardware.
    std::uint32_t ranks = 0;
    std::uint32_t bankGroups = 0;
    std::uint32_t banksPerGroup = 0;
    std::uint32_t rowsPerBank = 0;
    std::uint32_t colsPerRow = 0;

    // PRAC parameters in effect during recording.
    std::uint32_t nbo = 0;
    std::uint32_t nmit = 0;

    // Channel striping (mem/address_mapper.h).
    std::uint32_t channels = 1;
    std::uint32_t granularityBytes = 256;
    bool xorFold = true;

    // Controller knobs that influence command scheduling.
    std::uint8_t mapping = 0;       //!< MappingScheme
    std::uint32_t queueCapacity = 64;
    std::uint32_t frfcfsCap = 4;
    bool refreshEnabled = true;
    std::uint8_t pracQueue = 0;     //!< QueueKind
    std::uint32_t fifoThreshold = 0;
    bool counterResetAtTrefw = true;
    std::uint32_t trefPeriodRefs = 0;
    double randomRfmPerTrefi = 0.5; //!< obfuscation defense knob
    std::uint64_t obfuscationSeed = 0;

    /** Final controller cycle of the recorded run (replay horizon). */
    Cycle endCycle = 0;
};

/** One channel's stream plus its end-of-run stats. */
struct ChannelTrace
{
    std::vector<TraceRecord> records;
    TraceChannelStats stats;
};

/** A complete in-memory trace (what files serialize). */
struct TraceData
{
    TraceHeader header;
    std::vector<ChannelTrace> channels;
};

/**
 * Incremental trace builder.  The recorder appends requests as the
 * taps observe them, snapshots stats when the run finishes, and
 * either serializes to a file or hands the TraceData to an in-process
 * replay (the defense-sweep scenario skips the filesystem entirely).
 */
class TraceWriter
{
  public:
    explicit TraceWriter(TraceHeader header);

    void append(std::uint32_t channel, const TraceRecord &record);
    void setChannelStats(std::uint32_t channel,
                         const TraceChannelStats &stats);
    void setEndCycle(Cycle end) { data_.header.endCycle = end; }

    const TraceData &data() const { return data_; }
    TraceData takeData() { return std::move(data_); }

    /** Serialize to @p path; throws std::runtime_error on I/O error. */
    void writeFile(const std::string &path) const;

  private:
    TraceData data_;
};

/**
 * Trace file loader.  The constructor parses and validates the whole
 * file; malformed input (bad magic, unsupported version, truncation,
 * corrupt varints) throws std::runtime_error with a message naming
 * the defect.
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path);

    /** Parse an already-loaded serialized image (tests, pipelines). */
    static TraceData parse(const std::string &bytes);

    const TraceData &data() const { return data_; }
    const TraceHeader &header() const { return data_.header; }
    std::uint32_t
    channels() const
    {
        return static_cast<std::uint32_t>(data_.channels.size());
    }
    const ChannelTrace &
    channel(std::uint32_t index) const
    {
        return data_.channels.at(index);
    }

  private:
    TraceData data_;
};

/** Serialize @p data to its byte image (what writeFile emits). */
std::string serializeTrace(const TraceData &data);

} // namespace pracleak::trace

#endif // PRACLEAK_TRACE_TRACE_H
