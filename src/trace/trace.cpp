#include "trace/trace.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace pracleak::trace {

namespace {

/** 8-byte magic: "PRACTRC" + NUL. */
constexpr char kMagic[8] = {'P', 'R', 'A', 'C', 'T', 'R', 'C', '\0'};

/**
 * Header knob limits: channel counts and interleave granularities are
 * 32-bit powers of two (the address mapper's domain), and the queue
 * capacity sizes the replay controller's request pool.
 */
constexpr std::uint64_t kMaxPowerOfTwo = std::uint64_t{1} << 31;
constexpr std::uint64_t kMaxQueueCapacity = 4096;

// --- encoding ------------------------------------------------------

void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>(value | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

void
putString(std::string &out, const std::string &text)
{
    putVarint(out, text.size());
    out.append(text);
}

void
putDouble(std::string &out, double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    // Fixed 8-byte little-endian image (varint would mangle doubles).
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>(bits >> (8 * i)));
}

void
putStats(std::string &out, const TraceChannelStats &stats)
{
    putVarint(out, stats.requests);
    putVarint(out, stats.acts);
    putVarint(out, stats.reads);
    putVarint(out, stats.writes);
    putVarint(out, stats.refreshes);
    for (const std::uint64_t rfms : stats.rfms)
        putVarint(out, rfms);
    putVarint(out, stats.alerts);
    putVarint(out, stats.mitigationEvents);
    putVarint(out, stats.mitigatedRows);
    putVarint(out, stats.maxCounterSeen);
}

// --- decoding ------------------------------------------------------

/** Bounds-checked cursor over the serialized image. */
struct Cursor
{
    const std::string &bytes;
    std::size_t pos = 0;

    [[noreturn]] void
    truncated(const char *what) const
    {
        throw std::runtime_error(
            "truncated trace file: unexpected end of data while "
            "reading " +
            std::string(what) + " at byte " + std::to_string(pos));
    }

    std::uint8_t
    u8(const char *what)
    {
        if (pos >= bytes.size())
            truncated(what);
        return static_cast<std::uint8_t>(bytes[pos++]);
    }

    std::uint64_t
    varint(const char *what)
    {
        std::uint64_t value = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const std::uint8_t byte = u8(what);
            // The tenth byte holds only bit 63: any higher payload
            // bit (or a further continuation) would be silently
            // truncated -- reject instead.
            if (shift == 63 && byte > 1)
                break;
            value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0)
                return value;
        }
        throw std::runtime_error(
            "corrupt trace file: varint overflow while reading " +
            std::string(what));
    }

    /**
     * A varint header knob that must lie in [@p lo, @p hi] and, when
     * @p power_of_two, be a power of two -- the values the controller
     * and address mapper accept.  Anything else is rejected here, at
     * its byte offset, instead of failing later at replay.
     */
    std::uint32_t
    knob(const char *what, std::uint64_t lo, std::uint64_t hi,
         bool power_of_two)
    {
        const std::size_t at = pos;
        const std::uint64_t value = varint(what);
        if (value < lo || value > hi ||
            (power_of_two && (value & (value - 1)) != 0))
            throw std::runtime_error(
                "corrupt trace file: " + std::string(what) + " = " +
                std::to_string(value) + " at byte " +
                std::to_string(at) + " (must be " +
                (power_of_two ? "a power of two " : "") + "in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "])");
        return static_cast<std::uint32_t>(value);
    }

    std::string
    str(const char *what)
    {
        const std::uint64_t size = varint(what);
        if (size > bytes.size() - pos)
            truncated(what);
        std::string out = bytes.substr(pos, size);
        pos += size;
        return out;
    }

    double
    f64(const char *what)
    {
        std::uint64_t bits = 0;
        for (int i = 0; i < 8; ++i)
            bits |= static_cast<std::uint64_t>(u8(what)) << (8 * i);
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        return value;
    }
};

TraceChannelStats
readStats(Cursor &in)
{
    TraceChannelStats stats;
    stats.requests = in.varint("stats.requests");
    stats.acts = in.varint("stats.acts");
    stats.reads = in.varint("stats.reads");
    stats.writes = in.varint("stats.writes");
    stats.refreshes = in.varint("stats.refreshes");
    for (std::uint64_t &rfms : stats.rfms)
        rfms = in.varint("stats.rfms");
    stats.alerts = in.varint("stats.alerts");
    stats.mitigationEvents = in.varint("stats.mitigation_events");
    stats.mitigatedRows = in.varint("stats.mitigated_rows");
    stats.maxCounterSeen =
        static_cast<std::uint32_t>(in.varint("stats.max_counter"));
    return stats;
}

} // namespace

bool
TraceChannelStats::operator==(const TraceChannelStats &other) const
{
    for (std::size_t i = 0; i < kRfmReasonCount; ++i)
        if (rfms[i] != other.rfms[i])
            return false;
    return requests == other.requests && acts == other.acts &&
           reads == other.reads && writes == other.writes &&
           refreshes == other.refreshes && alerts == other.alerts &&
           mitigationEvents == other.mitigationEvents &&
           mitigatedRows == other.mitigatedRows &&
           maxCounterSeen == other.maxCounterSeen;
}

TraceWriter::TraceWriter(TraceHeader header)
{
    data_.header = std::move(header);
    data_.channels.resize(data_.header.channels);
}

void
TraceWriter::append(std::uint32_t channel, const TraceRecord &record)
{
    data_.channels.at(channel).records.push_back(record);
}

void
TraceWriter::setChannelStats(std::uint32_t channel,
                             const TraceChannelStats &stats)
{
    data_.channels.at(channel).stats = stats;
}

void
TraceWriter::writeFile(const std::string &path) const
{
    const std::string image = serializeTrace(data_);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot open trace file for writing: " +
                                 path);
    out.write(image.data(),
              static_cast<std::streamsize>(image.size()));
    out.close();
    if (!out.good())
        throw std::runtime_error("I/O error writing trace file: " +
                                 path);
}

std::string
serializeTrace(const TraceData &data)
{
    const TraceHeader &header = data.header;
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    putVarint(out, kTraceVersion);

    putString(out, header.workload);
    putString(out, header.spec);
    putString(out, header.mitigation);
    putVarint(out, header.ranks);
    putVarint(out, header.bankGroups);
    putVarint(out, header.banksPerGroup);
    putVarint(out, header.rowsPerBank);
    putVarint(out, header.colsPerRow);
    putVarint(out, header.nbo);
    putVarint(out, header.nmit);
    putVarint(out, header.channels);
    putVarint(out, header.granularityBytes);
    out.push_back(header.xorFold ? 1 : 0);
    out.push_back(static_cast<char>(header.mapping));
    putVarint(out, header.queueCapacity);
    putVarint(out, header.frfcfsCap);
    out.push_back(header.refreshEnabled ? 1 : 0);
    out.push_back(static_cast<char>(header.pracQueue));
    putVarint(out, header.fifoThreshold);
    out.push_back(header.counterResetAtTrefw ? 1 : 0);
    putVarint(out, header.trefPeriodRefs);
    putDouble(out, header.randomRfmPerTrefi);
    putVarint(out, header.obfuscationSeed);
    putVarint(out, header.endCycle);

    putVarint(out, data.channels.size());
    for (const ChannelTrace &channel : data.channels) {
        putStats(out, channel.stats);
        putVarint(out, channel.records.size());
        Cycle previous = 0;
        for (const TraceRecord &record : channel.records) {
            // Enqueue order is cycle-monotonic per channel, so the
            // delta is non-negative and usually fits one byte.
            putVarint(out, record.cycle - previous);
            previous = record.cycle;
            out.push_back(record.type == ReqType::Write ? 1 : 0);
            putVarint(out, record.coreId);
            putVarint(out, record.addr);
        }
    }
    return out;
}

TraceData
TraceReader::parse(const std::string &bytes)
{
    if (bytes.size() < sizeof(kMagic) ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        throw std::runtime_error(
            "not a pracleak trace file (bad magic)");

    Cursor in{bytes, sizeof(kMagic)};
    const std::uint64_t version = in.varint("version");
    if (version != kTraceVersion)
        throw std::runtime_error(
            "unsupported trace version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(kTraceVersion) + "; re-record the trace)");

    TraceData data;
    TraceHeader &header = data.header;
    header.workload = in.str("workload");
    header.spec = in.str("spec");
    header.mitigation = in.str("mitigation");
    header.ranks = static_cast<std::uint32_t>(in.varint("ranks"));
    header.bankGroups =
        static_cast<std::uint32_t>(in.varint("bank_groups"));
    header.banksPerGroup =
        static_cast<std::uint32_t>(in.varint("banks_per_group"));
    header.rowsPerBank =
        static_cast<std::uint32_t>(in.varint("rows_per_bank"));
    header.colsPerRow =
        static_cast<std::uint32_t>(in.varint("cols_per_row"));
    header.nbo = static_cast<std::uint32_t>(in.varint("nbo"));
    header.nmit = static_cast<std::uint32_t>(in.varint("nmit"));
    header.channels = in.knob("channels", 1, kMaxPowerOfTwo, true);
    header.granularityBytes =
        in.knob("granularity", kLineBytes, kMaxPowerOfTwo, true);
    header.xorFold = in.u8("xor_fold") != 0;
    header.mapping = in.u8("mapping");
    header.queueCapacity =
        in.knob("queue_capacity", 1, kMaxQueueCapacity, false);
    header.frfcfsCap =
        static_cast<std::uint32_t>(in.varint("frfcfs_cap"));
    header.refreshEnabled = in.u8("refresh_enabled") != 0;
    header.pracQueue = in.u8("prac_queue");
    header.fifoThreshold =
        static_cast<std::uint32_t>(in.varint("fifo_threshold"));
    header.counterResetAtTrefw = in.u8("counter_reset") != 0;
    header.trefPeriodRefs =
        static_cast<std::uint32_t>(in.varint("tref_period"));
    header.randomRfmPerTrefi = in.f64("random_rfm_per_trefi");
    header.obfuscationSeed = in.varint("obfuscation_seed");
    header.endCycle = in.varint("end_cycle");

    const std::uint64_t channels = in.varint("channel_count");
    if (channels != header.channels)
        throw std::runtime_error(
            "corrupt trace file: header declares " +
            std::to_string(header.channels) +
            " channels but the body carries " +
            std::to_string(channels));
    // Every channel needs at least its 15 stats varints plus a
    // record count; a larger claim cannot fit the remaining bytes.
    if (channels > (bytes.size() - in.pos) / 16 + 1)
        throw std::runtime_error(
            "corrupt trace file: channel count " +
            std::to_string(channels) +
            " exceeds the remaining data");
    data.channels.resize(channels);
    for (ChannelTrace &channel : data.channels) {
        channel.stats = readStats(in);
        const std::uint64_t count = in.varint("record_count");
        // A record is at least 4 bytes (cycle delta, type, core,
        // addr); bound the claim before reserving, so one corrupt
        // continuation bit reports cleanly instead of allocating.
        if (count > (bytes.size() - in.pos) / 4)
            throw std::runtime_error(
                "corrupt trace file: record count " +
                std::to_string(count) + " exceeds the remaining " +
                std::to_string(bytes.size() - in.pos) + " bytes");
        channel.records.reserve(count);
        Cycle cycle = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            TraceRecord record;
            cycle += in.varint("record.cycle_delta");
            record.cycle = cycle;
            record.type = in.u8("record.type") != 0 ? ReqType::Write
                                                    : ReqType::Read;
            record.coreId =
                static_cast<std::uint32_t>(in.varint("record.core"));
            record.addr = in.varint("record.addr");
            channel.records.push_back(record);
        }
    }
    if (in.pos != bytes.size())
        throw std::runtime_error(
            "corrupt trace file: " +
            std::to_string(bytes.size() - in.pos) +
            " trailing bytes after the last channel stream");
    return data;
}

TraceReader::TraceReader(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open trace file: " + path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (!in.good() && !in.eof())
        throw std::runtime_error("I/O error reading trace file: " +
                                 path);
    data_ = parse(bytes);
}

} // namespace pracleak::trace
