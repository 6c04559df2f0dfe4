/**
 * @file
 * Trace record/replay subsystem tests: binary-format round trips and
 * rejection of malformed files, the spec-variant registry, the
 * bit-identity fidelity contract (replaying a trace under the
 * recorded defense must reproduce the recorded controller/mitigation
 * stats exactly, for every registered defense and across channel
 * counts and spec variants), and replay determinism under a
 * saturated thread pool.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/design.h"
#include "sim/thread_pool.h"
#include "sim/trace_support.h"
#include "trace/recorder.h"
#include "trace/replay.h"
#include "trace/trace.h"

namespace pracleak {
namespace {

using sim::DesignConfig;
using sim::RecordedRun;
using sim::RunBudget;
using trace::ChannelTrace;
using trace::TraceChannelStats;
using trace::TraceData;
using trace::TraceHeader;
using trace::TraceReader;
using trace::TraceRecord;
using trace::TraceWriter;

TraceHeader
sampleHeader(std::uint32_t channels)
{
    TraceHeader header;
    header.workload = "unit";
    header.spec = "ddr5-8000b";
    header.mitigation = "none";
    const DramSpec spec = DramSpec::ddr5_8000b();
    header.ranks = spec.org.ranks;
    header.bankGroups = spec.org.bankGroups;
    header.banksPerGroup = spec.org.banksPerGroup;
    header.rowsPerBank = spec.org.rowsPerBank;
    header.colsPerRow = spec.org.colsPerRow;
    header.nbo = 512;
    header.nmit = 1;
    header.channels = channels;
    header.endCycle = 123'456;
    return header;
}

void
expectEqual(const TraceData &a, const TraceData &b)
{
    const TraceHeader &ha = a.header;
    const TraceHeader &hb = b.header;
    EXPECT_EQ(ha.workload, hb.workload);
    EXPECT_EQ(ha.spec, hb.spec);
    EXPECT_EQ(ha.mitigation, hb.mitigation);
    EXPECT_EQ(ha.ranks, hb.ranks);
    EXPECT_EQ(ha.bankGroups, hb.bankGroups);
    EXPECT_EQ(ha.banksPerGroup, hb.banksPerGroup);
    EXPECT_EQ(ha.rowsPerBank, hb.rowsPerBank);
    EXPECT_EQ(ha.colsPerRow, hb.colsPerRow);
    EXPECT_EQ(ha.nbo, hb.nbo);
    EXPECT_EQ(ha.nmit, hb.nmit);
    EXPECT_EQ(ha.channels, hb.channels);
    EXPECT_EQ(ha.granularityBytes, hb.granularityBytes);
    EXPECT_EQ(ha.xorFold, hb.xorFold);
    EXPECT_EQ(ha.mapping, hb.mapping);
    EXPECT_EQ(ha.queueCapacity, hb.queueCapacity);
    EXPECT_EQ(ha.frfcfsCap, hb.frfcfsCap);
    EXPECT_EQ(ha.refreshEnabled, hb.refreshEnabled);
    EXPECT_EQ(ha.pracQueue, hb.pracQueue);
    EXPECT_EQ(ha.fifoThreshold, hb.fifoThreshold);
    EXPECT_EQ(ha.counterResetAtTrefw, hb.counterResetAtTrefw);
    EXPECT_EQ(ha.trefPeriodRefs, hb.trefPeriodRefs);
    EXPECT_EQ(ha.randomRfmPerTrefi, hb.randomRfmPerTrefi);
    EXPECT_EQ(ha.obfuscationSeed, hb.obfuscationSeed);
    EXPECT_EQ(ha.endCycle, hb.endCycle);

    ASSERT_EQ(a.channels.size(), b.channels.size());
    for (std::size_t c = 0; c < a.channels.size(); ++c) {
        EXPECT_TRUE(a.channels[c].stats == b.channels[c].stats)
            << "channel " << c;
        ASSERT_EQ(a.channels[c].records.size(),
                  b.channels[c].records.size())
            << "channel " << c;
        for (std::size_t i = 0; i < a.channels[c].records.size();
             ++i)
            EXPECT_TRUE(a.channels[c].records[i] ==
                        b.channels[c].records[i])
                << "channel " << c << " record " << i;
    }
}

// --- format round trips --------------------------------------------

TEST(TraceFormat, RoundTripEmpty)
{
    TraceData data;
    data.header = sampleHeader(1);
    data.channels.resize(1);
    expectEqual(data,
                TraceReader::parse(trace::serializeTrace(data)));
}

TEST(TraceFormat, RoundTripSingleRequest)
{
    TraceWriter writer(sampleHeader(1));
    writer.append(0, TraceRecord{42, ReqType::Write, 0xDEAD'BEEF'00ULL,
                                 3});
    TraceChannelStats stats;
    stats.requests = 1;
    stats.acts = 7;
    stats.rfms[2] = 5;
    stats.maxCounterSeen = 99;
    writer.setChannelStats(0, stats);
    expectEqual(
        writer.data(),
        TraceReader::parse(trace::serializeTrace(writer.data())));
}

TEST(TraceFormat, RoundTripMultiChannel)
{
    TraceWriter writer(sampleHeader(4));
    // Uneven streams, large cycle gaps and addresses, all request
    // flavours -- every varint width gets exercised.
    for (std::uint32_t c = 0; c < 4; ++c) {
        Cycle cycle = c;
        for (std::uint32_t i = 0; i < 97 + 13 * c; ++i) {
            cycle += (i * 2654435761u) % 100'000;
            writer.append(
                c, TraceRecord{cycle,
                               i % 3 == 0 ? ReqType::Write
                                          : ReqType::Read,
                               (static_cast<Addr>(i) << 33) ^ c,
                               i % 4});
        }
        TraceChannelStats stats;
        stats.requests = 97 + 13 * c;
        stats.alerts = c * 1'000'000'007ULL;
        writer.setChannelStats(c, stats);
    }
    writer.setEndCycle(1ULL << 40);
    expectEqual(
        writer.data(),
        TraceReader::parse(trace::serializeTrace(writer.data())));
}

TEST(TraceFormat, FileRoundTripAndMissingFile)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "pracleak_trace_unit.trc")
            .string();
    TraceWriter writer(sampleHeader(2));
    writer.append(0, TraceRecord{1, ReqType::Read, 64, 0});
    writer.append(1, TraceRecord{2, ReqType::Write, 128, 1});
    writer.writeFile(path);
    const TraceReader reader(path);
    expectEqual(writer.data(), reader.data());
    std::remove(path.c_str());

    EXPECT_THROW(TraceReader("/nonexistent/dir/nope.trc"),
                 std::runtime_error);
}

// --- malformed input -----------------------------------------------

TEST(TraceFormat, RejectsBadMagic)
{
    std::string image = trace::serializeTrace(
        TraceData{sampleHeader(1), {ChannelTrace{}}});
    image[0] = 'X';
    try {
        TraceReader::parse(image);
        FAIL() << "bad magic accepted";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("magic"),
                  std::string::npos);
    }
}

TEST(TraceFormat, RejectsVersionMismatch)
{
    std::string image = trace::serializeTrace(
        TraceData{sampleHeader(1), {ChannelTrace{}}});
    // The version varint sits directly after the 8-byte magic.
    image[8] = static_cast<char>(trace::kTraceVersion + 1);
    try {
        TraceReader::parse(image);
        FAIL() << "future version accepted";
    } catch (const std::runtime_error &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("version"), std::string::npos) << what;
        EXPECT_NE(what.find("re-record"), std::string::npos) << what;
    }
}

TEST(TraceFormat, RejectsTruncation)
{
    TraceWriter writer(sampleHeader(2));
    for (std::uint32_t i = 0; i < 50; ++i)
        writer.append(i % 2, TraceRecord{i * 10, ReqType::Read,
                                         i * 4096ULL, i % 4});
    const std::string image = trace::serializeTrace(writer.data());

    // Every proper prefix must be rejected, never crash or succeed.
    for (std::size_t cut = 0; cut < image.size(); cut += 7)
        EXPECT_THROW(TraceReader::parse(image.substr(0, cut)),
                     std::runtime_error)
            << "prefix of " << cut << " bytes accepted";
    EXPECT_NO_THROW(TraceReader::parse(image));
}

TEST(TraceFormat, RejectsTrailingGarbage)
{
    std::string image = trace::serializeTrace(
        TraceData{sampleHeader(1), {ChannelTrace{}}});
    image += "extra";
    try {
        TraceReader::parse(image);
        FAIL() << "trailing bytes accepted";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("trailing"),
                  std::string::npos);
    }
}

/**
 * Header knobs the controller and address mapper would refuse are
 * rejected by the parser, at their byte offset: a non-power-of-two
 * channel count or interleave granularity (the mapper exits the
 * process on those at replay), a granularity below one line, and a
 * queue capacity outside [1, 4096] (zero builds a controller that
 * accepts nothing; the bound caps the replay request pool).
 */
TEST(TraceFormat, RejectsUnusableHeaderKnobs)
{
    struct Case
    {
        const char *field;
        void (*corrupt)(TraceHeader &);
    };
    const Case cases[] = {
        {"channels", [](TraceHeader &h) { h.channels = 3; }},
        {"granularity", [](TraceHeader &h) { h.granularityBytes = 96; }},
        {"granularity", [](TraceHeader &h) { h.granularityBytes = 32; }},
        {"queue_capacity", [](TraceHeader &h) { h.queueCapacity = 0; }},
        {"queue_capacity",
         [](TraceHeader &h) { h.queueCapacity = 4097; }},
    };
    for (const Case &c : cases) {
        TraceData data{sampleHeader(1), {}};
        c.corrupt(data.header);
        data.channels.resize(data.header.channels);
        try {
            TraceReader::parse(trace::serializeTrace(data));
            FAIL() << c.field << " accepted";
        } catch (const std::runtime_error &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find(c.field), std::string::npos) << what;
            EXPECT_NE(what.find("at byte"), std::string::npos) << what;
        }
    }

    // The limits themselves are legal.
    for (const std::uint32_t capacity : {1u, 4096u}) {
        TraceData data{sampleHeader(2), {}};
        data.header.queueCapacity = capacity;
        data.header.granularityBytes = kLineBytes;
        data.channels.resize(2);
        EXPECT_NO_THROW(TraceReader::parse(trace::serializeTrace(data)))
            << capacity;
    }
}

// --- spec registry -------------------------------------------------

TEST(SpecRegistry, NamesAndLookup)
{
    const std::vector<std::string> &names = specNames();
    ASSERT_GE(names.size(), 5u);
    EXPECT_EQ(names.front(), "ddr5-8000b");
    for (const std::string &name : names)
        EXPECT_NO_THROW(specByName(name)) << name;
    EXPECT_THROW(specByName("ddr4-3200"), std::invalid_argument);

    const DramSpec one_rank = specByName("ddr5-4800-1r");
    const DramSpec two_rank = specByName("ddr5-4800-2r");
    EXPECT_EQ(one_rank.org.ranks, 1u);
    EXPECT_EQ(two_rank.org.ranks, 2u);
    EXPECT_LT(one_rank.org.rowsPerBank,
              DramSpec::ddr5_8000b().org.rowsPerBank);
}

TEST(SpecRegistry, GeometryMismatchRejected)
{
    TraceHeader header = sampleHeader(1);
    header.ranks = 3; // no registered spec has 3 ranks
    try {
        trace::specFromHeader(header);
        FAIL() << "geometry mismatch accepted";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what()).find("geometry"),
                  std::string::npos);
    }
}

// --- replay fidelity -----------------------------------------------

RecordedRun
recordEntry(const std::string &defense, std::uint32_t channels = 1,
            const std::string &spec = "")
{
    DesignConfig design;
    design.label = defense;
    design.mitigation = defense;
    design.spec = spec;
    design.nbo = 512;
    design.channels = channels;
    RunBudget budget;
    budget.warmup = 5'000;
    budget.measure = 20'000;
    return sim::recordSuiteRun(sim::findSuiteEntry("h_rand_heavy"),
                               design, budget);
}

/**
 * The fidelity contract of the subsystem: for every registered
 * bake-off defense, replaying the trace under the recorded defense
 * reproduces the recorded run's cumulative controller/mitigation
 * stats bit-identically.
 */
TEST(Golden, TraceReplayBitIdentical)
{
    const char *defenses[] = {"none",  "abo-only", "abo+acb-rfm",
                              "tprac", "para",     "graphene",
                              "pb-rfm"};
    for (const char *defense : defenses) {
        const RecordedRun recorded = recordEntry(defense);
        EXPECT_EQ(recorded.trace.header.mitigation, defense);
        const trace::ReplayResult replay =
            trace::replayTrace(recorded.trace);
        EXPECT_EQ(replay.mitigation, defense);
        EXPECT_TRUE(replay.fullyDrained) << defense;
        EXPECT_EQ(replay.endCycle, recorded.trace.header.endCycle)
            << defense;
        EXPECT_TRUE(replay.matchesRecorded(recorded.trace))
            << defense;
    }
}

TEST(Golden, TraceReplayBitIdenticalMultiChannel)
{
    const RecordedRun recorded = recordEntry("tprac", /*channels=*/2);
    ASSERT_EQ(recorded.trace.channels.size(), 2u);
    EXPECT_GT(recorded.trace.channels[1].records.size(), 0u);
    const trace::ReplayResult replay =
        trace::replayTrace(recorded.trace);
    EXPECT_TRUE(replay.matchesRecorded(recorded.trace));
}

TEST(Golden, TraceReplayBitIdenticalSpecVariant)
{
    const RecordedRun recorded =
        recordEntry("graphene", 1, "ddr5-4800-2r");
    EXPECT_EQ(recorded.trace.header.spec, "ddr5-4800-2r");
    EXPECT_EQ(recorded.trace.header.ranks, 2u);
    const trace::ReplayResult replay =
        trace::replayTrace(recorded.trace);
    EXPECT_TRUE(replay.matchesRecorded(recorded.trace));
}

TEST(TraceReplay, FastForwardInvariant)
{
    const RecordedRun recorded = recordEntry("tprac");
    trace::ReplayOptions slow;
    slow.fastForward = false;
    const trace::ReplayResult with_ff =
        trace::replayTrace(recorded.trace);
    const trace::ReplayResult without_ff =
        trace::replayTrace(recorded.trace, slow);
    ASSERT_EQ(with_ff.channels.size(), without_ff.channels.size());
    for (std::size_t c = 0; c < with_ff.channels.size(); ++c)
        EXPECT_TRUE(with_ff.channels[c] == without_ff.channels[c]);
}

/** Cross-defense replay reacts: the defense's own telemetry moves. */
TEST(TraceReplay, CrossDefenseReplayExercisesDefense)
{
    const RecordedRun recorded = recordEntry("none");
    trace::ReplayOptions options;
    options.mitigation = "para";
    const trace::ReplayResult para =
        trace::replayTrace(recorded.trace, options);
    EXPECT_GT(para.total().mitigationEvents, 0u);
    options.mitigation = "tprac";
    const trace::ReplayResult tprac =
        trace::replayTrace(recorded.trace, options);
    EXPECT_GT(
        tprac.total().rfms[static_cast<std::size_t>(
            RfmReason::TimingBased)],
        0u);
}

/**
 * Replay determinism under a saturated pool (the `--jobs 8` case):
 * eight concurrent replays of one trace must agree field-for-field.
 */
TEST(TraceReplay, DeterministicUnderEightJobs)
{
    const RecordedRun recorded = recordEntry("none");
    sim::ThreadPool pool(8);
    std::vector<std::function<trace::ReplayResult()>> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back([&recorded] {
            trace::ReplayOptions options;
            options.mitigation = "graphene";
            return trace::replayTrace(recorded.trace, options);
        });
    const std::vector<trace::ReplayResult> results =
        pool.map(std::move(jobs));
    for (std::size_t i = 1; i < results.size(); ++i) {
        ASSERT_EQ(results[i].channels.size(),
                  results[0].channels.size());
        EXPECT_EQ(results[i].endCycle, results[0].endCycle);
        EXPECT_EQ(results[i].replayedRequests,
                  results[0].replayedRequests);
        for (std::size_t c = 0; c < results[0].channels.size(); ++c)
            EXPECT_TRUE(results[i].channels[c] ==
                        results[0].channels[c])
                << "job " << i << " channel " << c;
    }
}

} // namespace
} // namespace pracleak
