/**
 * @file
 * Windowed command-bus time series and the offline leakage analyzer:
 * BusObserver window addressing and blocked-span spreading, the
 * bit-identical-series contract between the lockstep and event
 * schedulers, between serial and threaded replay, and across `--jobs`
 * widths, series round-tripping
 * through the analyzer's loader, synthetic-series verdicts, the
 * observe-only guarantee (`--series-out` never changes sweep rows),
 * the loader's handling of truncated and corrupted files, and the
 * VisibleBusModel spike thresholds the probes share.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/visible_bus.h"
#include "dram/dram_spec.h"
#include "lockstep.h"
#include "sim/analyze_support.h"
#include "sim/design.h"
#include "sim/json.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/trace_support.h"
#include "telemetry/timeseries.h"
#include "workload/suite.h"

namespace pracleak {
namespace {

/** disarm() even when an assertion aborts the test body. */
struct CaptureGuard
{
    explicit CaptureGuard(Cycle window_cycles = 0)
    {
        telemetry::SeriesCapture::arm(window_cycles);
    }
    ~CaptureGuard() { telemetry::SeriesCapture::disarm(); }
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

// ------------------------------------------------------- BusObserver

TEST(BusObserver, WindowAddressingIsSparseAndExact)
{
    const DramSpec spec = DramSpec::ddr5_8000b();

    telemetry::BusObserver by_default(spec);
    EXPECT_EQ(by_default.windowCycles(), spec.timing.tREFI)
        << "window width 0 must mean one tREFI";

    telemetry::BusObserver bus(spec, 100);
    Command act;
    act.type = CmdType::ACT;
    bus.onCommand(act, 0);
    bus.onCommand(act, 99);   // same window: boundary is exclusive
    bus.onCommand(act, 100);  // first cycle of window 1
    bus.onCommand(act, 100'000);

    ASSERT_EQ(bus.windows().size(), 3u)
        << "gap windows must never materialize";
    EXPECT_EQ(bus.windows()[0].index, 0u);
    EXPECT_EQ(bus.windows()[0].act, 2u);
    EXPECT_EQ(bus.windows()[1].index, 1u);
    EXPECT_EQ(bus.windows()[1].act, 1u);
    EXPECT_EQ(bus.windows()[2].index, 1000u);
    EXPECT_EQ(bus.windows()[2].act, 1u);

    // Queue-depth samples land in the issuing window and feed the
    // whole-run occupancy histogram.
    bus.onQueueDepth(3, 105);
    bus.onQueueDepth(7, 110);
    EXPECT_EQ(bus.windows()[1].qSamples, 2u);
    EXPECT_EQ(bus.windows()[1].qSum, 10u);
    EXPECT_EQ(bus.windows()[1].qMax, 7u);
    EXPECT_EQ(bus.queueOccupancy().count(), 2u);
}

TEST(BusObserver, BlockedSpanSpreadsExactlyAcrossWindows)
{
    const DramSpec spec = DramSpec::ddr5_8000b();

    // Each maintenance command is counted in its own field and
    // blocks the bus for its own spec duration: REFab for tRFC, RFMab
    // for tRFMab, RFMpb for tRFMpb.
    using Field = std::uint64_t telemetry::SeriesWindow::*;
    const std::tuple<CmdType, Cycle, Field> spans[] = {
        {CmdType::RFMab, spec.timing.tRFMab,
         &telemetry::SeriesWindow::rfmAb},
        {CmdType::REFab, spec.timing.tRFC, &telemetry::SeriesWindow::ref},
        {CmdType::RFMpb, spec.timing.tRFMpb,
         &telemetry::SeriesWindow::rfmPb},
    };
    for (const auto &[type, block, count] : spans) {
        SCOPED_TRACE(cmdName(type));
        telemetry::BusObserver bus(spec, 100);

        // Issued 5 cycles before a window boundary: the blocking span
        // must be split exactly, with no cycle lost or double-counted,
        // across every window it overlaps.
        Command command;
        command.type = type;
        bus.onCommand(command, 95);
        ASSERT_GT(block, 100u) << "test assumes a multi-window span";

        Cycle total = 0;
        for (const telemetry::SeriesWindow &w : bus.windows())
            total += w.blocked;
        EXPECT_EQ(total, block);
        const telemetry::SeriesWindow &first = bus.windows().front();
        EXPECT_EQ(first.blocked, 5u);
        EXPECT_EQ(first.*count, 1u);
        EXPECT_EQ(first.ref + first.rfmAb + first.rfmPb, 1u);

        // Windows covered by the span are contiguous: the span itself
        // materializes them (a blocked window is not an empty window).
        const std::uint64_t last = (95 + block - 1) / 100;
        ASSERT_EQ(bus.windows().size(), last + 1);
        for (std::uint64_t i = 0; i + 1 < bus.windows().size(); ++i) {
            EXPECT_EQ(bus.windows()[i].index, i);
            if (i > 0 && i < last)
                EXPECT_EQ(bus.windows()[i].blocked, 100u)
                    << "interior window " << i
                    << " must be fully blocked";
        }
    }
}

TEST(BusObserver, RfmPbCountsPerFlatBank)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    telemetry::BusObserver bus(spec, 1000);

    Command rfm;
    rfm.type = CmdType::RFMpb;
    rfm.rank = 1;
    rfm.bankGroup = 2;
    rfm.bank = 3;
    bus.onCommand(rfm, 10);
    bus.onCommand(rfm, 20);
    rfm.rank = 0;
    bus.onCommand(rfm, 30);

    const std::uint32_t flat_r1 = spec.org.flatBank(
        1, 2 * spec.org.banksPerGroup + 3);
    const std::uint32_t flat_r0 = spec.org.flatBank(
        0, 2 * spec.org.banksPerGroup + 3);
    ASSERT_EQ(bus.windows().size(), 1u);
    const telemetry::SeriesWindow &w = bus.windows().front();
    EXPECT_EQ(w.rfmPb, 3u);
    ASSERT_EQ(w.rfmPbBanks.size(), 2u);
    EXPECT_EQ(w.rfmPbBanks.at(flat_r1), 2u);
    EXPECT_EQ(w.rfmPbBanks.at(flat_r0), 1u);
}

// ---------------------------------------------------- VisibleBusModel

TEST(VisibleBus, ThresholdsDeriveFromSpecTiming)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    const VisibleBusModel model = VisibleBusModel::fromSpec(spec);

    EXPECT_EQ(model.alertServiceCycles(),
              spec.timing.tRFMab * spec.prac.nmit);
    EXPECT_EQ(model.rfmSpikeThreshold(),
              model.alertServiceCycles() - nsToCycles(100));
    EXPECT_EQ(VisibleBusModel::probeSpikeThreshold(), nsToCycles(300));
}

// ----------------------------------------------------- SeriesCapture

/** Run one small full-system sim under the armed capture. */
std::string
renderCapturedRun(const std::string &defense, bool event_clock)
{
    CaptureGuard guard;
    telemetry::SeriesCapture::setLabel("sched/" + defense);
    sim::DesignConfig design;
    design.label = "timeseries";
    design.mitigation = defense;
    design.channels = 2;
    sim::RunBudget budget;
    budget.warmup = 2'000;
    budget.measure = 20'000;
    const SuiteEntry &entry = sim::findSuiteEntry("m_blend");
    if (event_clock)
        sim::runOne(entry, design, budget, 4);
    else
        lockstep::runOne(entry, design, budget, 4);
    return telemetry::SeriesCapture::renderAll(false);
}

/**
 * Golden: the series a lockstep run records must be byte-identical
 * to the event-driven run's -- the hooks fire from ticked cycles
 * only, and the ticked cycles are the same.  tprac and pb-rfm cover
 * both RFM flavours (channel-wide bursts and per-bank streams).
 */
TEST(SeriesCapture, LockstepAndEventSchedulersByteIdentical)
{
    for (const std::string defense : {"tprac", "pb-rfm"}) {
        SCOPED_TRACE(defense);
        const std::string lockstep = renderCapturedRun(defense, false);
        const std::string event = renderCapturedRun(defense, true);
        ASSERT_FALSE(lockstep.empty());
        EXPECT_NE(lockstep.find("\"kind\": \"header\""),
                  std::string::npos);
        EXPECT_NE(lockstep.find("\"channels\": 2"),
                  std::string::npos);
        EXPECT_EQ(lockstep, event);
    }
}

/** Replay @p trace under @p defense with the capture armed. */
std::string
renderCapturedReplay(const trace::TraceData &trace,
                     const std::string &defense, bool threaded)
{
    CaptureGuard guard;
    telemetry::SeriesCapture::setLabel("replay/" + defense);
    if (threaded) {
        trace::ReplayOptions options;
        options.mitigation = defense;
        trace::replayTrace(trace, options);
    } else {
        lockstep::replayTrace(trace, defense);
    }
    return telemetry::SeriesCapture::renderAll(false);
}

/**
 * Golden: replayTrace runs a multi-channel trace's channels on
 * several threads, yet its series must be byte-identical to the
 * serial per-cycle replay's.  That holds only if every channel keeps
 * its own observer and the observers attach in channel order on the
 * calling thread, which joins all eight to one record.
 */
TEST(SeriesCapture, SerialAndThreadedReplaysByteIdentical)
{
    sim::DesignConfig design;
    design.label = "timeseries";
    design.mitigation = "none";
    design.channels = 8;
    sim::RunBudget budget;
    budget.warmup = 2'000;
    budget.measure = 20'000;
    const sim::RecordedRun recorded = sim::recordSuiteRun(
        sim::findSuiteEntry("h_scan_mix"), design, budget);

    for (const std::string defense : {"tprac", "pb-rfm"}) {
        SCOPED_TRACE(defense);
        const std::string serial =
            renderCapturedReplay(recorded.trace, defense, false);
        const std::string threaded =
            renderCapturedReplay(recorded.trace, defense, true);
        EXPECT_NE(serial.find("\"channels\": 8"), std::string::npos);
        EXPECT_EQ(serial, threaded);
    }
}

TEST(SeriesCapture, RoundTripsThroughTheAnalyzerLoader)
{
    const std::string path = tempPath("roundtrip_series.jsonl");
    {
        CaptureGuard guard;
        telemetry::SeriesCapture::setLabel("roundtrip");
        sim::DesignConfig design;
        design.label = "timeseries";
        design.mitigation = "tprac";
        design.channels = 2;
        sim::RunBudget budget;
        budget.warmup = 2'000;
        budget.measure = 20'000;
        sim::runOne(sim::findSuiteEntry("h_scan_mix"), design, budget,
                    4);
        EXPECT_EQ(telemetry::SeriesCapture::recordCount(), 1u)
            << "one multi-channel system is one record";
        ASSERT_TRUE(telemetry::SeriesCapture::writeAll(path));
    }

    std::string error;
    const std::vector<sim::SeriesSim> sims =
        sim::loadSeriesFile(path, &error);
    EXPECT_EQ(error, "");
    ASSERT_EQ(sims.size(), 1u);
    EXPECT_EQ(sims[0].label, "roundtrip");
    EXPECT_EQ(sims[0].mitigation, "tprac");
    EXPECT_EQ(sims[0].channels, 2u);
    EXPECT_EQ(sims[0].windowCycles,
              DramSpec::ddr5_8000b().timing.tREFI);
    EXPECT_FALSE(sims[0].windows.empty());

    // The analyzer must accept what the capture wrote; a saturating
    // multi-core workload has no ON/OFF structure, so nothing leaks.
    const sim::LeakVerdict verdict = sim::analyzeSeries(sims[0]);
    EXPECT_EQ(verdict.windows, sims[0].windows.size());

    std::remove(path.c_str());
}

TEST(SeriesCapture, CsvRenderingEscapesAndFlattens)
{
    const DramSpec spec = DramSpec::ddr5_8000b();
    CaptureGuard guard;
    telemetry::SeriesCapture::setLabel("odd \"label\"");
    telemetry::BusObserver *bus =
        telemetry::SeriesCapture::attach(spec, 0, "none");
    ASSERT_NE(bus, nullptr);
    Command act;
    act.type = CmdType::ACT;
    bus->onCommand(act, 1);

    const std::string csv = telemetry::SeriesCapture::renderAll(true);
    EXPECT_NE(csv.find("\"odd \"\"label\"\"\",none,0,0,1,"),
              std::string::npos)
        << csv;
}

// ------------------------------------------------ analyzer verdicts

sim::SeriesSim
syntheticSim(const std::string &mitigation)
{
    sim::SeriesSim series;
    series.label = "synthetic/" + mitigation;
    series.mitigation = mitigation;
    series.windowCycles = 100;
    series.channels = 1;
    // ON: cycles [0,1000) and [2000,3000) -> window indices 0-9 and
    // 20-29 (midpoint rule: index*100 + 50).
    series.onWindows = {{0, 1000}, {2000, 3000}};
    return series;
}

sim::SeriesSim::Window
windowAt(std::uint64_t index)
{
    sim::SeriesSim::Window window;
    window.index = index;
    return window;
}

TEST(Analyze, ChannelWideSignalCorrelatedWithOnPhasesLeaks)
{
    sim::SeriesSim series = syntheticSim("abo-only");
    for (std::uint64_t i = 0; i < 30; ++i) {
        sim::SeriesSim::Window w = windowAt(i);
        w.act = 50;
        if (i < 10 || i >= 20)
            w.rfmAb = 2; // alerts track the hammer bursts
        series.windows.push_back(w);
    }
    const sim::LeakVerdict verdict = sim::analyzeSeries(series);
    EXPECT_EQ(verdict.channel.on, 40u);
    EXPECT_EQ(verdict.channel.off, 0u);
    EXPECT_TRUE(verdict.leakChannel);
    EXPECT_FALSE(verdict.leakSameBank);
    EXPECT_EQ(verdict.observableTo(), "any probe");
    EXPECT_EQ(verdict.bursts, 2u)
        << "two ON phases separated by an index gap are two bursts";
}

TEST(Analyze, VictimBankRfmPbLeaksToSameBankProbeOnly)
{
    sim::SeriesSim series = syntheticSim("pb-rfm");
    series.victimBank = 7;
    for (std::uint64_t i = 0; i < 30; ++i) {
        sim::SeriesSim::Window w = windowAt(i);
        if (i < 10 || i >= 20) {
            w.rfmPb = 3;
            w.rfmPbBanks[7] = 2;  // victim's bank: the signal
            w.rfmPbBanks[12] = 1; // bystander bank: ignored
        }
        series.windows.push_back(w);
    }
    const sim::LeakVerdict verdict = sim::analyzeSeries(series);
    EXPECT_FALSE(verdict.leakChannel);
    EXPECT_TRUE(verdict.leakSameBank);
    EXPECT_EQ(verdict.sameBank.on, 40u);
    EXPECT_EQ(verdict.observableTo(), "same-bank probe");
}

TEST(Analyze, PeriodicSignalDoesNotLeak)
{
    // tb-rfm-style periodic emission: the same RFM rate in ON and
    // OFF phases carries no information about the victim.
    sim::SeriesSim series = syntheticSim("tprac");
    for (std::uint64_t i = 0; i < 30; ++i) {
        sim::SeriesSim::Window w = windowAt(i);
        w.rfmAb = 1;
        series.windows.push_back(w);
    }
    const sim::LeakVerdict verdict = sim::analyzeSeries(series);
    EXPECT_EQ(verdict.channel.on, 20u);
    EXPECT_EQ(verdict.channel.off, 10u);
    EXPECT_FALSE(verdict.leaked());
    EXPECT_EQ(verdict.observableTo(), "none");
    EXPECT_EQ(verdict.bursts, 1u) << "one uninterrupted run";
}

TEST(Analyze, ActFallbackClassifiesOnWindowsWithoutGroundTruth)
{
    // No header on_windows: windows with more than half the peak ACT
    // count are ON.  RFMs concentrated there must still be caught.
    sim::SeriesSim series;
    series.label = "fallback";
    series.mitigation = "graphene";
    series.windowCycles = 100;
    for (std::uint64_t i = 0; i < 20; ++i) {
        sim::SeriesSim::Window w = windowAt(i);
        const bool hammering = i % 2 == 0;
        w.act = hammering ? 40 : 5;
        w.rfmAb = hammering ? 2 : 0;
        series.windows.push_back(w);
    }
    const sim::LeakVerdict verdict = sim::analyzeSeries(series);
    EXPECT_TRUE(verdict.leakChannel);
    EXPECT_EQ(verdict.channel.on, 20u);
    EXPECT_EQ(verdict.channel.off, 0u);
}

// ----------------------------------------- sweep-level invariants

std::string
rowsDump(const sim::SweepResult &result)
{
    std::string out;
    for (const sim::ResultRow &row : result.rows)
        out += row.dump() + "\n";
    out += "--\n";
    for (const sim::ResultRow &row : result.summary)
        out += row.dump() + "\n";
    return out;
}

sim::RunOptions
timelineOptions()
{
    sim::RunOptions options;
    options.progress = false;
    options.jobs = 1;
    options.overrides["mitigation"] = {sim::JsonValue("abo-only"),
                                       sim::JsonValue("para")};
    options.overrides["window_ms"] = {sim::JsonValue(0.05)};
    options.overrides["bursts"] = {
        sim::JsonValue(std::int64_t{2})};
    return options;
}

/**
 * Golden: the series file a sweep writes is byte-identical across
 * `--jobs` widths (records are sorted by label, not arrival), and
 * the sweep rows themselves are byte-identical with and without
 * `--series-out` -- the observer observes, it never perturbs.
 */
TEST(SeriesCapture, SweepSeriesInvariantAcrossJobsAndObserveOnly)
{
    sim::registerBuiltinScenarios();

    const std::string path1 = tempPath("series_jobs1.jsonl");
    const std::string path2 = tempPath("series_jobs2.jsonl");

    sim::RunOptions options = timelineOptions();
    options.telemetry.seriesOut = path1;
    const sim::SweepResult with_series =
        sim::runScenarioByName("leakage_timeline", options);

    options.jobs = 2;
    options.telemetry.seriesOut = path2;
    const sim::SweepResult wide =
        sim::runScenarioByName("leakage_timeline", options);

    const std::string series1 = slurp(path1);
    const std::string series2 = slurp(path2);
    ASSERT_FALSE(series1.empty());
    EXPECT_EQ(series1, series2)
        << "series output must not depend on --jobs";
    EXPECT_EQ(rowsDump(with_series), rowsDump(wide));

    sim::RunOptions plain = timelineOptions();
    const sim::SweepResult without_series =
        sim::runScenarioByName("leakage_timeline", plain);
    EXPECT_EQ(rowsDump(with_series), rowsDump(without_series))
        << "--series-out must never change sweep rows";

    // The scenario stamped ground truth into the header, so the
    // offline analyzer reaches the same verdicts from the file
    // alone: abo-only leaks channel-wide, para does not leak.
    std::string error;
    const std::vector<sim::SeriesSim> sims =
        sim::loadSeriesFile(path1, &error);
    EXPECT_EQ(error, "");
    ASSERT_GE(sims.size(), 2u);
    bool saw_abo = false, saw_para = false;
    for (const sim::SeriesSim &series : sims) {
        const sim::LeakVerdict verdict = sim::analyzeSeries(series);
        if (series.mitigation == "abo-only") {
            saw_abo = true;
            EXPECT_EQ(verdict.observableTo(), "any probe")
                << series.label;
        } else if (series.mitigation == "para") {
            saw_para = true;
            EXPECT_EQ(verdict.observableTo(), "none") << series.label;
        }
    }
    EXPECT_TRUE(saw_abo);
    EXPECT_TRUE(saw_para);

    std::remove(path1.c_str());
    std::remove(path2.c_str());
}

// ------------------------------------------------------ series loader

/** Load @p text through a file named @p name (one per test). */
std::vector<sim::SeriesSim>
loadSeriesText(const std::string &name, const std::string &text,
               std::string *error)
{
    const std::string path = tempPath(name);
    std::ofstream(path, std::ios::binary) << text;
    std::vector<sim::SeriesSim> sims = sim::loadSeriesFile(path, error);
    std::remove(path.c_str());
    return sims;
}

/**
 * A count the loader cannot read is a `path:line:` error like an
 * unknown record kind: a text or over-long rfm_pb_banks key used to
 * escape std::stoul and end `pracbench analyze` in std::terminate,
 * and a negative or text count used to wrap.
 */
TEST(SeriesLoader, MalformedCountsAreLineErrors)
{
    const std::string header =
        R"({"kind": "header", "window_cycles": 100, "channels": 1})"
        "\n";
    const std::pair<std::string, std::string> cases[] = {
        {header + R"({"kind": "window", "w": 1, "rfm_pb_banks": {"x": 1}})",
         ":2: 'rfm_pb_banks' key 'x'"},
        {header + R"({"kind": "window", "w": 1, )"
                  R"("rfm_pb_banks": {"99999999999999999999": 1}})",
         ":2: 'rfm_pb_banks' key '99999999999999999999'"},
        {header + R"({"kind": "window", "w": 1, "rfm_pb_banks": {"3": -1}})",
         ":2: 'rfm_pb_banks' is not a non-negative integer"},
        {header + R"({"kind": "window", "w": 1, "act": "x"})",
         ":2: 'act' is not"},
        {header + R"({"kind": "window", "w": -2})", ":2: 'w' is not"},
        {R"({"kind": "header", "window_cycles": -5})",
         ":1: 'window_cycles' is not"},
        {R"({"kind": "header", "window_cycles": 100, )"
         R"("on_windows": [[-1, 5]]})",
         ":1: 'on_windows' is not"},
        {R"({"kind": "header", "window_cycles": 100, "victim_bank": "x"})",
         ":1: 'victim_bank' is not"},
    };
    for (const auto &[text, expected] : cases) {
        std::string error;
        EXPECT_NO_THROW(
            loadSeriesText("series_malformed.jsonl", text, &error))
            << text;
        EXPECT_NE(error.find(expected), std::string::npos)
            << text << " -> " << error;
    }
}

/**
 * Every truncation and every single-field corruption of a real
 * `--series-out` file either loads or is reported as an error; the
 * loader never throws.
 */
TEST(SeriesLoader, TruncationsAndCorruptionsNeverThrow)
{
    sim::registerBuiltinScenarios();
    const std::string source = tempPath("series_walk_source.jsonl");
    sim::RunOptions options;
    options.progress = false;
    options.jobs = 1;
    options.overrides["mitigation"] = {sim::JsonValue("graphene")};
    options.overrides["window_ms"] = {sim::JsonValue(0.05)};
    options.overrides["bursts"] = {sim::JsonValue(std::int64_t{1})};
    options.telemetry.seriesOut = source;
    sim::runScenarioByName("leakage_timeline", options);
    const std::string image = slurp(source);
    std::remove(source.c_str());
    ASSERT_NE(image.find("\"rfm_pb_banks\""), std::string::npos);
    ASSERT_NE(image.find("\"on_windows\""), std::string::npos);

    const auto loads = [](const std::string &text, const std::string &what) {
        std::string error;
        EXPECT_NO_THROW(loadSeriesText("series_walk.jsonl", text, &error))
            << what;
        return error.empty();
    };
    EXPECT_TRUE(loads(image, "the whole file"));
    for (std::size_t cut = 0; cut < image.size(); cut += 7)
        loads(image.substr(0, cut),
              "prefix of " + std::to_string(cut) + " bytes");

    std::vector<std::string> lines;
    std::istringstream in(image);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    const sim::JsonValue corruptions[] = {
        sim::parseScalar("-5"),
        sim::parseScalar("x"),
        sim::parseScalar("1.5"),
        sim::parseScalar("true"),
        sim::JsonValue(),
        sim::parseJson(R"([[-1, 2], ["a"]])"),
        sim::parseJson(R"({"x": 1, "99999999999999999999": -1})"),
    };
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const sim::JsonValue row = sim::parseJson(lines[i]);
        for (const auto &member : row.members())
            for (const sim::JsonValue &bad : corruptions) {
                sim::JsonValue changed = row;
                changed.set(member.first, bad);
                std::string text;
                for (std::size_t j = 0; j < lines.size(); ++j)
                    text += (j == i ? changed.dump() : lines[j]) + "\n";
                loads(text, "line " + std::to_string(i + 1) + ": " +
                                member.first + " = " + bad.dump());
            }
    }
}

} // namespace
} // namespace pracleak
