#include "sim/analyze_support.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sim/json.h"
#include "telemetry/io.h"

namespace pracleak::sim {

namespace {

/**
 * @p value as a count; throws std::invalid_argument naming @p key
 * unless it is a non-negative integer (a negative or text count
 * would wrap into a huge one).
 */
std::uint64_t
asCount(const JsonValue &value, const std::string &key)
{
    if (value.kind() != JsonValue::Kind::Int || value.asInt() < 0)
        throw std::invalid_argument("'" + key +
                                    "' is not a non-negative integer: " +
                                    value.dump());
    return static_cast<std::uint64_t>(value.asInt());
}

std::uint64_t
fieldU64(const JsonValue &row, const char *key)
{
    const JsonValue *value = row.get(key);
    return value ? asCount(*value, key) : 0;
}

bool
parseHeader(const JsonValue &line, SeriesSim &sim)
{
    if (const JsonValue *label = line.get("label"))
        sim.label = label->asString();
    if (const JsonValue *mitigation = line.get("mitigation"))
        sim.mitigation = mitigation->asString();
    sim.windowCycles = fieldU64(line, "window_cycles");
    sim.channels = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(fieldU64(line, "channels"), 1));
    if (line.has("victim_bank"))
        sim.victimBank =
            static_cast<std::int64_t>(fieldU64(line, "victim_bank"));
    if (const JsonValue *ranges = line.get("on_windows"))
        for (const JsonValue &range : ranges->items())
            if (range.items().size() == 2)
                sim.onWindows.emplace_back(
                    asCount(range.items()[0], "on_windows"),
                    asCount(range.items()[1], "on_windows"));
    return sim.windowCycles > 0;
}

SeriesSim::Window
parseWindow(const JsonValue &line)
{
    SeriesSim::Window window;
    window.channel =
        static_cast<std::uint32_t>(fieldU64(line, "ch"));
    window.index = fieldU64(line, "w");
    window.act = fieldU64(line, "act");
    window.pre = fieldU64(line, "pre");
    window.rd = fieldU64(line, "rd");
    window.wr = fieldU64(line, "wr");
    window.ref = fieldU64(line, "ref");
    window.rfmAb = fieldU64(line, "rfm_ab");
    window.rfmPb = fieldU64(line, "rfm_pb");
    window.abo = fieldU64(line, "abo");
    window.mitEvents = fieldU64(line, "mit_events");
    window.blocked = fieldU64(line, "blocked");
    window.qSamples = fieldU64(line, "q_n");
    window.qSum = fieldU64(line, "q_sum");
    window.qMax = fieldU64(line, "q_max");
    if (const JsonValue *banks = line.get("rfm_pb_banks"))
        for (const auto &[bank, rfms] : banks->members()) {
            std::uint32_t index = 0;
            const char *end = bank.data() + bank.size();
            const auto [stop, error] =
                std::from_chars(bank.data(), end, index);
            if (error != std::errc() || stop != end)
                throw std::invalid_argument(
                    "'rfm_pb_banks' key '" + bank +
                    "' is not a bank number");
            window.rfmPbBanks[index] = asCount(rfms, "rfm_pb_banks");
        }
    return window;
}

/** Strongest-leak ordering for per-defense aggregation. */
int
verdictRank(const LeakVerdict &verdict)
{
    if (verdict.leakChannel)
        return 2;
    if (verdict.leakSameBank)
        return 1;
    return 0;
}

} // namespace

std::string
LeakVerdict::observableTo() const
{
    if (leakChannel)
        return "any probe";
    if (leakSameBank)
        return "same-bank probe";
    return "none";
}

std::vector<SeriesSim>
loadSeriesFile(const std::string &path, std::string *error)
{
    if (error)
        error->clear();
    std::vector<SeriesSim> sims;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return sims;
    }

    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        // Every malformed line is one `path:line: what` error.
        try {
            std::string parse_error;
            const JsonValue value = parseJson(line, &parse_error);
            if (!parse_error.empty())
                throw std::invalid_argument(parse_error);
            const JsonValue *kind = value.get("kind");
            const std::string kind_name = kind ? kind->asString() : "";
            if (kind_name == "header") {
                SeriesSim sim;
                if (!parseHeader(value, sim))
                    throw std::invalid_argument(
                        "header without window_cycles");
                sims.push_back(std::move(sim));
            } else if (kind_name == "window") {
                if (sims.empty())
                    throw std::invalid_argument(
                        "window line before any header");
                sims.back().windows.push_back(parseWindow(value));
            } else if (kind_name != "summary") {
                // Summaries are for humans and spot checks; the
                // analyzer recomputes everything from the windows.
                throw std::invalid_argument("unknown record kind '" +
                                            kind_name + "'");
            }
        } catch (const std::invalid_argument &bad) {
            if (error)
                *error = path + ":" + std::to_string(line_no) + ": " +
                         bad.what();
            return sims;
        }
    }
    return sims;
}

LeakVerdict
analyzeSeries(const SeriesSim &sim)
{
    LeakVerdict verdict;
    verdict.label = sim.label;
    verdict.mitigation = sim.mitigation;
    verdict.windows = sim.windows.size();

    // ON/OFF classification per window index.  Ground truth from the
    // header when the experiment recorded its burst schedule; ACT
    // activity otherwise (the hammering victim dominates the ACT
    // budget, probes mostly ride row hits).
    std::map<std::uint64_t, std::uint64_t> actByIndex;
    for (const SeriesSim::Window &window : sim.windows)
        actByIndex[window.index] += window.act;
    std::uint64_t peak_act = 0;
    for (const auto &[index, act] : actByIndex)
        peak_act = std::max(peak_act, act);

    const auto is_on = [&](std::uint64_t index) {
        if (!sim.onWindows.empty())
            return sim.windowOn(index);
        const auto it = actByIndex.find(index);
        return peak_act > 0 && it != actByIndex.end() &&
               it->second * 2 > peak_act;
    };

    // Channel-wide and per-bank signal split by phase.  The victim
    // bank comes from the header; without it, any bank whose RFMpb
    // stream correlates with the ON phases counts as a same-bank
    // leak (an attacker probing every bank in turn).
    std::map<std::uint32_t, OnOffCounts> perBank;
    for (const SeriesSim::Window &window : sim.windows) {
        const bool on = is_on(window.index);
        (on ? verdict.channel.on : verdict.channel.off) +=
            window.rfmAb;
        for (const auto &[bank, count] : window.rfmPbBanks) {
            if (sim.victimBank >= 0 &&
                bank != static_cast<std::uint32_t>(sim.victimBank))
                continue;
            OnOffCounts &counts = perBank[bank];
            (on ? counts.on : counts.off) += count;
        }
    }
    verdict.leakChannel = correlatedCounts(verdict.channel);
    for (const auto &[bank, counts] : perBank) {
        if (!correlatedCounts(counts))
            continue;
        verdict.leakSameBank = true;
        if (counts.on > verdict.sameBank.on)
            verdict.sameBank = counts;
    }
    if (!verdict.leakSameBank && !perBank.empty())
        verdict.sameBank = perBank.begin()->second;

    // Burst detection: maximal runs of RFM-active windows per
    // channel (a gap of one empty window ends a run -- empty windows
    // are implicit in the sparse series, so a jump in index is the
    // gap).
    std::map<std::uint32_t, std::uint64_t> lastIndex;
    for (const SeriesSim::Window &window : sim.windows) {
        if (window.rfmAb + window.rfmPb == 0)
            continue;
        const auto it = lastIndex.find(window.channel);
        if (it == lastIndex.end() || window.index > it->second + 1)
            ++verdict.bursts;
        lastIndex[window.channel] = window.index;
    }
    return verdict;
}

namespace {

JsonValue
verdictRow(const LeakVerdict &verdict)
{
    JsonValue row = JsonValue::object();
    row.set("label", verdict.label);
    row.set("mitigation", verdict.mitigation);
    row.set("windows", verdict.windows);
    row.set("bursts", verdict.bursts);
    row.set("ch_on", verdict.channel.on);
    row.set("ch_off", verdict.channel.off);
    row.set("bank_on", verdict.sameBank.on);
    row.set("bank_off", verdict.sameBank.off);
    row.set("leaked", verdict.leaked());
    row.set("observable_to", verdict.observableTo());
    return row;
}

/**
 * Per-defense aggregation for --defense-matrix: worst case over the
 * defense's simulations, rows in first-seen order -- the same shape
 * as defense_matrix_leakage's summary, so the two artifacts diff
 * directly.
 */
std::vector<JsonValue>
defenseSummary(const std::vector<LeakVerdict> &verdicts)
{
    std::vector<std::string> order;
    std::map<std::string, const LeakVerdict *> strongest;
    for (const LeakVerdict &verdict : verdicts) {
        const auto it = strongest.find(verdict.mitigation);
        if (it == strongest.end()) {
            order.push_back(verdict.mitigation);
            strongest[verdict.mitigation] = &verdict;
        } else if (verdictRank(verdict) > verdictRank(*it->second)) {
            it->second = &verdict;
        }
    }
    std::vector<JsonValue> rows;
    for (const std::string &mitigation : order) {
        const LeakVerdict &verdict = *strongest[mitigation];
        JsonValue row = JsonValue::object();
        row.set("mitigation", mitigation);
        row.set("leaked", verdict.leaked());
        row.set("observable_to", verdict.observableTo());
        rows.push_back(std::move(row));
    }
    return rows;
}

void
printJsonRows(const char *heading, const std::vector<JsonValue> &rows)
{
    std::printf("\n--- %s ---\n", heading);
    for (const JsonValue &row : rows) {
        std::string line;
        for (const auto &[key, value] : row.members()) {
            if (!line.empty())
                line += "  ";
            line += key + "=" + value.asString();
        }
        std::printf("%s\n", line.c_str());
    }
}

} // namespace

int
runAnalyzeCommand(const AnalyzeCliOptions &options)
{
    std::vector<LeakVerdict> verdicts;
    for (const std::string &path : options.paths) {
        std::string error;
        const std::vector<SeriesSim> sims =
            loadSeriesFile(path, &error);
        if (!error.empty()) {
            std::fprintf(stderr, "pracbench analyze: %s\n",
                         error.c_str());
            return 1;
        }
        if (sims.empty()) {
            std::fprintf(stderr,
                         "pracbench analyze: %s holds no series "
                         "records\n",
                         path.c_str());
            return 1;
        }
        for (const SeriesSim &sim : sims)
            verdicts.push_back(analyzeSeries(sim));
    }

    std::vector<JsonValue> rows;
    rows.reserve(verdicts.size());
    for (const LeakVerdict &verdict : verdicts)
        rows.push_back(verdictRow(verdict));
    std::vector<JsonValue> summary;
    if (options.defenseMatrix)
        summary = defenseSummary(verdicts);

    if (options.table) {
        printJsonRows("series verdicts", rows);
        if (options.defenseMatrix)
            printJsonRows("defense matrix", summary);
    }

    if (!options.outJson.empty()) {
        JsonValue root = JsonValue::object();
        root.set("generator", "pracbench analyze");
        JsonValue files = JsonValue::array();
        for (const std::string &path : options.paths)
            files.push(path);
        root.set("files", std::move(files));
        JsonValue rowArray = JsonValue::array();
        for (JsonValue &row : rows)
            rowArray.push(std::move(row));
        root.set("rows", std::move(rowArray));
        JsonValue summaryArray = JsonValue::array();
        for (JsonValue &row : summary)
            summaryArray.push(std::move(row));
        root.set("summary", std::move(summaryArray));
        if (!telemetry::writeAtomic(options.outJson,
                                    root.dump(2) + "\n"))
            return 1;
    }
    return 0;
}

} // namespace pracleak::sim
