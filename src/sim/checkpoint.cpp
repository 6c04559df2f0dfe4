#include "sim/checkpoint.h"

#include "sim/provenance.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

namespace pracleak::sim {

namespace {

[[noreturn]] void
refuse(const std::string &path, const std::string &why)
{
    throw std::runtime_error("checkpoint journal " + path + ": " +
                             why);
}

/** Any NaN double anywhere in @p value? */
bool
containsNaN(const JsonValue &value)
{
    switch (value.kind()) {
      case JsonValue::Kind::Double:
        return std::isnan(value.asDouble());
      case JsonValue::Kind::Array:
        for (const JsonValue &item : value.items())
            if (containsNaN(item))
                return true;
        return false;
      case JsonValue::Kind::Object:
        for (const auto &[name, member] : value.members()) {
            (void)name;
            if (containsNaN(member))
                return true;
        }
        return false;
      default: return false;
    }
}

/** Render one point as a single newline-terminated JSONL record. */
std::string
pointLine(std::size_t index, const std::vector<ResultRow> &rows)
{
    JsonValue record = JsonValue::object();
    record.set("kind", "point");
    record.set("index", static_cast<std::int64_t>(index));
    JsonValue rowArray = JsonValue::array();
    for (const ResultRow &row : rows)
        rowArray.push(row);
    record.set("rows", std::move(rowArray));
    // Round-trip doubles exactly: a resumed row must be bit-identical
    // to the freshly computed one or summaries recomputed from the
    // resumed rows (and the final JSON itself) could drift.
    return record.dumpRoundTrip() + '\n';
}

/** One fully parsed journal: header identity + point records. */
struct RawJournal
{
    bool hasHeader = false;
    std::string scenario;
    std::string gitRev;
    std::string gridHash;
    std::size_t points = 0;
    std::map<std::size_t, std::vector<ResultRow>> rowsByPoint;
    std::size_t validBytes = 0;
    bool droppedTornTail = false;
};

/**
 * Interpret a header record's identity fields.  Structural problems
 * (missing/mistyped fields, unreadable format version) are hard
 * errors here; comparing those fields against an expected sweep is
 * the caller's business.
 */
void
extractHeader(const std::string &path, const JsonValue &record,
              RawJournal &out)
{
    const JsonValue *kind = record.get("kind");
    if (!kind || kind->asString() != "header")
        refuse(path, "first record is not a header");

    const JsonValue *version = record.get("version");
    if (!version || version->asInt() != kJournalVersion)
        refuse(path,
               "format version " +
                   (version ? version->asString() : "missing") +
                   " (this build reads version " +
                   std::to_string(kJournalVersion) +
                   "); journals are working state, not archives -- "
                   "re-run the sweep fresh");

    const JsonValue *name = record.get("scenario");
    const JsonValue *rev = record.get("git_rev");
    const JsonValue *hash = record.get("grid_fnv1a64");
    const JsonValue *count = record.get("points");
    if (!name || !rev || !hash || !count || count->asInt() < 0)
        refuse(path, "header is missing identity fields");
    out.scenario = name->asString();
    out.gitRev = rev->asString();
    out.gridHash = hash->asString();
    out.points = static_cast<std::size_t>(count->asInt());
}

/**
 * Parse @p text structurally.  Torn final records are dropped; a
 * complete line that fails any check is corruption and throws.  An
 * empty file or one holding only a torn header yields
 * hasHeader == false.
 */
RawJournal
parseJournal(const std::string &path, const std::string &text)
{
    RawJournal raw;
    std::size_t pos = 0;
    std::size_t lineNo = 0;
    while (pos < text.size()) {
        const std::size_t newline = text.find('\n', pos);
        if (newline == std::string::npos) {
            // Unterminated tail: the write that was in flight when
            // the sweep died.  Records are written newline-last in
            // one stream operation, so only a tail can be torn --
            // drop it and re-run that point.
            raw.droppedTornTail = true;
            break;
        }
        ++lineNo;
        const std::string_view line(text.data() + pos,
                                    newline - pos);
        std::string error;
        const JsonValue record = parseJson(line, &error);
        if (!error.empty())
            refuse(path, "record " + std::to_string(lineNo) +
                             " is unparseable (" + error +
                             ") -- the journal is corrupt, not "
                             "merely truncated; delete it to start "
                             "fresh");
        if (lineNo == 1) {
            extractHeader(path, record, raw);
            raw.hasHeader = true;
        } else {
            const JsonValue *kind = record.get("kind");
            if (!kind || kind->asString() != "point")
                refuse(path, "record " + std::to_string(lineNo) +
                                 " is not a point record");
            const JsonValue *index = record.get("index");
            const JsonValue *rows = record.get("rows");
            if (!index || !rows ||
                rows->kind() != JsonValue::Kind::Array)
                refuse(path, "record " + std::to_string(lineNo) +
                                 " is missing index/rows");
            const std::int64_t i = index->asInt();
            if (i < 0 ||
                i >= static_cast<std::int64_t>(raw.points))
                refuse(path, "record " + std::to_string(lineNo) +
                                 " has point index " +
                                 std::to_string(i) +
                                 " outside the grid");
            // Duplicate indices are legal (a resume can re-run a
            // point whose record was torn away): last wins.
            raw.rowsByPoint[static_cast<std::size_t>(i)] =
                rows->items();
        }
        pos = newline + 1;
        raw.validBytes = pos;
    }
    return raw;
}

} // namespace

std::string
journalPath(const std::string &directory, const std::string &scenario)
{
    std::string path = directory;
    if (!path.empty() && path.back() != '/')
        path += '/';
    return path + scenario + ".jsonl";
}

JsonValue
journalHeader(const std::string &scenario, const JsonValue &grid,
              std::size_t points)
{
    JsonValue header = JsonValue::object();
    header.set("kind", "header");
    header.set("version", kJournalVersion);
    header.set("scenario", scenario);
    header.set("points", static_cast<std::int64_t>(points));
    header.set("git_rev", gitRevision());
    header.set("grid_fnv1a64", gridHashHex(grid));
    header.set("created_at", utcTimestamp());
    return header;
}

CheckpointState
loadJournal(const std::string &path, const std::string &scenario,
            const JsonValue &grid, std::size_t points)
{
    CheckpointState state;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return state; // no journal yet: fresh start

    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    RawJournal raw = parseJournal(path, text);
    if (!raw.hasHeader)
        return state; // empty file / torn header: fresh start

    if (raw.scenario != scenario)
        refuse(path, "written by scenario '" + raw.scenario +
                         "', not '" + scenario + "'");
    const std::string expectedGrid = gridHashHex(grid);
    if (raw.gridHash != expectedGrid)
        refuse(path,
               "grid hash mismatch (journal " + raw.gridHash +
                   ", effective grid " + expectedGrid +
                   ") -- the sweep's axes or overrides changed; "
                   "re-run without --resume to start fresh");
    if (raw.gitRev != gitRevision())
        refuse(path,
               "git revision mismatch (journal " + raw.gitRev +
                   ", build " + gitRevision() +
                   ") -- results from different code must not be "
                   "merged; re-run without --resume");
    if (raw.points != points)
        refuse(path, "point count mismatch");

    state.rowsByPoint = std::move(raw.rowsByPoint);
    state.hasHeader = true;
    state.validBytes = raw.validBytes;
    state.droppedTornTail = raw.droppedTornTail;
    return state;
}

JournalWriter::JournalWriter(const std::string &path,
                             const JsonValue &header, bool append,
                             std::size_t truncateTo)
{
    std::error_code ec;
    const std::filesystem::path target(path);
    if (target.has_parent_path())
        std::filesystem::create_directories(target.parent_path(), ec);
    if (append) {
        // Trim any torn tail so the next record does not concatenate
        // onto a half-written line.
        std::filesystem::resize_file(target, truncateTo, ec);
        if (ec)
            throw std::runtime_error("checkpoint journal " + path +
                                     ": cannot truncate torn tail: " +
                                     ec.message());
        out_.open(target, std::ios::binary | std::ios::app);
    } else {
        out_.open(target, std::ios::binary | std::ios::trunc);
    }
    if (!out_)
        throw std::runtime_error("checkpoint journal " + path +
                                 ": cannot open for writing");
    if (!append) {
        out_ << header.dump() << '\n';
        // Make the header durable before any long compute: a sweep
        // killed during its first point must still leave a
        // resumable (if empty) journal.
        out_.flush();
    }
}

void
JournalWriter::writePoint(std::size_t index,
                          const std::vector<ResultRow> &rows)
{
    // JSON has no NaN literal: the record stores null, which resumes
    // as Null (asDouble() == 0.0), so a summary recomputed from the
    // resumed rows would see different inputs than the live run did.
    bool sawNaN = false;
    for (const ResultRow &row : rows)
        sawNaN = sawNaN || containsNaN(row);
    if (sawNaN)
        std::fprintf(stderr,
                     "warning: checkpoint point %zu journals a NaN "
                     "metric as null; a summary recomputed on "
                     "--resume may differ from an uninterrupted "
                     "run\n",
                     index);

    const std::string line = pointLine(index, rows);
    const std::lock_guard<std::mutex> lock(mutex_);
    out_ << line;
    // Flush every point, so a kill loses at most the record in
    // flight.
    out_.flush();
    // A full disk or a deleted checkpoint directory must not kill a
    // sweep -- the journal is protection, not output -- but losing
    // that protection silently would be worse: every point from here
    // on would re-run after a kill the user thought was covered.
    if (out_.good() || warnedFailed_)
        return;
    warnedFailed_ = true;
    std::fprintf(stderr,
                 "warning: checkpoint journal write failed (disk "
                 "full? directory removed?); points completed from "
                 "here on will NOT be resumable\n");
}

} // namespace pracleak::sim
