#include "sim/checkpoint.h"

#include "sim/provenance.h"

#include <algorithm>
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
pointLine(std::size_t index, const std::vector<ResultRow> &rows,
          double wallSeconds)
{
    JsonValue record = JsonValue::object();
    record.set("kind", "point");
    record.set("index", static_cast<std::int64_t>(index));
    JsonValue rowArray = JsonValue::array();
    for (const ResultRow &row : rows)
        rowArray.push(row);
    record.set("rows", std::move(rowArray));
    // Record-level telemetry only: loaders read kind/index/rows, so
    // wall clock never reaches result rows (which must stay
    // byte-identical across job counts, resume, and merges).
    if (wallSeconds >= 0.0)
        record.set("wall_seconds", wallSeconds);
    // Round-trip doubles exactly: a resumed row must be bit-identical
    // to the freshly computed one or summaries recomputed from the
    // merged rows (and the final JSON itself) could drift.
    return record.dumpRoundTrip() + '\n';
}

/** One fully parsed journal: header identity + point records. */
struct RawJournal
{
    bool hasHeader = false;
    std::string scenario;
    std::string gitRev;
    std::string gridHash;
    JsonValue grid;
    std::size_t points = 0;
    ShardSpec shard;
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
    if (const JsonValue *grid = record.get("grid"))
        out.grid = *grid;

    if (const JsonValue *shard = record.get("shard")) {
        const JsonValue *index = shard->get("index");
        const JsonValue *total = shard->get("count");
        if (!index || !total || index->asInt() < 0 ||
            total->asInt() <= index->asInt())
            refuse(path, "header has a malformed shard spec");
        out.shard.index = static_cast<unsigned>(index->asInt());
        out.shard.count = static_cast<unsigned>(total->asInt());
    }
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
            if (!shardOwns(static_cast<std::size_t>(i), raw.shard))
                refuse(path, "record " + std::to_string(lineNo) +
                                 " has point index " +
                                 std::to_string(i) +
                                 " outside shard " +
                                 raw.shard.label() +
                                 " -- ownership must be disjoint");
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

/** The rows of one point in canonical bytes (conflict detection). */
std::string
serializeRows(const std::vector<ResultRow> &rows)
{
    JsonValue array = JsonValue::array();
    for (const ResultRow &row : rows)
        array.push(row);
    return array.dumpRoundTrip();
}

} // namespace

std::string
ShardSpec::label() const
{
    if (!active())
        return "";
    return std::to_string(index) + "/" + std::to_string(count);
}

bool
shardOwns(std::size_t point, const ShardSpec &shard)
{
    // Round-robin, not contiguous blocks: sweeps often order axes so
    // expensive values cluster, and i mod N spreads any such run of
    // heavy points across all shards.
    return !shard.active() || point % shard.count == shard.index;
}

std::string
journalPath(const std::string &directory, const std::string &scenario)
{
    std::string path = directory;
    if (!path.empty() && path.back() != '/')
        path += '/';
    return path + scenario + ".jsonl";
}

std::string
shardJournalPath(const std::string &directory,
                 const std::string &scenario, const ShardSpec &shard)
{
    std::string path = directory;
    if (!path.empty() && path.back() != '/')
        path += '/';
    return path + scenario + ".shard-" + std::to_string(shard.index) +
           "-of-" + std::to_string(shard.count) + ".jsonl";
}

JsonValue
journalHeader(const std::string &scenario, const JsonValue &grid,
              std::size_t points, const ShardSpec &shard)
{
    JsonValue header = JsonValue::object();
    header.set("kind", "header");
    header.set("version", kJournalVersion);
    header.set("scenario", scenario);
    header.set("points", static_cast<std::int64_t>(points));
    header.set("git_rev", gitRevision());
    header.set("grid_fnv1a64", gridHashHex(grid));
    if (shard.active()) {
        JsonValue spec = JsonValue::object();
        spec.set("index", static_cast<std::int64_t>(shard.index));
        spec.set("count", static_cast<std::int64_t>(shard.count));
        header.set("shard", std::move(spec));
    }
    header.set("created_at", utcTimestamp());
    // The grid itself rides along for the merge path (its hash is
    // validated against grid_fnv1a64 before it is trusted) and for
    // human inspection; resume validation trusts only the hash.
    header.set("grid", grid);
    return header;
}

CheckpointState
loadJournal(const std::string &path, const std::string &scenario,
            const JsonValue &grid, std::size_t points,
            const ShardSpec &shard)
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
    if (!(raw.shard == shard))
        refuse(path, "shard mismatch (journal owns " +
                         (raw.shard.active() ? raw.shard.label()
                                             : "the whole grid") +
                         ", this run owns " +
                         (shard.active() ? shard.label()
                                         : "the whole grid") +
                         ") -- per-shard journals must not cross");

    state.rowsByPoint = std::move(raw.rowsByPoint);
    state.hasHeader = true;
    state.validBytes = raw.validBytes;
    state.droppedTornTail = raw.droppedTornTail;
    return state;
}

JournalFile
readJournalFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        refuse(path, "cannot read");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    RawJournal raw = parseJournal(path, text);
    if (!raw.hasHeader)
        refuse(path, "no complete header record -- nothing to merge");
    // The merge path trusts the embedded grid, so prove it still
    // matches the hash the journal itself claims to be pinned to.
    if (gridHashHex(raw.grid) != raw.gridHash)
        refuse(path, "embedded grid does not match the header's "
                     "grid hash -- the journal was modified");

    JournalFile file;
    file.path = path;
    file.scenario = std::move(raw.scenario);
    file.gitRev = std::move(raw.gitRev);
    file.gridHash = std::move(raw.gridHash);
    file.grid = std::move(raw.grid);
    file.points = raw.points;
    file.shard = raw.shard;
    file.rowsByPoint = std::move(raw.rowsByPoint);
    file.droppedTornTail = raw.droppedTornTail;
    return file;
}

std::vector<std::string>
journalFilesFor(const std::string &directory,
                const std::string &scenario)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(directory, ec)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".jsonl")
            continue;
        // Peek at the first line only: files without a complete
        // header (a shard killed mid-header) hold no point records
        // and are skipped, not errors.
        std::ifstream in(entry.path(), std::ios::binary);
        std::string first;
        if (!in || !std::getline(in, first))
            continue;
        std::string error;
        const JsonValue header = parseJson(first, &error);
        if (!error.empty())
            continue;
        const JsonValue *kind = header.get("kind");
        const JsonValue *name = header.get("scenario");
        if (!kind || kind->asString() != "header" || !name)
            continue;
        if (!scenario.empty() && name->asString() != scenario)
            continue;
        paths.push_back(entry.path().string());
    }
    if (ec)
        throw std::runtime_error("cannot scan " + directory + ": " +
                                 ec.message());
    std::sort(paths.begin(), paths.end());
    return paths;
}

MergedJournals
mergeJournals(const std::vector<std::string> &paths)
{
    if (paths.empty())
        throw std::runtime_error("merge: no journals to merge");

    MergedJournals merged;
    std::string seedPath;
    std::string seedHash;
    std::map<std::size_t, std::string> ownerPath;
    std::map<std::size_t, std::string> serialized;
    for (const std::string &path : paths) {
        JournalFile journal = readJournalFile(path);
        if (journal.gitRev != gitRevision())
            refuse(path,
                   "git revision mismatch (journal " +
                       journal.gitRev + ", merging build " +
                       gitRevision() +
                       ") -- results from different code must not "
                       "be merged");
        if (seedPath.empty()) {
            seedPath = path;
            seedHash = journal.gridHash;
            merged.scenario = journal.scenario;
            merged.grid = journal.grid;
            merged.points = journal.points;
        } else {
            if (journal.scenario != merged.scenario)
                refuse(path,
                       "scenario '" + journal.scenario +
                           "' does not match '" + merged.scenario +
                           "' from " + seedPath +
                           " (merging a mixed directory? pass "
                           "--scenario to filter)");
            if (journal.gridHash != seedHash)
                refuse(path, "grid hash mismatch against " +
                                 seedPath +
                                 " -- these journals belong to "
                                 "different sweeps");
            if (journal.points != merged.points)
                refuse(path, "point count mismatch against " +
                                 seedPath);
        }
        for (auto &[index, rows] : journal.rowsByPoint) {
            std::string bytes = serializeRows(rows);
            const auto seen = serialized.find(index);
            if (seen == serialized.end()) {
                merged.rowsByPoint[index] = std::move(rows);
                serialized[index] = std::move(bytes);
                ownerPath[index] = path;
                continue;
            }
            // Overlap is legal (a whole-grid journal beside the
            // shard journals of the same sweep repeats their points)
            // but only when the duplicate rows are byte-identical:
            // the runs are deterministic, so a conflict means the
            // journals do not describe the same computation.
            if (seen->second != bytes)
                refuse(path,
                       "point " + std::to_string(index) +
                           " conflicts with " + ownerPath[index] +
                           " -- overlapping ownership with "
                           "different rows; refusing to pick one");
        }
    }

    if (merged.rowsByPoint.size() != merged.points) {
        std::string missing;
        std::size_t shown = 0;
        for (std::size_t i = 0; i < merged.points && shown < 8; ++i)
            if (!merged.rowsByPoint.count(i)) {
                missing += (shown ? ", " : "") + std::to_string(i);
                ++shown;
            }
        throw std::runtime_error(
            "merge: " +
            std::to_string(merged.points -
                           merged.rowsByPoint.size()) +
            " of " + std::to_string(merged.points) +
            " points are covered by no journal (first missing: " +
            missing + ") -- is a shard's journal absent?");
    }
    return merged;
}

JournalWriter::JournalWriter(const std::string &path,
                             const JsonValue &header, bool append,
                             std::size_t truncateTo,
                             std::size_t flushEvery)
    : flushEvery_(flushEvery ? flushEvery : 1)
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

JournalWriter::~JournalWriter()
{
    flush();
}

void
JournalWriter::writePoint(std::size_t index,
                          const std::vector<ResultRow> &rows,
                          double wall_seconds)
{
    // JSON has no NaN literal: the record stores null, which resumes
    // as Null (asDouble() == 0.0), so a summary recomputed from the
    // merged rows would see different inputs than the live run did.
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

    const std::string line = pointLine(index, rows, wall_seconds);
    const std::lock_guard<std::mutex> lock(mutex_);
    out_ << line;
    if (++sinceFlush_ >= flushEvery_) {
        out_.flush();
        sinceFlush_ = 0;
    }
    warnIfFailedLocked();
}

void
JournalWriter::flush()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    out_.flush();
    sinceFlush_ = 0;
    warnIfFailedLocked();
}

void
JournalWriter::warnIfFailedLocked()
{
    // A full disk or a deleted checkpoint directory must not kill a
    // long sweep -- the journal is protection, not output -- but
    // losing that protection silently would be worse: every point
    // from here on would re-run after a kill the user thought was
    // covered.
    if (out_.good() || warnedFailed_)
        return;
    warnedFailed_ = true;
    std::fprintf(stderr,
                 "warning: checkpoint journal write failed (disk "
                 "full? directory removed?); points completed from "
                 "here on will NOT be resumable\n");
}

} // namespace pracleak::sim
