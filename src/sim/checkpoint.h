/**
 * @file
 * Sweep checkpoint journal: an append-only JSONL file that records
 * each completed grid point as workers finish, so a killed
 * multi-hour sweep resumes instead of restarting -- and, since the
 * journal pins the sweep's full identity, the unit of distribution
 * for fleet-scale sharded sweeps.
 *
 * Line 1 is a header record pinning the identity the journal belongs
 * to -- scenario name, FNV-1a hash of the effective grid, building
 * git revision, point count, and (for a sharded run) the shard spec
 * -- and every later line is one completed point:
 * `{"kind": "point", "index": I, "rows": [...]}` with the point's
 * parameters already merged into its rows.  Records
 * land in completion order (workers finish out of order); the loader
 * keys them by grid index, so the merged output is identical to an
 * uninterrupted run regardless of `--jobs` or kill timing.
 *
 * Distribution is built from two pieces, both defined here:
 *  - ShardSpec / shardOwns(): a deterministic round-robin partition
 *    of the grid-point index space, so N hosts journal disjoint
 *    ranges against per-shard journals;
 *  - readJournalFile() / mergeJournals(): fuse any set of shard and
 *    whole-grid journals back into one result, refusing on identity
 *    mismatch, overlapping ownership with *conflicting* rows, or
 *    missing points.
 *
 * Robustness contract:
 *  - a torn final record (crash mid-write; no trailing newline) is
 *    dropped and its point re-run -- the file is truncated back to
 *    the last complete record before appending resumes;
 *  - duplicate records for one index are legal, last wins;
 *  - any header mismatch (scenario, grid hash, git revision, point
 *    count, shard spec, format version) refuses to resume
 *    with a clear error rather than merging rows from a different
 *    sweep;
 *  - a newline-terminated record that fails to parse is corruption,
 *    not a torn tail, and is likewise a hard error.
 *
 * See src/sim/DESIGN.md for the format and versioning rules.
 */

#ifndef PRACLEAK_SIM_CHECKPOINT_H
#define PRACLEAK_SIM_CHECKPOINT_H

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/json.h"
#include "sim/scenario.h"

namespace pracleak::sim {

/**
 * Journal format version; bump on any incompatible record change.
 * v2 added the optional "shard" header identity field.
 */
inline constexpr std::int64_t kJournalVersion = 2;

/**
 * Which slice of a sweep's grid-point index space one host owns.
 * count == 0 means unsharded (the whole grid); otherwise the shard
 * owns every point whose index is congruent to `index` modulo
 * `count` -- a round-robin partition, so expensive points that
 * cluster in grid order still spread across hosts.
 */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 0;

    bool active() const { return count != 0; }
    bool operator==(const ShardSpec &other) const
    {
        return index == other.index && count == other.count;
    }

    /** "i/N" (or "" when inactive), as spelled on the CLI. */
    std::string label() const;
};

/**
 * Does @p shard own grid point @p point?  Pure, deterministic, and
 * independent of --jobs: the union over all shards of one count is
 * the whole index space, pairwise disjoint.  An inactive spec owns
 * everything.
 */
bool shardOwns(std::size_t point, const ShardSpec &shard);

/** The journal a sweep of @p scenario writes under @p directory. */
std::string journalPath(const std::string &directory,
                        const std::string &scenario);

/** Per-shard journal: DIR/<scenario>.shard-I-of-N.jsonl. */
std::string shardJournalPath(const std::string &directory,
                             const std::string &scenario,
                             const ShardSpec &shard);

/**
 * Build the header record pinning a sweep's identity.  An active
 * @p shard adds a {"index", "count"} object under "shard", validated
 * on resume exactly like the scenario name and grid hash.
 */
JsonValue journalHeader(const std::string &scenario,
                        const JsonValue &grid, std::size_t points,
                        const ShardSpec &shard = {});

/** What loadJournal() recovered from an existing journal. */
struct CheckpointState
{
    /** Completed points (params already merged into their rows). */
    std::map<std::size_t, std::vector<ResultRow>> rowsByPoint;

    /** A valid header was found (resume appends; fresh rewrites). */
    bool hasHeader = false;

    /**
     * Byte offset just past the last complete record; a torn tail
     * beyond it is truncated away before appending resumes.
     */
    std::size_t validBytes = 0;

    /** An unterminated final record was dropped. */
    bool droppedTornTail = false;
};

/**
 * Read @p path and validate it against the sweep about to run
 * (@p scenario / @p grid / @p points / @p shard describe the
 * *effective* sweep, after overrides).  A missing or empty file
 * -- including one whose only content is a torn header -- yields an
 * empty state (fresh start).  Throws std::runtime_error with a
 * path-prefixed message on any identity mismatch or interior
 * corruption, including a point record outside the declared shard's
 * ownership.
 */
CheckpointState loadJournal(const std::string &path,
                            const std::string &scenario,
                            const JsonValue &grid,
                            std::size_t points,
                            const ShardSpec &shard = {});

/**
 * One journal read without an expected identity (the merge path):
 * the header's own fields are returned for cross-journal validation
 * instead of being checked against a sweep about to run.
 */
struct JournalFile
{
    std::string path;
    std::string scenario;
    std::string gitRev;
    std::string gridHash;
    JsonValue grid;
    std::size_t points = 0;
    ShardSpec shard; //!< inactive when the journal is unsharded
    std::map<std::size_t, std::vector<ResultRow>> rowsByPoint;
    bool droppedTornTail = false;
};

/**
 * Parse one journal structurally: header present and well-formed,
 * embedded grid consistent with the header's own grid hash (tamper
 * check), every point record shaped correctly, in range, and -- for
 * a shard journal -- owned by the declared shard.  A torn final
 * record is dropped (a crashed shard's journal must still merge);
 * any complete line that fails these checks throws
 * std::runtime_error.
 */
JournalFile readJournalFile(const std::string &path);

/**
 * The `*.jsonl` files under @p directory whose first line is a valid
 * journal header -- for @p scenario when non-empty, else for any
 * scenario -- sorted by path.  Files without a complete header line
 * (e.g. a shard killed mid-header) are skipped: they cannot contain
 * any point records.
 */
std::vector<std::string>
journalFilesFor(const std::string &directory,
                const std::string &scenario = {});

/** What mergeJournals() fused out of a set of journals. */
struct MergedJournals
{
    std::string scenario;
    JsonValue grid;
    std::size_t points = 0;
    std::map<std::size_t, std::vector<ResultRow>> rowsByPoint;
};

/**
 * Fuse @p paths -- any mix of whole-sweep and per-shard journals --
 * into one complete point map.  Throws std::runtime_error when:
 *  - the set is empty, or any journal fails readJournalFile();
 *  - the journals disagree on scenario, grid hash, point count, or
 *    format version, or were written by a different git revision
 *    than this build (results from different code must not fuse);
 *  - two journals cover the same point with *conflicting* rows
 *    (byte-identical duplicates are legal -- a whole-grid journal
 *    left beside the shard journals of the same sweep repeats every
 *    point);
 *  - any grid point is covered by no journal (the merged result
 *    would silently claim completeness it does not have).
 */
MergedJournals mergeJournals(const std::vector<std::string> &paths);

/**
 * Append-only journal writer.  Construction either truncates and
 * writes a fresh header, or -- when resuming -- trims a torn tail
 * and reopens for append.  writePoint() is safe to call from
 * concurrent workers: record serialization happens outside the
 * lock, the stream write inside it.
 */
class JournalWriter
{
  public:
    /**
     * @p append reopens an existing journal after truncating it to
     * @p truncateTo bytes (from CheckpointState::validBytes);
     * otherwise the file is created/truncated and @p header written
     * and flushed immediately.  @p flushEvery >= 1 is the flush
     * granularity in completed points (Scenario::checkpointEvery).
     * Throws std::runtime_error when the file cannot be opened.
     */
    JournalWriter(const std::string &path, const JsonValue &header,
                  bool append, std::size_t truncateTo,
                  std::size_t flushEvery);

    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Journal one completed point (thread-safe).  A non-negative
     * @p wall_seconds is stored as a record-level "wall_seconds"
     * field -- straggler telemetry for the fleet tooling.  Loaders
     * ignore it (they read only kind/index/rows), so rows merged
     * from journals stay byte-identical to a live run's and
     * duplicate points still fuse: wall clock never contaminates
     * result rows.
     */
    void writePoint(std::size_t index,
                    const std::vector<ResultRow> &rows,
                    double wall_seconds = -1.0);

    /** Push everything written so far to the OS. */
    void flush();

  private:
    void warnIfFailedLocked();

    std::ofstream out_;
    std::mutex mutex_;
    std::size_t flushEvery_ = 1;
    std::size_t sinceFlush_ = 0;
    bool warnedFailed_ = false;
};

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_CHECKPOINT_H
