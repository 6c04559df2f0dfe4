/**
 * @file
 * Sweep checkpoint journal: an append-only JSONL file that records
 * each completed grid point as workers finish, so a killed sweep
 * resumes instead of restarting.
 *
 * Line 1 is a header record pinning the identity the journal belongs
 * to -- scenario name, FNV-1a hash of the effective grid, building
 * git revision, and point count -- and every later line is one
 * completed point: `{"kind": "point", "index": I, "rows": [...]}`
 * with the point's parameters already merged into its rows.  Records
 * land in completion order (workers finish out of order); the loader
 * keys them by grid index, so the resumed output is identical to an
 * uninterrupted run regardless of `--jobs` or kill timing.
 *
 * Robustness contract:
 *  - a torn final record (crash mid-write; no trailing newline) is
 *    dropped and its point re-run -- the file is truncated back to
 *    the last complete record before appending resumes;
 *  - duplicate records for one index are legal, last wins;
 *  - any header mismatch (scenario, grid hash, git revision, point
 *    count, format version) refuses to resume with a clear error
 *    rather than merging rows from a different sweep;
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
 * Journal format version; bump on any incompatible record change
 * (src/sim/DESIGN.md, "Versioning").
 */
inline constexpr std::int64_t kJournalVersion = 3;

/** The journal a sweep of @p scenario writes under @p directory. */
std::string journalPath(const std::string &directory,
                        const std::string &scenario);

/** Build the header record pinning a sweep's identity. */
JsonValue journalHeader(const std::string &scenario,
                        const JsonValue &grid, std::size_t points);

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
 * (@p scenario / @p grid / @p points describe the *effective* sweep,
 * after overrides).  A missing or empty file -- including one whose
 * only content is a torn header -- yields an empty state (fresh
 * start).  Throws std::runtime_error with a path-prefixed message on
 * any identity mismatch or interior corruption.
 */
CheckpointState loadJournal(const std::string &path,
                            const std::string &scenario,
                            const JsonValue &grid,
                            std::size_t points);

/**
 * Append-only journal writer.  Construction either truncates and
 * writes a fresh header, or -- when resuming -- trims a torn tail
 * and reopens for append.  writePoint() is safe to call from
 * concurrent workers: record serialization happens outside the
 * lock, the stream write and flush inside it.
 */
class JournalWriter
{
  public:
    /**
     * @p append reopens an existing journal after truncating it to
     * @p truncateTo bytes (from CheckpointState::validBytes);
     * otherwise the file is created/truncated and @p header written
     * and flushed immediately.  Throws std::runtime_error when the
     * file cannot be opened.
     */
    JournalWriter(const std::string &path, const JsonValue &header,
                  bool append, std::size_t truncateTo);

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Journal one completed point and flush it to the OS
     * (thread-safe).
     */
    void writePoint(std::size_t index,
                    const std::vector<ResultRow> &rows);

  private:
    std::ofstream out_;
    std::mutex mutex_;
    bool warnedFailed_ = false;
};

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_CHECKPOINT_H
