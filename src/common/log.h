/**
 * @file
 * Minimal leveled logging plus fatal/panic helpers in the spirit of
 * gem5's logging.hh: panic() for simulator bugs, fatal() for bad user
 * configuration.
 */

#ifndef PRACLEAK_COMMON_LOG_H
#define PRACLEAK_COMMON_LOG_H

#include <cstdio>
#include <cstdlib>
#include <string>

namespace pracleak {

/** Global verbosity: 0 = silent, 1 = warn, 2 = info, 3 = debug. */
int logLevel();

/** Set global verbosity (returns previous level). */
int setLogLevel(int level);

namespace detail {
void logLine(const char *tag, const std::string &msg);
} // namespace detail

/** Informational message (level >= 2). */
void inform(const std::string &msg);

/**
 * User-facing progress line (level >= 1): `[context] msg`.  Sweep
 * runners use the context to identify the scenario, so output from
 * a multi-scenario run stays attributable.  Deliberately
 * visible at the default level -- progress is the product for a
 * long-running sweep, not debug chatter -- but silenced by --quiet
 * (level 0).
 */
void progress(const std::string &context, const std::string &msg);

/**
 * Parse a --log-level value: "quiet"/"warn"/"info"/"debug" or a bare
 * digit.  Returns -1 on anything unrecognized.
 */
int parseLogLevel(const std::string &text);

/** Something works but is suspicious (level >= 1). */
void warn(const std::string &msg);

/** Unrecoverable user/configuration error: print and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Internal invariant violation: print and abort(). */
[[noreturn]] void panic(const std::string &msg);

} // namespace pracleak

#endif // PRACLEAK_COMMON_LOG_H
