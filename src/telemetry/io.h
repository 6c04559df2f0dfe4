/**
 * @file
 * The one atomic file writer: trace export, series export, and every
 * artifact `pracbench` emits (sweep JSON/CSV, search, replay and
 * analyze results) go through it.  It lives in the telemetry layer,
 * the lowest one that writes files, so the sweep runner above can
 * share it.
 */

#ifndef PRACLEAK_TELEMETRY_IO_H
#define PRACLEAK_TELEMETRY_IO_H

#include <string>

namespace pracleak::telemetry {

/**
 * Write @p contents to @p path via a same-directory temporary plus
 * atomic rename, creating parent directories.  A crash mid-write
 * leaves either the previous file or the new one, never a torn one
 * -- readers (a later --resume, Perfetto, results consumers) always
 * see a complete artifact.  On failure the temporary is removed and
 * false returned, with a message on stderr.
 */
bool writeAtomic(const std::string &path, const std::string &contents);

} // namespace pracleak::telemetry

#endif // PRACLEAK_TELEMETRY_IO_H
