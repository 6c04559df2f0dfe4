/**
 * @file
 * The one parallel loop: sweeps run their grid points and trace
 * replay runs its channels through parallelFor(), and no other code
 * starts a thread.
 */

#ifndef PRACLEAK_COMMON_PARALLEL_H
#define PRACLEAK_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>

namespace pracleak {

/** @p threads, or hardware concurrency (at least 1) when it is 0. */
unsigned resolveThreadCount(unsigned threads);

/**
 * Run @p fn(i) for every i in [0, @p count) on at most
 * resolveThreadCount(@p threads) threads at once, the caller
 * included.  Each thread takes the next unstarted index from one
 * shared counter, and no more threads start than there are indices;
 * with one thread every index runs inline, in order, and no thread
 * starts.  A thread that cannot be started (std::system_error) leaves
 * its share to the others.  Every index runs even when one throws;
 * once all have finished, the exception of the lowest throwing index
 * is rethrown.  Loops nest: an inner loop runs on its caller plus
 * threads of its own.
 */
void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

/**
 * Lane of the calling thread: 0..threads-2 on a thread parallelFor
 * started, -1 on any thread it did not start, such as a loop's
 * caller.  Chrome traces map lanes to thread ids (telemetry/trace.h).
 */
int parallelLane();

} // namespace pracleak

#endif // PRACLEAK_COMMON_PARALLEL_H
