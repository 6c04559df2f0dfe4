#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace pracleak {

namespace {

/** Lane of this thread; -1 unless parallelFor started it. */
thread_local int t_lane = -1;

} // namespace

unsigned
resolveThreadCount(unsigned threads)
{
    return threads != 0
               ? threads
               : std::max(1u, std::thread::hardware_concurrency());
}

int
parallelLane()
{
    return t_lane;
}

void
parallelFor(std::size_t count, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(count);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i = next++; i < count; i = next++) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    const std::size_t width =
        std::min<std::size_t>(count, resolveThreadCount(threads));
    std::vector<std::thread> workers;
    for (std::size_t lane = 0; lane + 1 < width; ++lane) {
        try {
            workers.emplace_back([&work, lane] {
                t_lane = static_cast<int>(lane);
                work();
            });
        } catch (...) {
            // std::system_error, or no memory for the thread's state:
            // the threads already started share the rest.
            break;
        }
    }
    work();
    for (std::thread &worker : workers)
        worker.join();

    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

} // namespace pracleak
