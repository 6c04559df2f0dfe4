/**
 * @file
 * Shared fixed-size thread pool for fan-out across independent
 * simulations.
 *
 * Generalizes the ad-hoc batched std::async executor the benches
 * used to carry: work is a FIFO of type-erased tasks, and blocking
 * collectors *help drain the queue* while they wait (tryRunOne), so
 * nested fan-out -- a pooled scenario point that itself calls map()
 * -- cannot deadlock the pool.
 */

#ifndef PRACLEAK_SIM_THREAD_POOL_H
#define PRACLEAK_SIM_THREAD_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pracleak::sim {

class ThreadPool
{
  public:
    /** @p threads == 0 picks hardware_concurrency (min 2). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Lane index of the calling thread: 0..threads-1 on a pool
     * worker, -1 elsewhere (the main thread, including when it helps
     * drain the queue from a blocking collector).  Telemetry uses
     * this to assign trace spans to per-worker lanes; it is stable
     * for the lifetime of the thread.
     */
    static int currentLane();

    unsigned threadCount() const { return threadCount_; }

    /** Enqueue fire-and-forget work. */
    void submit(std::function<void()> task);

    /**
     * Run one queued task on the calling thread if any is pending.
     * Returns false when the queue was empty.
     */
    bool tryRunOne();

    /**
     * Run every job and return the results in order.  The calling
     * thread participates, so this is safe to invoke from inside a
     * pool task.  The first exception thrown by a job is rethrown
     * after all jobs finish.
     */
    template <typename T>
    std::vector<T> map(std::vector<std::function<T()>> jobs)
    {
        // vector<bool> packs bits; concurrent slot writes would race.
        static_assert(!std::is_same_v<T, bool>,
                      "map<bool> would race on the packed vector");
        std::vector<T> results(jobs.size());
        std::atomic<std::size_t> done{0};
        std::exception_ptr error;
        std::mutex errorMutex;

        for (std::size_t i = 0; i < jobs.size(); ++i) {
            submit([&, i] {
                try {
                    results[i] = jobs[i]();
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(errorMutex);
                    if (!error)
                        error = std::current_exception();
                }
                done.fetch_add(1, std::memory_order_release);
                finishedCv_.notify_all();
            });
        }

        waitForCount(done, jobs.size());
        if (error)
            std::rethrow_exception(error);
        return results;
    }

  private:
    void workerLoop();
    void waitForCount(const std::atomic<std::size_t> &done,
                      std::size_t target);

    unsigned threadCount_ = 0;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable finishedCv_;
    std::mutex finishedMutex_;
    bool stopping_ = false;
};

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_THREAD_POOL_H
