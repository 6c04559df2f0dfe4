#include "sim/thread_pool.h"

#include <algorithm>

namespace pracleak::sim {

namespace {

/** Pool-worker lane of this thread; -1 off the pool (main thread). */
thread_local int t_lane = -1;

} // namespace

int
ThreadPool::currentLane()
{
    return t_lane;
}

ThreadPool::ThreadPool(unsigned threads)
{
    threadCount_ = threads != 0
                       ? threads
                       : std::max(2u, std::thread::hardware_concurrency());
    workers_.reserve(threadCount_);
    for (unsigned i = 0; i < threadCount_; ++i)
        workers_.emplace_back([this, i] {
            t_lane = static_cast<int>(i);
            workerLoop();
        });
}

ThreadPool::~ThreadPool()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    workCv_.notify_one();
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> task;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
    }
    task();
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
            if (stopping_ && queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::waitForCount(const std::atomic<std::size_t> &done,
                         std::size_t target)
{
    while (done.load(std::memory_order_acquire) < target) {
        // Help drain the queue so nested collectors make progress
        // even when every worker is blocked in a collector itself.
        if (tryRunOne())
            continue;
        std::unique_lock<std::mutex> lock(finishedMutex_);
        if (done.load(std::memory_order_acquire) >= target)
            break;
        finishedCv_.wait_for(lock, std::chrono::milliseconds(2));
    }
}

} // namespace pracleak::sim
