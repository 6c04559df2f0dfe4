/**
 * @file
 * A process-wide memo for deterministic, expensive results shared
 * across sweep points (baseline runs, calibration runs).
 */

#ifndef PRACLEAK_SIM_MEMO_H
#define PRACLEAK_SIM_MEMO_H

#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <utility>

namespace pracleak::sim {

/**
 * One shared_future per key: the first caller of a key computes it
 * outside the lock, concurrent callers of that key wait on its
 * future instead of recomputing, and callers of other keys run in
 * parallel.  A throwing computation rethrows to every caller of its
 * key.
 */
template <typename Key, typename Value>
class Memo
{
  public:
    /**
     * The shared future of @p key's value.  The first caller computes
     * it with @p compute before returning; later callers get the
     * future at once, so they can overlap other work before waiting
     * on it.  A value read through the future stays valid until
     * clear().
     */
    template <typename Compute>
    std::shared_future<Value>
    get(const Key &key, Compute &&compute)
    {
        std::promise<Value> promise;
        std::shared_future<Value> future;
        bool owner = false;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            const auto [it, inserted] = cache_.try_emplace(key);
            if (inserted) {
                it->second = promise.get_future().share();
                owner = true;
            }
            future = it->second;
        }
        if (owner) {
            try {
                promise.set_value(std::forward<Compute>(compute)());
            } catch (...) {
                promise.set_exception(std::current_exception());
            }
        }
        return future;
    }

    /** Drop every memoized value. */
    void
    clear()
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        cache_.clear();
    }

  private:
    std::mutex mutex_;
    std::map<Key, std::shared_future<Value>> cache_;
};

} // namespace pracleak::sim

#endif // PRACLEAK_SIM_MEMO_H
