// Id-less facade over AfLock conforming to the std::shared_mutex usage
// pattern, so it composes with std::shared_lock / std::unique_lock:
//
//   rwr::native::AfSharedMutex mtx(/*max_readers=*/64, /*max_writers=*/8);
//   { std::shared_lock lk(mtx);  ... concurrent readers ... }
//   { std::unique_lock lk(mtx);  ... exclusive writer ... }
//
// Threads are lazily assigned reader/writer slots on first use; slots are
// returned when the thread exits. A thread may not hold the lock in both
// modes, nor recursively.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "native/af_lock.hpp"

namespace rwr::native {

namespace detail {

/// Thread-slot pool: hands out the lowest free slot, reclaims on thread
/// exit via thread_local destructors.
class SlotPool {
   public:
    explicit SlotPool(std::uint32_t capacity) {
        free_.reserve(capacity);
        for (std::uint32_t i = capacity; i-- > 0;) {
            free_.push_back(i);
        }
    }

    std::uint32_t acquire() {
        std::lock_guard<std::mutex> g(mu_);
        if (free_.empty()) {
            throw std::runtime_error(
                "AfSharedMutex: more concurrent threads than declared slots");
        }
        const std::uint32_t s = free_.back();
        free_.pop_back();
        return s;
    }

    void release(std::uint32_t s) {
        std::lock_guard<std::mutex> g(mu_);
        free_.push_back(s);
    }

   private:
    std::mutex mu_;
    std::vector<std::uint32_t> free_;
};

/// Per-thread slot lease keyed by pool instance. Pools are owned through
/// shared_ptr and leased through weak_ptr: a thread outliving the mutex (or
/// the mutex outliving the thread) must not touch freed memory when the
/// lease is returned at thread exit.
class ThreadSlots {
   public:
    std::uint32_t get(const std::shared_ptr<SlotPool>& pool) {
        auto it = leases_.find(pool.get());
        if (it != leases_.end()) {
            return it->second.slot;
        }
        const std::uint32_t s = pool->acquire();
        leases_.emplace(pool.get(), Lease{pool, s});
        return s;
    }

    ~ThreadSlots() {
        for (auto& [key, lease] : leases_) {
            if (auto pool = lease.pool.lock()) {
                pool->release(lease.slot);
            }
        }
    }

   private:
    struct Lease {
        std::weak_ptr<SlotPool> pool;
        std::uint32_t slot;
    };
    std::unordered_map<const SlotPool*, Lease> leases_;
};

inline ThreadSlots& thread_slots() {
    thread_local ThreadSlots slots;
    return slots;
}

}  // namespace detail

class AfSharedMutex {
   public:
    /// `f` defaults to sqrt-balanced: ceil(sqrt(max_readers)).
    AfSharedMutex(std::uint32_t max_readers, std::uint32_t max_writers,
                  std::uint32_t f = 0)
        : lock_(max_readers, max_writers,
                f != 0 ? f : default_f(max_readers)),
          reader_slots_(std::make_shared<detail::SlotPool>(max_readers)),
          writer_slots_(std::make_shared<detail::SlotPool>(max_writers)) {}

    AfSharedMutex(const AfSharedMutex&) = delete;
    AfSharedMutex& operator=(const AfSharedMutex&) = delete;

    /// Forwarded to the underlying AfLock (and its WL); attach before
    /// starting the workload. No-op when RWR_TELEMETRY=0.
    void attach_telemetry(LockTelemetry* t) { lock_.attach_telemetry(t); }

    void lock_shared() {
        lock_.lock_shared(detail::thread_slots().get(reader_slots_));
    }
    void unlock_shared() {
        lock_.unlock_shared(detail::thread_slots().get(reader_slots_));
    }
    void lock() { lock_.lock(detail::thread_slots().get(writer_slots_)); }
    void unlock() {
        lock_.unlock(detail::thread_slots().get(writer_slots_));
    }

    // std::shared_timed_mutex-style abortable acquisition; composes with
    // std::shared_lock/std::unique_lock try_to_lock and timed constructors.
    bool try_lock_shared() {
        return lock_.try_lock_shared(detail::thread_slots().get(reader_slots_));
    }
    bool try_lock() {
        return lock_.try_lock(detail::thread_slots().get(writer_slots_));
    }
    template <class Rep, class Period>
    bool try_lock_shared_for(std::chrono::duration<Rep, Period> timeout) {
        return lock_.try_lock_shared_for(
            detail::thread_slots().get(reader_slots_), timeout);
    }
    template <class Rep, class Period>
    bool try_lock_for(std::chrono::duration<Rep, Period> timeout) {
        return lock_.try_lock_for(detail::thread_slots().get(writer_slots_),
                                  timeout);
    }
    template <class Clock, class Duration>
    bool try_lock_shared_until(
        std::chrono::time_point<Clock, Duration> deadline) {
        return try_lock_shared_for(deadline - Clock::now());
    }
    template <class Clock, class Duration>
    bool try_lock_until(std::chrono::time_point<Clock, Duration> deadline) {
        return try_lock_for(deadline - Clock::now());
    }

    [[nodiscard]] const AfLock& underlying() const { return lock_; }

   private:
    static std::uint32_t default_f(std::uint32_t n) {
        std::uint32_t f = 1;
        while (f * f < n) {
            ++f;
        }
        return f;
    }

    AfLock lock_;
    std::shared_ptr<detail::SlotPool> reader_slots_;
    std::shared_ptr<detail::SlotPool> writer_slots_;
};

}  // namespace rwr::native
