// Native throughput/latency workload runner -- the measurement engine
// behind `bench_native_throughput --json` and `lab metrics`.
//
// Spawns n reader threads + m writer threads hammering one lock for a
// fixed wall duration, counts completed passages per role, and pairs the
// result with the lock's LockTelemetry aggregate (latency quantiles come
// from the sampled histograms, contention/backoff/abort counters from the
// padded per-thread slabs). Telemetry-off builds still measure throughput;
// the telemetry fields just stay zero.
//
// The run is phased: hold (threads spawned, waiting) -> warmup (full
// workload, nothing counted) -> measure -> stop. Warmup lets the parking
// layer, telemetry slabs and branch predictors settle; the telemetry
// delta is taken against a warmup-end snapshot so reported counters cover
// exactly the measured window. Process CPU time (getrusage) over that
// window is reported alongside wall time -- the parked-vs-spinning
// comparison (EXPERIMENTS.md E13) is a CPU-per-op claim, not a
// throughput claim.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#endif

#include "native/af_lock.hpp"
#include "native/baselines.hpp"
#include "native/telemetry.hpp"

namespace rwr::native::perf {

enum class PerfLock { Af, Centralized, Faa, PhaseFair };

inline const char* to_string(PerfLock l) {
    switch (l) {
        case PerfLock::Af: return "af";
        case PerfLock::Centralized: return "centralized";
        case PerfLock::Faa: return "faa";
        case PerfLock::PhaseFair: return "phase-fair";
        default: return "?";
    }
}

inline PerfLock perf_lock_from(const std::string& name) {
    if (name == "af") return PerfLock::Af;
    if (name == "centralized") return PerfLock::Centralized;
    if (name == "faa") return PerfLock::Faa;
    if (name == "phase-fair" || name == "phasefair") return PerfLock::PhaseFair;
    throw std::invalid_argument("unknown lock '" + name +
                                "' (af|centralized|faa|phase-fair)");
}

struct PerfConfig {
    PerfLock lock = PerfLock::Af;
    std::uint32_t readers = 2;       ///< Reader threads (n).
    std::uint32_t writers = 1;       ///< Writer threads (m).
    std::uint32_t f = 0;             ///< A_f parameter; 0 = ceil(sqrt(n)).
    std::uint32_t duration_ms = 200; ///< Measured wall time.
    std::uint32_t warmup_ms = 0;     ///< Unmeasured full-workload lead-in.
    /// Per-passage think time (microseconds, both roles; 0 = none). Think
    /// time plus more threads than cores is the oversubscription workload:
    /// waits span scheduling quanta, which is what parking is for.
    std::uint32_t think_us = 0;
    /// Writer critical-section dwell (microseconds; 0 = none). A held lock
    /// on a saturated host is what actually drives waiters into the
    /// terminal (parked) wait state: nanosecond CSes are almost never
    /// preempted mid-hold, so without dwell the spin/yield stages absorb
    /// everything and futex_waits stays 0 even oversubscribed.
    std::uint32_t cs_us = 0;
    /// Pin thread i to cpu (i mod hardware_concurrency). Stabilizes
    /// multi-core runs; a no-op win on 1-core CI.
    bool pin = false;
    /// Workload label carried into bench rows ("-" = the default
    /// closed-loop hammer); part of the bench_diff row key.
    std::string workload = "-";
    /// Readers yield between passages every `reader_yield_every` passages
    /// (0 = never): on oversubscribed hosts a relentless reader flood
    /// starves A_f writers (its documented fairness property) and the
    /// run never ends.
    std::uint32_t reader_yield_every = 1;

    [[nodiscard]] std::uint32_t resolved_f() const {
        if (f != 0) {
            return f;
        }
        std::uint32_t r = 1;
        while (r * r < readers) {
            ++r;
        }
        return r;
    }
};

struct PerfResult {
    PerfConfig cfg;
    double elapsed_s = 0;
    double cpu_s = 0;  ///< Process CPU (user+sys) over the measured window.
    std::uint64_t reader_ops = 0;
    std::uint64_t writer_ops = 0;
    TelemetrySnapshot telemetry;

    [[nodiscard]] double throughput_ops() const {
        return elapsed_s > 0
                   ? static_cast<double>(reader_ops + writer_ops) / elapsed_s
                   : 0;
    }
};

namespace detail {

inline double process_cpu_seconds() {
#if defined(__linux__)
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) {
        return 0;
    }
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
#else
    return 0;
#endif
}

inline void pin_self_to(std::uint32_t index) {
#if defined(__linux__)
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) {
        hw = 1;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(index % hw, &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
    (void)index;
#endif
}

/// Run phases. Workers run the full workload in both kWarmup and kMeasure
/// but count passages only in kMeasure.
enum Phase : int { kHold = 0, kWarmup = 1, kMeasure = 2, kStop = 3 };

template <typename Lock>
PerfResult drive(Lock& lock, LockTelemetry& telemetry,
                 const PerfConfig& cfg) {
    lock.attach_telemetry(&telemetry);
    std::atomic<int> phase{kHold};
    std::atomic<std::uint64_t> reader_ops{0};
    std::atomic<std::uint64_t> writer_ops{0};
    const auto think = [&] {
        if (cfg.think_us != 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(cfg.think_us));
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(cfg.readers + cfg.writers);
    for (std::uint32_t r = 0; r < cfg.readers; ++r) {
        threads.emplace_back([&, r] {
            if (cfg.pin) {
                pin_self_to(r);
            }
            while (phase.load() == kHold) {
                std::this_thread::yield();
            }
            std::uint64_t ops = 0;
            std::uint64_t passages = 0;
            for (;;) {
                const int ph = phase.load(std::memory_order_relaxed);
                if (ph == kStop) {
                    break;
                }
                lock.lock_shared(r);
                lock.unlock_shared(r);
                ++passages;
                if (ph == kMeasure) {
                    ++ops;
                }
                think();
                if (cfg.reader_yield_every != 0 &&
                    passages % cfg.reader_yield_every == 0) {
                    std::this_thread::yield();
                }
            }
            reader_ops.fetch_add(ops);
        });
    }
    for (std::uint32_t w = 0; w < cfg.writers; ++w) {
        threads.emplace_back([&, w] {
            if (cfg.pin) {
                pin_self_to(cfg.readers + w);
            }
            while (phase.load() == kHold) {
                std::this_thread::yield();
            }
            std::uint64_t ops = 0;
            for (;;) {
                const int ph = phase.load(std::memory_order_relaxed);
                if (ph == kStop) {
                    break;
                }
                lock.lock(w);
                if (cfg.cs_us != 0) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(cfg.cs_us));
                }
                lock.unlock(w);
                if (ph == kMeasure) {
                    ++ops;
                }
                think();
                std::this_thread::yield();  // Let readers breathe.
            }
            writer_ops.fetch_add(ops);
        });
    }

    phase.store(kWarmup);
    if (cfg.warmup_ms != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(cfg.warmup_ms));
    }
    const TelemetrySnapshot warm = telemetry.aggregate();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    phase.store(kMeasure);
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
    phase.store(kStop);
    for (auto& t : threads) {
        t.join();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double cpu1 = process_cpu_seconds();

    PerfResult res;
    res.cfg = cfg;
    res.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
    res.cpu_s = cpu1 - cpu0;
    res.reader_ops = reader_ops.load();
    res.writer_ops = writer_ops.load();
    res.telemetry = telemetry.aggregate();
    res.telemetry -= warm;  // Counters cover the measured window only.
    lock.attach_telemetry(nullptr);
    return res;
}

}  // namespace detail

/// Runs one workload; constructs the lock fresh so telemetry and lock
/// state start from zero.
inline PerfResult run_perf(const PerfConfig& cfg) {
    if (cfg.readers == 0 || cfg.writers == 0) {
        throw std::invalid_argument("perf: need >= 1 reader and writer");
    }
    LockTelemetry telemetry;
    switch (cfg.lock) {
        case PerfLock::Af: {
            AfLock lock(cfg.readers, cfg.writers, cfg.resolved_f());
            return detail::drive(lock, telemetry, cfg);
        }
        case PerfLock::Centralized: {
            CentralizedRWLock lock;
            return detail::drive(lock, telemetry, cfg);
        }
        case PerfLock::Faa: {
            FaaRWLock lock(cfg.writers);
            return detail::drive(lock, telemetry, cfg);
        }
        case PerfLock::PhaseFair: {
            PhaseFairRWLock lock(cfg.writers);
            return detail::drive(lock, telemetry, cfg);
        }
    }
    throw std::logic_error("perf: unreachable lock kind");
}

}  // namespace rwr::native::perf
