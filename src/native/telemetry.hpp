// Low-overhead lock telemetry for the native tier.
//
// The simulator attributes every step to a section (rmr/stats.hpp), so the
// paper's RMR claims are directly measurable there; the native tier used to
// be a black box. LockTelemetry makes the same behaviour visible on real
// hardware: per-thread, cache-line-padded counter slabs (acquisitions,
// contended acquisitions, aborts/timeouts, backoff stage escalations) and
// fixed-bucket log2 latency histograms for reader/writer entry and exit.
//
// Design constraints, in priority order:
//   1. Zero cost when compiled out. With RWR_TELEMETRY=0 every hook in
//      the lock implementations expands to nothing: no members, no
//      branches, no atomics -- the hot paths are bit-identical to a build
//      that never heard of telemetry.
//   2. Low overhead when on. All writes go to the calling thread's own
//      cache-line-padded slot with relaxed atomics (racing only if more
//      threads than slots exist, which stays correct -- fetch_add -- just
//      contended). Latency is *sampled*: 1 in kSampleEvery acquisitions
//      reads the clock, so the steady_clock cost is amortized to noise.
//   3. Lock-free aggregation on demand. aggregate() sums the slots with
//      relaxed loads while the workload keeps running; counters are
//      monotone, so a snapshot is a consistent lower bound at all times.
//
// Wiring: locks own a `LockTelemetry*` (null = disabled, one predictable
// branch); call sites use the RWR_TELEM(...) macro so the OFF build
// compiles them out entirely. See native/af_lock.hpp for the pattern.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "native/spin.hpp"

#ifndef RWR_TELEMETRY
#define RWR_TELEMETRY 1
#endif

#if RWR_TELEMETRY
#define RWR_TELEM(...) __VA_ARGS__
/// Evaluates to the lock's telemetry pointer member in telemetry builds and
/// to nullptr otherwise -- for passing the sink into layers (the parking
/// spots) whose *behaviour* exists in both builds but whose counting does
/// not. The argument is not evaluated (not even named) when off.
#define RWR_TELEM_PTR(expr) (expr)
#else
#define RWR_TELEM(...)
#define RWR_TELEM_PTR(expr) (static_cast<::rwr::native::LockTelemetry*>(nullptr))
#endif

namespace rwr::native {

/// Counter identities. Reader/writer track RW-lock roles; Mutex tracks
/// standalone mutexes (TournamentMutex as WL reports under Mutex so writer
/// passages are not double counted by their embedded WL climb).
enum class TelemetryCounter : std::uint32_t {
    kReaderAcquire = 0,   ///< Successful lock_shared passages entered.
    kReaderContended,     ///< ... of which waited at least once.
    kReaderAbort,         ///< Failed try/timed lock_shared (incl. timeouts).
    kWriterAcquire,       ///< Successful lock passages entered.
    kWriterContended,     ///< ... of which waited at least once.
    kWriterAbort,         ///< Failed try/timed lock (incl. timeouts).
    kMutexAcquire,        ///< Standalone mutex acquisitions (WL, MCS, ...).
    kMutexContended,      ///< ... of which waited at least once.
    kMutexAbort,          ///< Failed try/timed mutex acquisitions.
    kReaderAbortRetry,    ///< lock_shared attempts right after an abort by
                          ///< the same reader id (the amortized-RMR
                          ///< denominator's retry traffic, E18).
    kWriterAbortRetry,    ///< Likewise for writer ids.
    kMutexAbortRetry,     ///< Likewise for standalone mutex slots.
    kBackoffYield,        ///< Waits that escalated pause -> yield.
    kBackoffSleep,        ///< Waits that escalated yield -> sleep.
    kFutexWait,           ///< Kernel (or portable-fallback) parked waits.
    kFutexWake,           ///< Wake calls issued with waiters registered.
    kParkAbort,           ///< Parked waits ended by deadline expiry.
    kNumCounters
};

/// Latency histogram identities (entry = acquisition call, exit = release).
enum class TelemetryHisto : std::uint32_t {
    kReaderEntry = 0,
    kReaderExit,
    kWriterEntry,
    kWriterExit,
    /// Time spent inside an acquisition call that ended in an abort
    /// (deadline expiry or failed try): how long a caller paid before
    /// giving up. Fed by stop_into() from the entry stopwatches, so its
    /// sampling rides the entry histograms' sequences.
    kAbortLatency,
    kNumHistos
};

inline constexpr std::uint32_t kTelemetryCounters =
    static_cast<std::uint32_t>(TelemetryCounter::kNumCounters);
inline constexpr std::uint32_t kTelemetryHistos =
    static_cast<std::uint32_t>(TelemetryHisto::kNumHistos);
/// log2 ns buckets: bucket b counts samples with latency in [2^b, 2^(b+1))
/// ns (bucket 0 also absorbs sub-ns); 40 buckets reach ~18 minutes.
inline constexpr std::uint32_t kTelemetryBuckets = 40;

/// The bucket a latency of `ns` falls in; latencies past the last bucket's
/// lower edge land in the last bucket.
constexpr std::uint32_t telemetry_bucket(std::uint64_t ns) {
    return ns == 0 ? 0
                   : std::min(kTelemetryBuckets - 1,
                              static_cast<std::uint32_t>(std::bit_width(ns) -
                                                         1));
}

constexpr std::uint64_t telemetry_bucket_upper_ns(std::uint32_t b) {
    return std::uint64_t{1} << (b + 1);
}

/// Quantile estimate from a log2 histogram: upper bound of the bucket
/// holding the sample of rank min(q·total, total − 1), q in [0,1]. 0 when
/// there are no samples.
inline std::uint64_t telemetry_quantile_ns(
    const std::array<std::uint64_t, kTelemetryBuckets>& buckets, double q) {
    std::uint64_t total = 0;
    for (const auto v : buckets) {
        total += v;
    }
    if (total == 0) {
        return 0;
    }
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
    if (rank >= total) {
        rank = total - 1;
    }
    std::uint64_t seen = 0;
    for (std::uint32_t b = 0; b < kTelemetryBuckets; ++b) {
        seen += buckets[b];
        if (seen > rank) {
            return telemetry_bucket_upper_ns(b);
        }
    }
    return telemetry_bucket_upper_ns(kTelemetryBuckets - 1);
}

inline const char* to_string(TelemetryCounter c) {
    switch (c) {
        case TelemetryCounter::kReaderAcquire: return "reader_acquisitions";
        case TelemetryCounter::kReaderContended: return "reader_contended";
        case TelemetryCounter::kReaderAbort: return "reader_aborts";
        case TelemetryCounter::kWriterAcquire: return "writer_acquisitions";
        case TelemetryCounter::kWriterContended: return "writer_contended";
        case TelemetryCounter::kWriterAbort: return "writer_aborts";
        case TelemetryCounter::kMutexAcquire: return "mutex_acquisitions";
        case TelemetryCounter::kMutexContended: return "mutex_contended";
        case TelemetryCounter::kMutexAbort: return "mutex_aborts";
        case TelemetryCounter::kReaderAbortRetry: return "reader_abort_retries";
        case TelemetryCounter::kWriterAbortRetry: return "writer_abort_retries";
        case TelemetryCounter::kMutexAbortRetry: return "mutex_abort_retries";
        case TelemetryCounter::kBackoffYield: return "backoff_yield_transitions";
        case TelemetryCounter::kBackoffSleep: return "backoff_sleep_transitions";
        case TelemetryCounter::kFutexWait: return "futex_waits";
        case TelemetryCounter::kFutexWake: return "futex_wakes";
        case TelemetryCounter::kParkAbort: return "park_aborts";
        default: return "?";
    }
}

inline const char* to_string(TelemetryHisto h) {
    switch (h) {
        case TelemetryHisto::kReaderEntry: return "reader_entry";
        case TelemetryHisto::kReaderExit: return "reader_exit";
        case TelemetryHisto::kWriterEntry: return "writer_entry";
        case TelemetryHisto::kWriterExit: return "writer_exit";
        case TelemetryHisto::kAbortLatency: return "abort_latency";
        default: return "?";
    }
}

/// Plain-value aggregate of a LockTelemetry instance; safe to copy around,
/// subtract (interval deltas) and serialize.
struct TelemetrySnapshot {
    std::array<std::uint64_t, kTelemetryCounters> counters{};
    std::array<std::array<std::uint64_t, kTelemetryBuckets>, kTelemetryHistos>
        histos{};

    [[nodiscard]] std::uint64_t count(TelemetryCounter c) const {
        return counters[static_cast<std::uint32_t>(c)];
    }

    [[nodiscard]] std::uint64_t samples(TelemetryHisto h) const {
        std::uint64_t total = 0;
        for (const auto v : histos[static_cast<std::uint32_t>(h)]) {
            total += v;
        }
        return total;
    }

    /// See telemetry_quantile_ns.
    [[nodiscard]] std::uint64_t quantile_ns(TelemetryHisto h,
                                            double q) const {
        return telemetry_quantile_ns(histos[static_cast<std::uint32_t>(h)],
                                     q);
    }

    TelemetrySnapshot& operator-=(const TelemetrySnapshot& o) {
        for (std::uint32_t c = 0; c < kTelemetryCounters; ++c) {
            counters[c] -= o.counters[c];
        }
        for (std::uint32_t h = 0; h < kTelemetryHistos; ++h) {
            for (std::uint32_t b = 0; b < kTelemetryBuckets; ++b) {
                histos[h][b] -= o.histos[h][b];
            }
        }
        return *this;
    }
};

constexpr bool telemetry_enabled() { return RWR_TELEMETRY != 0; }

#if RWR_TELEMETRY

/// Cache-line-padded per-id flag for the abort-retry tracking arrays: each
/// flag is written on every attempt by the id's owning thread, so packing
/// 64 per line would bounce that line across cores (same rationale as the
/// misuse-check guards in af_lock.hpp). Telemetry builds only.
struct alignas(64) TelemetryFlag {
    std::atomic<std::uint8_t> v{0};
};
static_assert(sizeof(TelemetryFlag) == 64 && alignof(TelemetryFlag) == 64,
              "retry flags must not share cache lines");

namespace detail {
/// Process-wide thread index for slot hashing; assigned once per thread on
/// first telemetry touch. Instance-independent on purpose: one TLS read,
/// no per-instance registry on the hot path.
inline std::uint32_t telemetry_thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t idx =
        next.fetch_add(1, std::memory_order_relaxed);
    return idx;
}
}  // namespace detail

class LockTelemetry {
   public:
    /// `slots`: per-thread slab count (rounded up to a power of two). More
    /// concurrent threads than slots stays correct -- the colliding threads
    /// share a slab with relaxed fetch_adds.
    explicit LockTelemetry(std::uint32_t slots = 64)
        : mask_(std::bit_ceil(slots == 0 ? 1u : slots) - 1),
          slots_(std::make_unique<Slot[]>(mask_ + 1)) {}

    LockTelemetry(const LockTelemetry&) = delete;
    LockTelemetry& operator=(const LockTelemetry&) = delete;

    void count(TelemetryCounter c, std::uint64_t delta = 1) {
        slot().counters[static_cast<std::uint32_t>(c)].fetch_add(
            delta, std::memory_order_relaxed);
    }

    /// One in kSampleEvery events gets timed, keeping clock reads off the
    /// common path. The sequence is thread-local and plain (not atomic):
    /// the decision needs no cross-thread coordination, and an RMW here
    /// would be the single hottest telemetry instruction -- it runs on
    /// every acquisition and release. Kept per histogram: one shared
    /// counter plus a strictly alternating entry/exit call pattern would
    /// park the (even) sampling period on entries forever and leave the
    /// exit histograms empty.
    [[nodiscard]] bool should_sample(TelemetryHisto h) {
        thread_local std::uint32_t seqs[kTelemetryHistos] = {};
        return (seqs[static_cast<std::uint32_t>(h)]++ &
                (kSampleEvery - 1)) == 0;
    }

    void record_ns(TelemetryHisto h, std::uint64_t ns) {
        slot().histos[static_cast<std::uint32_t>(h)][telemetry_bucket(ns)]
            .fetch_add(1, std::memory_order_relaxed);
    }

    /// Record which escalation stage a finished wait reached. Call once per
    /// await loop, after it exits (the stage is monotone within one wait).
    void note_backoff(const Backoff& b) {
        switch (b.stage()) {
            case Backoff::Stage::Sleep:
                count(TelemetryCounter::kBackoffSleep);
                [[fallthrough]];
            case Backoff::Stage::Yield:
                count(TelemetryCounter::kBackoffYield);
                break;
            case Backoff::Stage::Spin:
                break;
        }
    }

    /// Lock-free on-demand aggregation: relaxed-sums every slab. Safe to
    /// call concurrently with a running workload; counters are monotone so
    /// the result is a consistent point-in-time lower bound.
    [[nodiscard]] TelemetrySnapshot aggregate() const {
        TelemetrySnapshot snap;
        for (std::uint32_t s = 0; s <= mask_; ++s) {
            const Slot& slot = slots_[s];
            for (std::uint32_t c = 0; c < kTelemetryCounters; ++c) {
                snap.counters[c] +=
                    slot.counters[c].load(std::memory_order_relaxed);
            }
            for (std::uint32_t h = 0; h < kTelemetryHistos; ++h) {
                for (std::uint32_t b = 0; b < kTelemetryBuckets; ++b) {
                    snap.histos[h][b] +=
                        slot.histos[h][b].load(std::memory_order_relaxed);
                }
            }
        }
        return snap;
    }

    static constexpr std::uint32_t kSampleEvery = 16;  // Power of two.

   private:
    struct alignas(64) Slot {
        std::atomic<std::uint64_t> counters[kTelemetryCounters]{};
        std::atomic<std::uint64_t> histos[kTelemetryHistos]
                                         [kTelemetryBuckets]{};
    };
    static_assert(sizeof(Slot) % 64 == 0,
                  "telemetry slabs must not share cache lines");

    Slot& slot() {
        return slots_[detail::telemetry_thread_index() & mask_];
    }

    std::uint32_t mask_;
    std::unique_ptr<Slot[]> slots_;
};

/// RAII-ish sampled stopwatch for a lock hot path: reads the clock in the
/// constructor iff this event is sampled (decided by the histogram's own
/// sequence), records on stop(). The whole object lives in
/// registers/stack; no atomics unless sampled.
class TelemetryStopwatch {
   public:
    TelemetryStopwatch(LockTelemetry* t, TelemetryHisto h)
        : t_(t), h_(h), armed_(t != nullptr && t->should_sample(h)) {
        if (armed_) {
            start_ = std::chrono::steady_clock::now();
        }
    }

    void stop() { stop_into(h_); }

    /// Record into a different histogram than the one whose sampling
    /// sequence armed the stopwatch -- for outcome-dependent destinations
    /// (an acquisition that ends in an abort reports under kAbortLatency
    /// instead of its entry histogram).
    void stop_into(TelemetryHisto h) {
        if (armed_) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            t_->record_ns(h, ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
            armed_ = false;
        }
    }

   private:
    LockTelemetry* t_;
    TelemetryHisto h_;
    bool armed_;
    std::chrono::steady_clock::time_point start_{};
};

#else  // !RWR_TELEMETRY

/// Compiled-out shell: keeps user code (attach_telemetry calls, snapshot
/// plumbing) compiling in RWR_TELEMETRY=0 builds while the locks contain
/// no trace of it.
class LockTelemetry {
   public:
    explicit LockTelemetry(std::uint32_t = 64) {}
    LockTelemetry(const LockTelemetry&) = delete;
    LockTelemetry& operator=(const LockTelemetry&) = delete;
    void count(TelemetryCounter, std::uint64_t = 1) {}
    [[nodiscard]] bool should_sample(TelemetryHisto) { return false; }
    void record_ns(TelemetryHisto, std::uint64_t) {}
    void note_backoff(const Backoff&) {}
    [[nodiscard]] TelemetrySnapshot aggregate() const { return {}; }
    static constexpr std::uint32_t kSampleEvery = 16;
};

class TelemetryStopwatch {
   public:
    TelemetryStopwatch(LockTelemetry*, TelemetryHisto) {}
    void stop() {}
    void stop_into(TelemetryHisto) {}
};

#endif  // RWR_TELEMETRY

}  // namespace rwr::native
