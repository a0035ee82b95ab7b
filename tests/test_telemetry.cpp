// LockTelemetry behaviour with RWR_TELEMETRY on (the build default):
// exact counter accounting single-threaded, exact totals under an 8-thread
// workload (this test runs under TSan in CI -- any counter race is a bug),
// histogram bucketing/quantiles, and detachment semantics.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "native/af_lock.hpp"
#include "native/baselines.hpp"
#include "native/mutex.hpp"
#include "native/park.hpp"
#include "native/shared_mutex.hpp"
#include "native/telemetry.hpp"

namespace {

using namespace rwr::native;

TEST(TelemetryTest, EnabledInDefaultBuild) {
    EXPECT_TRUE(telemetry_enabled());
}

TEST(TelemetryTest, SingleThreadedExactCounts) {
    LockTelemetry telemetry;
    AfLock lock(4, 2, 2);
    lock.attach_telemetry(&telemetry);

    constexpr int kReaderPassages = 10;
    constexpr int kWriterPassages = 7;
    for (int i = 0; i < kReaderPassages; ++i) {
        lock.lock_shared(1);
        lock.unlock_shared(1);
    }
    for (int i = 0; i < kWriterPassages; ++i) {
        lock.lock(0);
        lock.unlock(0);
    }

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire), kReaderPassages);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire), kWriterPassages);
    // Uncontended throughout: nobody waited, nobody aborted.
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderContended), 0u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterContended), 0u);
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbort), 0u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAbort), 0u);
    // The embedded WL reports under mutex_*, one acquisition per writer
    // passage -- writer passages are not double counted.
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAcquire), kWriterPassages);
}

TEST(TelemetryTest, AbortsAreCounted) {
    LockTelemetry telemetry;
    AfLock lock(2, 1, 1);
    lock.attach_telemetry(&telemetry);

    // Writer in its critical section => RSIG is WAIT => a reader try fails.
    lock.lock(0);
    EXPECT_FALSE(lock.try_lock_shared(0));
    EXPECT_FALSE(lock.try_lock_shared(1));
    lock.unlock(0);

    // Reader present => a writer try fails (rolls the passage forward).
    lock.lock_shared(0);
    EXPECT_FALSE(lock.try_lock(0));
    lock.unlock_shared(0);

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbort), 2u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAbort), 1u);
    // Failed acquisitions are not acquisitions.
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire), 1u);
}

TEST(TelemetryTest, AbortRetriesAreCountedExactly) {
    LockTelemetry telemetry;
    AfLock lock(2, 2, 1);
    lock.attach_telemetry(&telemetry);

    // Writer in its CS: two failed reader tries by id 0 (the second is a
    // retry), one by id 1 (no retry), then a successful lock_shared by id
    // 0 -- also a retry: the flag records "previous attempt aborted", not
    // the new attempt's outcome.
    lock.lock(0);
    EXPECT_FALSE(lock.try_lock_shared(0));
    EXPECT_FALSE(lock.try_lock_shared(0));
    EXPECT_FALSE(lock.try_lock_shared(1));
    lock.unlock(0);
    lock.lock_shared(0);
    lock.unlock_shared(0);

    // Reader present: writer tries fail past the WL; the second try by
    // writer id 0 is a retry. This lock_shared(1) is reader id 1's first
    // attempt since its aborted try above -- a third reader retry.
    lock.lock_shared(1);
    EXPECT_FALSE(lock.try_lock(0));
    EXPECT_FALSE(lock.try_lock(0));
    EXPECT_FALSE(lock.try_lock(1));
    lock.unlock_shared(1);

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbort), 3u);
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbortRetry), 3u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAbort), 3u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAbortRetry), 1u);
    // The writer tries won the (uncontended) WL before aborting at the
    // reader-group handshake: WL acquisitions, no WL aborts.
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAbort), 0u);
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAbortRetry), 0u);
}

TEST(TelemetryTest, MutexAbortRetriesAreCountedExactly) {
    LockTelemetry telemetry;
    TournamentMutex mx(2);
    mx.attach_telemetry(&telemetry);
    mx.lock(0);
    EXPECT_FALSE(mx.try_lock(1));  // Abort, no retry.
    EXPECT_FALSE(mx.try_lock(1));  // Abort, retry.
    mx.unlock(0);
    mx.lock(1);  // Retry that succeeds.
    mx.unlock(1);
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAbort), 2u);
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAbortRetry), 2u);
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAcquire), 2u);
}

TEST(TelemetryTest, AbortLatencyIsSampled) {
    LockTelemetry telemetry;
    TournamentMutex mx(2);
    mx.attach_telemetry(&telemetry);
    mx.lock(0);
    // The abort stopwatch arms on kAbortLatency's thread-local sampling
    // sequence (period kSampleEvery), whose phase other tests in this
    // thread may have advanced: 2 * kSampleEvery consecutive aborts
    // guarantee at least one sampled record wherever the phase sits.
    for (std::uint32_t i = 0; i < 2 * LockTelemetry::kSampleEvery; ++i) {
        EXPECT_FALSE(mx.try_lock(1));
    }
    mx.unlock(0);
    const auto snap = telemetry.aggregate();
    EXPECT_GE(snap.samples(TelemetryHisto::kAbortLatency), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAbort),
              2u * LockTelemetry::kSampleEvery);
}

TEST(TelemetryTest, DetachedLockCountsNothing) {
    LockTelemetry telemetry;
    AfLock lock(2, 1, 1);
    lock.attach_telemetry(&telemetry);
    lock.lock_shared(0);
    lock.unlock_shared(0);
    lock.attach_telemetry(nullptr);
    lock.lock_shared(0);
    lock.unlock_shared(0);
    EXPECT_EQ(telemetry.aggregate().count(TelemetryCounter::kReaderAcquire),
              1u);
}

TEST(TelemetryTest, SharedMutexFacadePropagates) {
    LockTelemetry telemetry;
    AfSharedMutex mx(4, 2);
    mx.attach_telemetry(&telemetry);
    {
        std::shared_lock<AfSharedMutex> r(mx);
    }
    {
        std::unique_lock<AfSharedMutex> w(mx);
    }
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire), 1u);
}

TEST(TelemetryTest, BaselinesReportSameAxes) {
    {
        LockTelemetry telemetry;
        CentralizedRWLock lock;
        lock.attach_telemetry(&telemetry);
        lock.lock_shared();
        lock.unlock_shared();
        lock.lock();
        lock.unlock();
        const auto snap = telemetry.aggregate();
        EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire), 1u);
        EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire), 1u);
    }
    {
        LockTelemetry telemetry;
        FaaRWLock lock(1);
        lock.attach_telemetry(&telemetry);
        lock.lock_shared();
        lock.unlock_shared();
        lock.lock(0);
        lock.unlock(0);
        const auto snap = telemetry.aggregate();
        EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire), 1u);
        EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire), 1u);
        EXPECT_EQ(snap.count(TelemetryCounter::kMutexAcquire), 1u);
    }
    {
        LockTelemetry telemetry;
        PhaseFairRWLock lock(1);
        lock.attach_telemetry(&telemetry);
        lock.lock_shared();
        lock.unlock_shared();
        lock.lock(0);
        lock.unlock(0);
        const auto snap = telemetry.aggregate();
        EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire), 1u);
        EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire), 1u);
    }
}

// 8 concurrent threads, exact totals. Runs under TSan in CI: the per-slot
// relaxed atomics must be a race-free way to share slabs, and aggregate()
// must be safe to call while the workload is still running (exercised via
// the mid-flight sum below -- its value is unasserted; TSan asserts the
// absence of races).
TEST(TelemetryTest, MultiThreadedExactTotals) {
    constexpr std::uint32_t kReaders = 6;
    constexpr std::uint32_t kWriters = 2;
    constexpr int kPassages = 400;

    LockTelemetry telemetry;
    AfLock lock(kReaders, kWriters, 2);
    lock.attach_telemetry(&telemetry);

    std::vector<std::thread> threads;
    threads.reserve(kReaders + kWriters);
    for (std::uint32_t r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r] {
            for (int i = 0; i < kPassages; ++i) {
                lock.lock_shared(r);
                lock.unlock_shared(r);
                if (i % 16 == 0) {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (std::uint32_t w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            for (int i = 0; i < kPassages; ++i) {
                lock.lock(w);
                lock.unlock(w);
                std::this_thread::yield();
            }
        });
    }
    // Concurrent aggregation is part of the contract.
    const auto midflight = telemetry.aggregate();
    (void)midflight;
    for (auto& t : threads) {
        t.join();
    }

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAcquire),
              static_cast<std::uint64_t>(kReaders) * kPassages);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAcquire),
              static_cast<std::uint64_t>(kWriters) * kPassages);
    EXPECT_EQ(snap.count(TelemetryCounter::kMutexAcquire),
              static_cast<std::uint64_t>(kWriters) * kPassages);
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbort), 0u);
    EXPECT_EQ(snap.count(TelemetryCounter::kWriterAbort), 0u);
    // Contended counts are schedule-dependent; they only must not exceed
    // the acquisition counts they qualify.
    EXPECT_LE(snap.count(TelemetryCounter::kReaderContended),
              snap.count(TelemetryCounter::kReaderAcquire));
    EXPECT_LE(snap.count(TelemetryCounter::kWriterContended),
              snap.count(TelemetryCounter::kWriterAcquire));
}

TEST(TelemetryTest, HistogramBucketsAndQuantiles) {
    LockTelemetry telemetry;
    // 8 samples at ~2^4 ns, 2 at ~2^10 ns: p50 lands in the low bucket,
    // p90/max in the high one. Quantiles report bucket upper bounds.
    for (int i = 0; i < 8; ++i) {
        telemetry.record_ns(TelemetryHisto::kReaderEntry, 16);
    }
    telemetry.record_ns(TelemetryHisto::kReaderEntry, 1024);
    telemetry.record_ns(TelemetryHisto::kReaderEntry, 1500);

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.samples(TelemetryHisto::kReaderEntry), 10u);
    EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kReaderEntry, 0.50), 32u);
    EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kReaderEntry, 0.90), 2048u);
    EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kReaderEntry, 1.0), 2048u);
    EXPECT_EQ(snap.samples(TelemetryHisto::kWriterEntry), 0u);
    EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kWriterEntry, 0.5), 0u);
}

// ---- The shared log2 histogram helpers -------------------------------------
// telemetry_bucket and telemetry_quantile_ns are also what dist's
// SessionStats uses, so their edges and rank rule are pinned here.

using Buckets = std::array<std::uint64_t, kTelemetryBuckets>;

TEST(TelemetryHistogram, ZeroAndOneNsShareTheFirstBucket) {
    EXPECT_EQ(telemetry_bucket(0), 0u);
    EXPECT_EQ(telemetry_bucket(1), 0u);
    EXPECT_EQ(telemetry_bucket(2), 1u);
    EXPECT_EQ(telemetry_bucket_upper_ns(0), 2u);
}

TEST(TelemetryHistogram, EachPowerOfTwoOpensItsBucket) {
    for (std::uint32_t b = 0; b + 1 < kTelemetryBuckets; ++b) {
        const std::uint64_t lower = std::uint64_t{1} << b;
        EXPECT_EQ(telemetry_bucket(lower), b);
        EXPECT_EQ(telemetry_bucket(2 * lower - 1), b);
        // A bucket's upper bound is the next bucket's lower edge.
        EXPECT_EQ(telemetry_bucket_upper_ns(b), 2 * lower);
        EXPECT_EQ(telemetry_bucket(telemetry_bucket_upper_ns(b)), b + 1);
    }
}

TEST(TelemetryHistogram, LatenciesPastTheLastEdgeLandInTheLastBucket) {
    constexpr std::uint32_t kLast = kTelemetryBuckets - 1;
    EXPECT_EQ(telemetry_bucket(std::uint64_t{1} << kLast), kLast);
    EXPECT_EQ(telemetry_bucket(std::uint64_t{1} << 50), kLast);
    EXPECT_EQ(telemetry_bucket(std::numeric_limits<std::uint64_t>::max()),
              kLast);
}

TEST(TelemetryHistogram, QuantileOfAnEmptyHistogramIsZero) {
    const Buckets empty{};
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(telemetry_quantile_ns(empty, q), 0u) << "q=" << q;
    }
}

TEST(TelemetryHistogram, QuantileRankIsMinOfQTimesTotalAndTheLast) {
    // One sample each in buckets 1, 3, 5, 7 (total 4): rank floor(4q),
    // clamped to 3.
    Buckets h{};
    for (const std::uint32_t b : {1u, 3u, 5u, 7u}) {
        h[b] = 1;
    }
    EXPECT_EQ(telemetry_quantile_ns(h, 0.0), 4u);
    EXPECT_EQ(telemetry_quantile_ns(h, 0.24), 4u);
    EXPECT_EQ(telemetry_quantile_ns(h, 0.25), 16u);
    EXPECT_EQ(telemetry_quantile_ns(h, 0.74), 64u);
    EXPECT_EQ(telemetry_quantile_ns(h, 0.75), 256u);
    EXPECT_EQ(telemetry_quantile_ns(h, 1.0), 256u);
}

TEST(TelemetryHistogram, QuantileIsMonotoneInQ) {
    Buckets h{};
    h[0] = 3;
    h[4] = 10;
    h[5] = 1;
    h[12] = 7;
    h[kTelemetryBuckets - 1] = 2;
    std::uint64_t prev = 0;
    for (int i = 0; i <= 100; ++i) {
        const double q = i / 100.0;
        const std::uint64_t v = telemetry_quantile_ns(h, q);
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }
    EXPECT_EQ(prev, telemetry_bucket_upper_ns(kTelemetryBuckets - 1));
}

TEST(TelemetryHistogram, SnapshotQuantileIsTheSharedHelper) {
    LockTelemetry telemetry;
    Buckets h{};
    for (const std::uint64_t ns : {0ull, 7ull, 300ull, 300ull, 5000ull,
                                   1ull << 45}) {
        telemetry.record_ns(TelemetryHisto::kWriterExit, ns);
        ++h[telemetry_bucket(ns)];
    }
    const auto snap = telemetry.aggregate();
    for (int i = 0; i <= 20; ++i) {
        const double q = i / 20.0;
        EXPECT_EQ(snap.quantile_ns(TelemetryHisto::kWriterExit, q),
                  telemetry_quantile_ns(h, q))
            << "q=" << q;
    }
}

TEST(TelemetryTest, SnapshotSubtractionGivesIntervalDeltas) {
    LockTelemetry telemetry;
    telemetry.count(TelemetryCounter::kReaderAcquire, 5);
    auto before = telemetry.aggregate();
    telemetry.count(TelemetryCounter::kReaderAcquire, 3);
    auto after = telemetry.aggregate();
    after -= before;
    EXPECT_EQ(after.count(TelemetryCounter::kReaderAcquire), 3u);
}

TEST(TelemetryTest, BackoffStageNoting) {
    LockTelemetry telemetry;
    Backoff fresh;  // Never paused: no transition happened.
    telemetry.note_backoff(fresh);

    Backoff yielded;
    for (int i = 0; i <= Backoff::spin_limit(); ++i) {
        yielded.pause();
    }
    telemetry.note_backoff(yielded);

    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kBackoffYield), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kBackoffSleep), 0u);
}

// ---- Parking counters ------------------------------------------------------

TEST(TelemetryTest, ParkTimeoutCountsAreExact) {
    // Single-threaded and fully deterministic: nobody wakes the spot, so
    // the timed park must run to its deadline. One kernel wait per park
    // call (spurious EINTR wakes re-park and re-count), exactly one abort
    // for the final timeout, zero wakes.
    LockTelemetry telemetry;
    ParkingSpot spot;
    Deadline deadline = Deadline::after(std::chrono::milliseconds(20));
    std::uint64_t parks = 0;
    ParkResult r;
    do {
        r = spot.park(deadline, &telemetry, [] { return false; });
        ++parks;
    } while (r == ParkResult::kUnparked);
    EXPECT_EQ(r, ParkResult::kTimedOut);
    const auto snap = telemetry.aggregate();
    EXPECT_EQ(snap.count(TelemetryCounter::kFutexWait), parks);
    EXPECT_EQ(snap.count(TelemetryCounter::kParkAbort), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kFutexWake), 0u);
}

TEST(TelemetryTest, WakeIsCountedWhenAWaiterIsParked) {
    // wake_all only counts when it observes a registered waiter. A round
    // where the waiter demonstrably reached the kernel (it recorded a
    // futex wait) must therefore have counted exactly one wake. The first
    // round virtually always parks; 100 attempts bound the loop.
    for (int round = 0; round < 100; ++round) {
        LockTelemetry waiter_t;
        LockTelemetry waker_t;
        ParkingSpot spot;
        std::atomic<bool> flag{false};
        std::thread waiter([&] {
            Deadline never = Deadline::infinite();
            while (!flag.load()) {
                spot.park(never, &waiter_t, [&] { return flag.load(); });
            }
        });
        while (spot.waiters() == 0) {
            std::this_thread::yield();
        }
        flag.store(true);
        spot.wake_all(&waker_t);
        waiter.join();
        const auto ws = waiter_t.aggregate();
        const auto ks = waker_t.aggregate();
        if (ws.count(TelemetryCounter::kFutexWait) >= 1 &&
            ks.count(TelemetryCounter::kFutexWake) == 1) {
            EXPECT_EQ(ws.count(TelemetryCounter::kParkAbort), 0u);
            return;
        }
    }
    FAIL() << "no round ever parked-and-woke; parking path likely broken";
}

TEST(TelemetryTest, ContendedTimedReaderParksAndAbortsExactlyOnce) {
    ASSERT_TRUE(parking_enabled())
        << "RWR_PARK=0 leaked into the test environment";
    LockTelemetry telemetry;
    AfLock lock(2, 1, 1);
    lock.attach_telemetry(&telemetry);
    lock.lock(0);  // RSIG = WAIT: the timed reader below must block.
    std::thread reader([&] {
        // 500ms: ample for the backoff to escalate spin -> yield -> park
        // even under TSan, then the parked wait times out on its own.
        EXPECT_FALSE(
            lock.try_lock_shared_for(1, std::chrono::milliseconds(500)));
    });
    reader.join();
    lock.unlock(0);
    const auto snap = telemetry.aggregate();
    EXPECT_GE(snap.count(TelemetryCounter::kFutexWait), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kParkAbort), 1u);
    EXPECT_EQ(snap.count(TelemetryCounter::kReaderAbort), 1u);
    // The reader was gone before the writer released, and the writer
    // acquired uncontended: no wake was ever due.
    EXPECT_EQ(snap.count(TelemetryCounter::kFutexWake), 0u);
}

}  // namespace
