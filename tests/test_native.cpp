// Multi-threaded stress tests for the native (std::atomic) implementations:
// f-array counter, tournament mutex, AfLock (all f choices), baselines, and
// the AfSharedMutex facade with std::shared_lock / std::unique_lock.
//
// This host may have a single core; thread counts and iteration budgets are
// sized so the suite stays fast while still forcing real interleavings via
// yields in every spin loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/af_params.hpp"
#include "native/af_lock.hpp"
#include "native/baselines.hpp"
#include "native/counter.hpp"
#include "native/mutex.hpp"
#include "native/shared_mutex.hpp"

namespace rwr::native {
namespace {

TEST(NativeCounter, Sequential) {
    FArrayCounter c(4);
    c.add(0, 5);
    c.add(1, -2);
    c.add(3, 10);
    EXPECT_EQ(c.read(), 13);
}

TEST(NativeCounter, CapacityOne) {
    FArrayCounter c(1);
    c.add(0, 7);
    EXPECT_EQ(c.read(), 7);
}

TEST(NativeCounter, ConcurrentAdds) {
    constexpr std::uint32_t kThreads = 4;
    constexpr int kIters = 5000;
    FArrayCounter c(kThreads);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c, t] {
            for (int i = 0; i < kIters; ++i) {
                c.add(t, +1);
                if (i % 3 == 0) {
                    c.add(t, -1);
                }
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    std::int64_t expected = 0;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        expected += kIters - (kIters + 2) / 3;
    }
    EXPECT_EQ(c.read(), expected);
}

TEST(NativeCounter, ReadNeverExceedsStartedAdds) {
    // Sample reads concurrently with unit increments: values must stay
    // within [0, total].
    FArrayCounter c(3);
    std::atomic<bool> stop{false};
    std::atomic<bool> bad{false};
    std::thread reader([&] {
        while (!stop.load()) {
            const auto v = c.read();
            if (v < 0 || v > 6000) {
                bad.store(true);
            }
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> adders;
    for (std::uint32_t t = 0; t < 2; ++t) {
        adders.emplace_back([&c, t] {
            for (int i = 0; i < 3000; ++i) {
                c.add(t, +1);
            }
        });
    }
    for (auto& th : adders) {
        th.join();
    }
    stop.store(true);
    reader.join();
    EXPECT_FALSE(bad.load());
    EXPECT_EQ(c.read(), 6000);
}

TEST(NativeTournamentMutex, ExclusionStress) {
    constexpr std::uint32_t kThreads = 4;
    constexpr int kIters = 3000;
    TournamentMutex mx(kThreads);
    std::int64_t plain_counter = 0;  // Deliberately non-atomic.
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                mx.lock(t);
                plain_counter += 1;  // Data race iff exclusion fails.
                mx.unlock(t);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(plain_counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(NativeTournamentMutex, SlotValidation) {
    TournamentMutex mx(2);
    EXPECT_THROW(mx.lock(2), std::invalid_argument);
}

TEST(NativeMcsMutex, ExclusionStress) {
    constexpr std::uint32_t kThreads = 4;
    constexpr int kIters = 3000;
    McsMutex mx(kThreads);
    std::int64_t plain_counter = 0;  // Deliberately non-atomic.
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                mx.lock(t);
                plain_counter += 1;
                mx.unlock(t);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_EQ(plain_counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(NativeMcsMutex, SlotValidation) {
    McsMutex mx(2);
    EXPECT_THROW(mx.lock(2), std::invalid_argument);
    EXPECT_THROW(McsMutex(0), std::invalid_argument);
}

struct RwInvariants {
    std::atomic<std::int32_t> readers{0};
    std::atomic<std::int32_t> writers{0};
    std::atomic<bool> violated{false};
    std::atomic<std::int32_t> max_readers{0};
    /// Plain data that only the lock orders: writers rewrite both words,
    /// readers check that they agree. The seq_cst counters above carry
    /// happens-before edges of their own, so each critical section touches
    /// the payload first, before any counter operation: then only the
    /// lock orders it, and a lock that loses that ordering shows up as a
    /// data race under TSan even when no interleaving breaks an invariant.
    std::int64_t payload[2] = {0, 0};

    void reader_cs() {
        const bool torn = payload[0] != payload[1];
        const auto r = readers.fetch_add(1) + 1;
        if (torn || writers.load() != 0) {
            violated.store(true);
        }
        auto mr = max_readers.load();
        while (r > mr && !max_readers.compare_exchange_weak(mr, r)) {
        }
        std::this_thread::yield();
        readers.fetch_sub(1);
    }
    void writer_cs() {
        payload[0] += 1;
        payload[1] = payload[0];
        if (writers.fetch_add(1) != 0 || readers.load() != 0) {
            violated.store(true);
        }
        std::this_thread::yield();
        if (readers.load() != 0) {
            violated.store(true);
        }
        writers.fetch_sub(1);
    }
};

template <typename Lock>
void stress_rw(Lock& lock, std::uint32_t n, std::uint32_t m, int iters,
               RwInvariants* inv) {
    std::vector<std::thread> threads;
    for (std::uint32_t r = 0; r < n; ++r) {
        threads.emplace_back([&lock, r, iters, inv] {
            for (int i = 0; i < iters; ++i) {
                lock.lock_shared(r);
                inv->reader_cs();
                lock.unlock_shared(r);
            }
        });
    }
    for (std::uint32_t w = 0; w < m; ++w) {
        threads.emplace_back([&lock, w, iters, inv] {
            for (int i = 0; i < iters; ++i) {
                lock.lock(w);
                inv->writer_cs();
                lock.unlock(w);
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
}

class NativeAfStress
    : public ::testing::TestWithParam<std::tuple<std::uint32_t /*n*/,
                                                 std::uint32_t /*m*/,
                                                 std::uint32_t /*f*/>> {};

TEST_P(NativeAfStress, MutualExclusionInvariants) {
    const auto [n, m, f] = GetParam();
    AfLock lock(n, m, f);
    RwInvariants inv;
    stress_rw(lock, n, m, 800, &inv);
    EXPECT_FALSE(inv.violated.load());
}

/// Every (n, m, f) cell of the grid with a valid f <= n, then the shapes
/// that stress the tree layout: K = 1 with many groups (every leaf is a
/// root), a K that is not a power of two (n = 12, f = 4: K = 3, so each
/// tree has a padding leaf), fewer groups than f (n = 10, f = 6: K = 2,
/// 5 groups), and a writer whose handshake spans many groups (n = f = 16).
std::vector<NativeAfStress::ParamType> native_af_cells() {
    std::vector<NativeAfStress::ParamType> cells;
    for (const std::uint32_t n : {2u, 4u}) {
        for (const std::uint32_t m : {1u, 2u}) {
            for (const std::uint32_t f : {1u, 2u, 4u}) {
                if (f <= n) {
                    cells.emplace_back(n, m, f);
                }
            }
        }
    }
    cells.emplace_back(8u, 2u, 8u);
    cells.emplace_back(12u, 2u, 4u);
    cells.emplace_back(10u, 2u, 6u);
    cells.emplace_back(16u, 1u, 16u);
    return cells;
}

INSTANTIATE_TEST_SUITE_P(Sweep, NativeAfStress,
                         ::testing::ValuesIn(native_af_cells()));

TEST(NativeAfLock, ArgumentValidation) {
    EXPECT_THROW(AfLock(4, 1, 0), std::invalid_argument);
    EXPECT_THROW(AfLock(4, 1, 5), std::invalid_argument);
    EXPECT_THROW(AfLock(0, 1, 1), std::invalid_argument);
    AfLock ok(4, 1, 2);
    EXPECT_THROW(ok.lock_shared(4), std::invalid_argument);
    EXPECT_THROW(ok.lock(1), std::invalid_argument);
}

// ---- Reader placement ------------------------------------------------------
// Reader i uses group i / K and slot i % K, K = ceil(n / f), as in
// Algorithm 1 and the simulated twin. A try_lock fails exactly when some
// reader is counted in a group the writer scans, so it observes the map.

/// (n, f) shapes for the placement tests: K = 1, f = 1, a ragged last
/// group (n = 10, f = 3: groups of 4, 4, 2) and fewer groups than f
/// (n = 10, f = 6: K = 2, 5 groups).
const std::vector<std::pair<std::uint32_t, std::uint32_t>> kPlacementShapes =
    {{1, 1}, {4, 4}, {4, 1}, {8, 2}, {10, 3}, {10, 6}, {12, 4}};

TEST(NativeAfPlacement, GroupSizeMatchesTheSimulatedTwin) {
    for (std::uint32_t n = 1; n <= 40; ++n) {
        for (std::uint32_t f = 1; f <= n; ++f) {
            const AfLock lock(n, 1, f);
            const core::AfParams twin{.n = n, .m = 1, .f = f};
            EXPECT_EQ(lock.group_size(), twin.group_size())
                << "n=" << n << " f=" << f;
            EXPECT_EQ(lock.f(), f);
        }
    }
}

TEST(NativeAfPlacement, EveryReaderIdIsSeenByTheWriter) {
    for (const auto& [n, f] : kPlacementShapes) {
        AfLock lock(n, 1, f);
        for (std::uint32_t r = 0; r < n; ++r) {
            lock.lock_shared(r);
            EXPECT_FALSE(lock.try_lock(0)) << "n=" << n << " f=" << f
                                           << " reader " << r;
            lock.unlock_shared(r);
            // The exit left the same (group, slot) the entry counted in.
            ASSERT_TRUE(lock.try_lock(0)) << "n=" << n << " f=" << f
                                          << " reader " << r;
            lock.unlock(0);
        }
    }
}

TEST(NativeAfPlacement, EveryGroupHoldsAllOfItsReadersAtOnce) {
    for (const auto& [n, f] : kPlacementShapes) {
        AfLock lock(n, 1, f);
        for (std::uint32_t r = 0; r < n; ++r) {
            ASSERT_TRUE(lock.try_lock_shared(r)) << "n=" << n << " f=" << f
                                                 << " reader " << r;
        }
        // Release all but the last reader: it alone still blocks writers.
        for (std::uint32_t r = 0; r + 1 < n; ++r) {
            lock.unlock_shared(r);
        }
        EXPECT_FALSE(lock.try_lock(0)) << "n=" << n << " f=" << f;
        lock.unlock_shared(n - 1);
        EXPECT_TRUE(lock.try_lock(0)) << "n=" << n << " f=" << f;
        lock.unlock(0);
    }
}

TEST(NativeAfPlacement, OneReaderPerGroupBlocksUntilTheLastLeaves) {
    // n = 10, f = 3: K = 4, groups {0..3}, {4..7}, {8, 9}.
    AfLock lock(10, 1, 3);
    ASSERT_EQ(lock.group_size(), 4u);
    const std::uint32_t one_per_group[] = {3, 4, 9};
    for (const std::uint32_t r : one_per_group) {
        lock.lock_shared(r);
    }
    for (const std::uint32_t r : one_per_group) {
        EXPECT_FALSE(lock.try_lock(0)) << "before reader " << r << " leaves";
        lock.unlock_shared(r);
    }
    EXPECT_TRUE(lock.try_lock(0));
    lock.unlock(0);
}

TEST(NativeAfPlacement, RaggedLastGroupKeepsExclusionUnderThreads) {
    // n = 10, f = 3: the last group has 2 of its K = 4 slots in use.
    AfLock lock(10, 2, 3);
    RwInvariants inv;
    stress_rw(lock, 10, 2, 300, &inv);
    EXPECT_FALSE(inv.violated.load());
}

TEST(NativeCentralized, MutualExclusionInvariants) {
    CentralizedRWLock lock;
    RwInvariants inv;
    stress_rw(lock, 4, 2, 1500, &inv);
    EXPECT_FALSE(inv.violated.load());
}

TEST(NativeFaa, MutualExclusionInvariants) {
    FaaRWLock lock(2);
    RwInvariants inv;
    stress_rw(lock, 4, 2, 1500, &inv);
    EXPECT_FALSE(inv.violated.load());
}

TEST(NativePhaseFair, MutualExclusionInvariants) {
    PhaseFairRWLock lock(2);
    RwInvariants inv;
    stress_rw(lock, 4, 2, 1500, &inv);
    EXPECT_FALSE(inv.violated.load());
}

TEST(NativePhaseFair, WritersCompleteUnderReaderTraffic) {
    // Phase fairness, natively: with readers hammering, two writer threads
    // must still finish a fixed workload quickly.
    PhaseFairRWLock lock(2);
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                lock.lock_shared();
                std::this_thread::yield();
                lock.unlock_shared();
            }
        });
    }
    std::vector<std::thread> writers;
    std::atomic<int> writer_done{0};
    for (std::uint32_t w = 0; w < 2; ++w) {
        writers.emplace_back([&, w] {
            for (int i = 0; i < 400; ++i) {
                lock.lock(w);
                lock.unlock(w);
            }
            writer_done.fetch_add(1);
        });
    }
    for (auto& t : writers) {
        t.join();
    }
    stop.store(true);
    for (auto& t : readers) {
        t.join();
    }
    EXPECT_EQ(writer_done.load(), 2);
}

TEST(NativeAfLock, ReadersOverlapInTheCs) {
    // With a writer-free workload and blocking readers, reader concurrency
    // must actually materialize. Each reader's first passage holds the CS
    // until a second reader has joined it (or a generous deadline passes),
    // so a loaded or 1-core box serializing short CSes cannot hide the
    // overlap -- only a lock that really excludes readers can.
    AfLock lock(4, 1, 2);
    std::atomic<std::int32_t> in{0};
    std::atomic<std::int32_t> max_in{0};
    std::atomic<bool> go{false};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::vector<std::thread> threads;
    for (std::uint32_t r = 0; r < 4; ++r) {
        threads.emplace_back([&, r] {
            while (!go.load()) {
                std::this_thread::yield();
            }
            for (int i = 0; i < 300; ++i) {
                lock.lock_shared(r);
                const auto now = in.fetch_add(1) + 1;
                auto mx = max_in.load();
                while (now > mx && !max_in.compare_exchange_weak(mx, now)) {
                }
                std::this_thread::yield();
                while (i == 0 && max_in.load() < 2 &&
                       std::chrono::steady_clock::now() < deadline) {
                    std::this_thread::yield();
                }
                in.fetch_sub(1);
                lock.unlock_shared(r);
            }
        });
    }
    go.store(true);
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_GE(max_in.load(), 2);
}

TEST(AfSharedMutex, StdSharedLockInterop) {
    AfSharedMutex mtx(/*max_readers=*/8, /*max_writers=*/2);
    std::int64_t value = 0;  // Protected by mtx.
    RwInvariants inv;
    std::vector<std::thread> threads;
    for (int r = 0; r < 4; ++r) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                std::shared_lock lk(mtx);
                inv.reader_cs();
                (void)value;
            }
        });
    }
    for (int w = 0; w < 2; ++w) {
        threads.emplace_back([&] {
            for (int i = 0; i < 500; ++i) {
                std::unique_lock lk(mtx);
                inv.writer_cs();
                ++value;
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    EXPECT_FALSE(inv.violated.load());
    EXPECT_EQ(value, 1000);
}

TEST(AfSharedMutex, SlotExhaustionThrows) {
    AfSharedMutex mtx(/*max_readers=*/1, /*max_writers=*/1);
    mtx.lock_shared();  // This thread takes the only reader slot.
    std::atomic<bool> threw{false};
    std::thread t([&] {
        try {
            mtx.lock_shared();
        } catch (const std::runtime_error&) {
            threw.store(true);
        }
    });
    t.join();
    mtx.unlock_shared();
    EXPECT_TRUE(threw.load());
}

TEST(AfSharedMutex, ExplicitFReachesTheUnderlyingLock) {
    const AfSharedMutex mtx(/*max_readers=*/16, /*max_writers=*/2, /*f=*/4);
    EXPECT_EQ(mtx.underlying().num_readers(), 16u);
    EXPECT_EQ(mtx.underlying().num_writers(), 2u);
    EXPECT_EQ(mtx.underlying().f(), 4u);
    EXPECT_EQ(mtx.underlying().group_size(), 4u);
}

TEST(AfSharedMutex, DefaultFIsTheCeilingOfSqrtN) {
    const std::pair<std::uint32_t, std::uint32_t> cases[] = {
        {1, 1}, {2, 2}, {4, 2}, {5, 3}, {10, 4}, {16, 4}, {17, 5}, {64, 8}};
    for (const auto& [readers, f] : cases) {
        const AfSharedMutex mtx(readers, 1);
        EXPECT_EQ(mtx.underlying().f(), f) << "max_readers=" << readers;
    }
}

}  // namespace
}  // namespace rwr::native
