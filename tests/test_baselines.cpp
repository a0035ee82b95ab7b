// Correctness tests for the baseline reader-writer locks, plus the
// behavioural contrasts the paper draws: the FAA lock's O(1) reader exit
// (outside the read/write/CAS tradeoff), the reader-preference lock's
// Θ(log n) reader sections, and the big-mutex baseline's failure of
// Concurrent Entering (readers never share the CS).
#include <gtest/gtest.h>

#include "harness/locks.hpp"
#include "sim/driver.hpp"
#include "sim/explorer.hpp"

namespace rwr::baselines {
namespace {

using harness::LockKind;

class BaselineSweep
    : public ::testing::TestWithParam<
          std::tuple<LockKind, Protocol, std::uint32_t /*n*/,
                     std::uint32_t /*m*/, std::uint64_t /*seed*/>> {};

TEST_P(BaselineSweep, MutualExclusionAndProgress) {
    const auto [kind, proto, n, m, seed] = GetParam();
    sim::DriverConfig cfg;
    cfg.episodes = harness::lock_episodes({.lock = kind, .n = n, .m = m});
    cfg.protocol = proto;
    cfg.passages = 4;
    cfg.cs_steps = 2;
    cfg.seed = seed;
    const auto res = sim::run_driver(cfg);
    EXPECT_TRUE(res.finished) << "deadlock/livelock suspected for "
                              << harness::to_string(kind);
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.readers.num_passages, static_cast<std::uint64_t>(n) * 4);
    EXPECT_EQ(res.writers.num_passages, static_cast<std::uint64_t>(m) * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineSweep,
    ::testing::Combine(::testing::Values(LockKind::Centralized, LockKind::Faa,
                                         LockKind::PhaseFair,
                                         LockKind::ReaderPref,
                                         LockKind::BigMutex),
                       ::testing::Values(Protocol::WriteThrough,
                                         Protocol::WriteBack),
                       ::testing::Values(1u, 2u, 6u),
                       ::testing::Values(1u, 3u),
                       ::testing::Range<std::uint64_t>(0, 5)));

class BaselineExhaustive : public ::testing::TestWithParam<LockKind> {};

TEST_P(BaselineExhaustive, SmallSchedules) {
    sim::DriverConfig cfg;
    cfg.episodes = harness::lock_episodes({.lock = GetParam(), .n = 2, .m = 1});
    cfg.protocol = Protocol::WriteBack;
    cfg.passages = 1;
    const auto res = sim::explore_dfs(sim::driver_factory(cfg), 12, 100'000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineExhaustive,
                         ::testing::Values(LockKind::Centralized,
                                           LockKind::Faa,
                                           LockKind::PhaseFair,
                                           LockKind::ReaderPref,
                                           LockKind::BigMutex));

TEST(FaaLock, ReaderExitIsConstantRmr) {
    // The FAA evasion: even under heavy contention, a reader's exit is at
    // most a couple of steps (one FAA, possibly one gate write).
    for (const std::uint32_t n : {4u, 16u, 64u}) {
        sim::DriverConfig cfg;
        cfg.episodes =
            harness::lock_episodes({.lock = LockKind::Faa, .n = n, .m = 2});
        cfg.passages = 4;
        cfg.seed = 9;
        const auto res = sim::run_driver(cfg);
        ASSERT_TRUE(res.finished);
        EXPECT_LE(res.readers.max_steps[static_cast<int>(Section::Exit)], 2u)
            << "n=" << n;
    }
}

TEST(FaaLock, ReadersShareCs) {
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::Faa, .n = 6, .m = 1});
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = sim::run_driver(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_GE(res.max_concurrent_readers, 3u);
}

TEST(ReaderPrefLock, ReadersShareCs) {
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::ReaderPref, .n = 6, .m = 1});
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = sim::run_driver(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_GE(res.max_concurrent_readers, 3u);
}

TEST(CentralizedLock, ReadersShareCs) {
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::Centralized, .n = 6, .m = 1});
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = sim::run_driver(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_GE(res.max_concurrent_readers, 3u);
}

TEST(BigMutexLock, ReadersNeverShareCs) {
    // The degenerate baseline violates Concurrent Entering: the CS is
    // exclusive even among readers.
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::BigMutex, .n = 6, .m = 1});
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = sim::run_driver(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_EQ(res.max_concurrent_readers, 1u);
}

TEST(PhaseFairLock, ReadersShareCs) {
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::PhaseFair, .n = 6, .m = 1});
    cfg.passages = 5;
    cfg.cs_steps = 8;
    cfg.seed = 3;
    const auto res = sim::run_driver(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_GE(res.max_concurrent_readers, 3u);
}

TEST(PhaseFairLock, WritersProgressUnderContention) {
    // The fairness property the paper's family lacks: under sustained
    // reader traffic with fair scheduling, writers keep completing.
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::PhaseFair, .n = 8, .m = 2});
    cfg.passages = 10;
    cfg.seed = 5;
    const auto res = sim::run_driver(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.writers.num_passages, 20u);
}

TEST(ReaderPrefLock, ReaderSectionsGrowWithN) {
    // Tradeoff positioning: writer entry is Θ(log m) independent of n, so
    // reader exit must grow with n -- here it does, Θ(log n) via rmutex.
    double exit_small = 0, exit_big = 0;
    for (const std::uint32_t n : {4u, 256u}) {
        sim::DriverConfig cfg;
        cfg.episodes = harness::lock_episodes(
            {.lock = LockKind::ReaderPref, .n = n, .m = 1});
        cfg.passages = 2;
        cfg.sched = sim::SchedKind::RoundRobin;
        const auto res = sim::run_driver(cfg);
        ASSERT_TRUE(res.finished);
        (n == 4 ? exit_small : exit_big) =
            res.readers.mean_rmrs[static_cast<int>(Section::Exit)];
    }
    EXPECT_GT(exit_big, 1.5 * exit_small);
}

}  // namespace
}  // namespace rwr::baselines
