// Tests for FArraySimCounter as the general f-array aggregate (sum / max /
// min over K single-writer registers, written with update()): sequential
// semantics, concurrent propagation (the double-refresh argument over
// non-invertible aggregates), step complexity, and quiescent exactness.
#include <gtest/gtest.h>

#include <limits>

#include "counter/sim_counter.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::counter {
namespace {

using sim::Process;
using sim::Role;
using sim::SimTask;
using sim::System;

SimTask<void> do_updates(FArraySimCounter& a, Process& p,
                         std::uint32_t slot,
                         std::vector<std::int32_t> values) {
    for (const auto v : values) {
        co_await a.update(p, slot, v);
    }
}

TEST(FArrayAggregate, SequentialMax) {
    System sys(Protocol::WriteBack);
    FArraySimCounter a(sys.memory(), "mx", 4, std::nullopt, AggKind::Max,
                       std::numeric_limits<std::int32_t>::min());
    Process& p = sys.add_process(Role::Reader);
    std::vector<std::int64_t> reads;
    auto body = [](FArraySimCounter& agg, Process& proc,
                   std::vector<std::int64_t>* out) -> SimTask<void> {
        co_await agg.update(proc, 0, 5);
        out->push_back(co_await agg.read(proc));
        co_await agg.update(proc, 1, 9);
        out->push_back(co_await agg.read(proc));
        co_await agg.update(proc, 1, 2);  // Max shrinks when 9 is replaced.
        out->push_back(co_await agg.read(proc));
    };
    p.set_task(body(a, p, &reads));
    sim::RoundRobinScheduler rr;
    ASSERT_TRUE(sim::run(sys, rr, 10'000).all_finished);
    EXPECT_EQ(reads, (std::vector<std::int64_t>{5, 9, 5}));
}

TEST(FArrayAggregate, SequentialMin) {
    System sys(Protocol::WriteThrough);
    FArraySimCounter a(sys.memory(), "mn", 3, std::nullopt, AggKind::Min,
                       std::numeric_limits<std::int32_t>::max());
    Process& p = sys.add_process(Role::Reader);
    std::vector<std::int64_t> reads;
    auto body = [](FArraySimCounter& agg, Process& proc,
                   std::vector<std::int64_t>* out) -> SimTask<void> {
        co_await agg.update(proc, 0, 7);
        co_await agg.update(proc, 2, 3);
        out->push_back(co_await agg.read(proc));
        co_await agg.update(proc, 2, 11);
        out->push_back(co_await agg.read(proc));
    };
    p.set_task(body(a, p, &reads));
    sim::RoundRobinScheduler rr;
    ASSERT_TRUE(sim::run(sys, rr, 10'000).all_finished);
    EXPECT_EQ(reads[0], 3);
    EXPECT_EQ(reads[1], 7);
}

TEST(FArrayAggregate, SumMatchesCounterSemantics) {
    // With Sum, update() is overwrite (not add): aggregate = sum of last
    // values per slot.
    System sys(Protocol::WriteBack);
    FArraySimCounter a(sys.memory(), "s", 4, std::nullopt, AggKind::Sum, 0);
    Process& p = sys.add_process(Role::Reader);
    auto body = [](FArraySimCounter& agg, Process& proc) -> SimTask<void> {
        co_await agg.update(proc, 0, 10);
        co_await agg.update(proc, 0, 4);  // Overwrites, not accumulates.
        co_await agg.update(proc, 3, 6);
    };
    p.set_task(body(a, p));
    sim::RoundRobinScheduler rr;
    ASSERT_TRUE(sim::run(sys, rr, 10'000).all_finished);
    EXPECT_EQ(a.peek_root(sys.memory()), 10);
    EXPECT_EQ(a.peek_exact(sys.memory()), 10);
}

class AggregateConcurrency
    : public ::testing::TestWithParam<
          std::tuple<AggKind, Protocol, std::uint64_t>> {};

TEST_P(AggregateConcurrency, QuiescentRootIsExact) {
    const auto [kind, proto, seed] = GetParam();
    const std::int32_t identity =
        kind == AggKind::Max   ? std::numeric_limits<std::int32_t>::min()
        : kind == AggKind::Min ? std::numeric_limits<std::int32_t>::max()
                               : 0;
    System sys(proto);
    constexpr std::uint32_t K = 6;
    FArraySimCounter a(sys.memory(), "agg", K, std::nullopt, kind, identity);
    for (std::uint32_t s = 0; s < K; ++s) {
        Process& p = sys.add_process(Role::Reader);
        std::vector<std::int32_t> vals;
        for (int i = 0; i < 6; ++i) {
            vals.push_back(static_cast<std::int32_t>(
                (seed * 37 + s * 11 + i * 7) % 100 - 50));
        }
        p.set_task(do_updates(a, p, s, std::move(vals)));
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(sim::run(sys, sched, 2'000'000).all_finished);
    sys.check_failures();
    // Once quiescent, the propagated root equals the exact aggregate of
    // the final leaf values.
    EXPECT_EQ(a.peek_root(sys.memory()), a.peek_exact(sys.memory()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregateConcurrency,
    ::testing::Combine(::testing::Values(AggKind::Sum, AggKind::Max,
                                         AggKind::Min),
                       ::testing::Values(Protocol::WriteThrough,
                                         Protocol::WriteBack),
                       ::testing::Range<std::uint64_t>(0, 6)));

TEST(FArrayAggregate, ReadsBoundedByExtremes) {
    // For Max with only-growing updates, concurrent reads lie between the
    // initial identity and the largest value ever written.
    System sys(Protocol::WriteBack);
    FArraySimCounter a(sys.memory(), "mx", 3, std::nullopt, AggKind::Max, 0);
    Process& u0 = sys.add_process(Role::Reader);
    Process& u1 = sys.add_process(Role::Reader);
    Process& rd = sys.add_process(Role::Reader);
    u0.set_task(do_updates(a, u0, 0, {1, 3, 5, 7}));
    u1.set_task(do_updates(a, u1, 1, {2, 4, 6, 8}));
    std::vector<std::int64_t> seen;
    auto reader = [](FArraySimCounter& agg, Process& p,
                     std::vector<std::int64_t>* out) -> SimTask<void> {
        for (int i = 0; i < 10; ++i) {
            out->push_back(co_await agg.read(p));
        }
    };
    rd.set_task(reader(a, rd, &seen));
    sim::RandomScheduler sched(3);
    ASSERT_TRUE(sim::run(sys, sched, 100'000).all_finished);
    std::int64_t prev = 0;
    for (const auto v : seen) {
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 8);
        EXPECT_GE(v, prev);  // Monotone updates => monotone reads.
        prev = v;
    }
}

TEST(FArrayAggregate, UpdateIsLogSteps) {
    for (const std::uint32_t K : {1u, 16u, 256u}) {
        System sys(Protocol::WriteBack);
        FArraySimCounter a(sys.memory(), "agg", K, std::nullopt,
                           AggKind::Max, 0);
        Process& p = sys.add_process(Role::Reader);
        p.set_task(do_updates(a, p, 0, {42}));
        sim::RoundRobinScheduler rr;
        const auto res = sim::run(sys, rr, 10'000);
        ASSERT_TRUE(res.all_finished);
        const std::uint32_t lg =
            K <= 1 ? 0 : static_cast<std::uint32_t>(std::bit_width(K - 1));
        EXPECT_EQ(res.steps, 1 + 4ull * lg);  // 1 leaf write + refreshes.
    }
}

TEST(FArrayAggregate, RejectsBadArgs) {
    System sys(Protocol::WriteBack);
    EXPECT_THROW(FArraySimCounter(sys.memory(), "x", 0, std::nullopt,
                                  AggKind::Sum, 0),
                 std::invalid_argument);
}

}  // namespace
}  // namespace rwr::counter
