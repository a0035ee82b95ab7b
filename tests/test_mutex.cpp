// Tests for the m-process mutual-exclusion substrate (src/mutex): mutual
// exclusion (exhaustive small-schedule search + randomized), deadlock
// freedom, bounded bypass / starvation freedom of the tournament lock, and
// its O(log m) RMR complexity.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "mutex/sim_mutex.hpp"
#include "mutex/tournament.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::mutex {
namespace {

using sim::Process;
using sim::Role;
using sim::SimTask;
using sim::System;

/// Drives `passages` lock/unlock cycles, checking exclusivity with a plain
/// (non-simulated) occupancy counter.
struct MutexHarness {
    int in_cs = 0;
    int max_seen = 0;
    std::uint64_t total_entries = 0;
    std::vector<std::uint64_t> entries_per_slot;
};

SimTask<void> mutex_passages(SimMutex& mx, Process& p, std::uint32_t slot,
                             int passages, MutexHarness* h) {
    for (int k = 0; k < passages; ++k) {
        co_await mx.enter(p, slot);
        h->in_cs += 1;
        h->max_seen = std::max(h->max_seen, h->in_cs);
        h->total_entries += 1;
        h->entries_per_slot[slot] += 1;
        co_await p.local_step();  // Scheduling point inside the CS.
        h->in_cs -= 1;
        co_await mx.exit(p, slot);
    }
}

enum class MutexKind { Tournament, Tas, Mcs };

std::unique_ptr<SimMutex> make_mutex(Memory& mem, MutexKind kind,
                                     std::uint32_t m) {
    if (kind == MutexKind::Tournament) {
        return std::make_unique<TournamentSimMutex>(mem, "mx", m);
    }
    if (kind == MutexKind::Mcs) {
        return std::make_unique<McsSimMutex>(mem, "mx", m);
    }
    return std::make_unique<TasSimMutex>(mem, "mx");
}

class MutexSweep
    : public ::testing::TestWithParam<
          std::tuple<MutexKind, Protocol, std::uint32_t /*m*/,
                     std::uint64_t /*seed*/>> {};

TEST_P(MutexSweep, MutualExclusionAndProgressUnderRandomSchedules) {
    const auto [kind, proto, m, seed] = GetParam();
    System sys(proto);
    auto mx = make_mutex(sys.memory(), kind, m);
    auto h = std::make_unique<MutexHarness>();
    h->entries_per_slot.assign(m, 0);
    constexpr int kPassages = 6;
    for (std::uint32_t s = 0; s < m; ++s) {
        Process& p = sys.add_process(Role::Writer);
        p.set_task(mutex_passages(*mx, p, s, kPassages, h.get()));
    }
    sim::RandomScheduler sched(seed);
    const auto result = sim::run(sys, sched, 5'000'000);
    sys.check_failures();
    ASSERT_TRUE(result.all_finished) << "possible deadlock/livelock";
    EXPECT_EQ(h->max_seen, 1) << "mutual exclusion violated";
    EXPECT_EQ(h->total_entries, static_cast<std::uint64_t>(m) * kPassages);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MutexSweep,
    ::testing::Combine(::testing::Values(MutexKind::Tournament,
                                         MutexKind::Tas, MutexKind::Mcs),
                       ::testing::Values(Protocol::WriteThrough,
                                         Protocol::WriteBack),
                       ::testing::Values(1u, 2u, 3u, 5u, 8u),
                       ::testing::Range<std::uint64_t>(0, 6)));

TEST(TournamentMutex, ExhaustiveSmallSchedules) {
    // Exhaustive DFS over the first 14 scheduling decisions for 2 processes
    // x 2 passages: mutual exclusion must hold on every explored schedule.
    // (Replay-based, so each schedule rebuilds the scenario.)
    struct Shared {
        System sys{Protocol::WriteThrough};
        std::unique_ptr<SimMutex> mx;
        std::unique_ptr<MutexHarness> h;
    };
    long long schedules = 0;
    // Hand-rolled DFS mirroring sim::explore_dfs but asserting on the
    // harness (the generic explorer checks RW sections, not this counter).
    std::vector<std::size_t> prefix;
    std::function<void(int)> dfs = [&](int depth) {
        Shared sh;
        sh.mx = make_mutex(sh.sys.memory(), MutexKind::Tournament, 2);
        sh.h = std::make_unique<MutexHarness>();
        sh.h->entries_per_slot.assign(2, 0);
        for (std::uint32_t s = 0; s < 2; ++s) {
            Process& p = sh.sys.add_process(Role::Writer);
            p.set_task(mutex_passages(*sh.mx, p, s, 2, sh.h.get()));
        }
        sh.sys.start_all();
        for (const auto c : prefix) {
            const auto r = sh.sys.runnable();
            if (r.empty()) break;
            sh.sys.step(r[c % r.size()]);
        }
        const auto width = sh.sys.runnable().size();
        // Finish round-robin and check.
        sim::RoundRobinScheduler rr;
        sim::run(sh.sys, rr, 100'000);
        sh.sys.check_failures();
        ASSERT_EQ(sh.h->max_seen, 1);
        ASSERT_EQ(sh.h->total_entries, 4u);
        ++schedules;
        if (depth == 0 || width <= 1) return;
        for (std::size_t c = 0; c < width; ++c) {
            prefix.push_back(c);
            dfs(depth - 1);
            prefix.pop_back();
        }
    };
    dfs(14);
    EXPECT_GT(schedules, 1000);
}

TEST(TournamentMutex, NoStarvationUnderFairSchedules) {
    // Bounded bypass: with all 4 processes running many passages under a
    // fair random scheduler, every slot completes all its passages.
    System sys(Protocol::WriteBack);
    TournamentSimMutex mx(sys.memory(), "mx", 4);
    auto h = std::make_unique<MutexHarness>();
    h->entries_per_slot.assign(4, 0);
    for (std::uint32_t s = 0; s < 4; ++s) {
        Process& p = sys.add_process(Role::Writer);
        p.set_task(mutex_passages(mx, p, s, 25, h.get()));
    }
    sim::RandomScheduler sched(7);
    ASSERT_TRUE(sim::run(sys, sched, 10'000'000).all_finished);
    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(h->entries_per_slot[s], 25u);
    }
}

TEST(TournamentMutex, SoloRmrCostIsLogarithmic) {
    // A solo passage costs Theta(log m) RMRs: 3 writes + ~2 reads per level
    // on entry, 1 write per level on exit.
    std::vector<std::uint64_t> rmrs;
    for (const std::uint32_t m : {1u, 2u, 4u, 16u, 64u, 256u}) {
        System sys(Protocol::WriteThrough);
        TournamentSimMutex mx(sys.memory(), "mx", m);
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(m, 0);
        Process& p = sys.add_process(Role::Writer);
        p.set_task(mutex_passages(mx, p, 0, 1, h.get()));
        sim::RoundRobinScheduler rr;
        ASSERT_TRUE(sim::run(sys, rr, 100'000).all_finished);
        rmrs.push_back(p.stats().total_rmrs());
    }
    EXPECT_EQ(rmrs[0], 0u);  // m == 1: empty tree, no shared steps at all.
    // Linear in the number of levels: rmrs for m=2^k is k * per-level cost.
    const auto per_level = rmrs[1];
    EXPECT_EQ(rmrs[2], 2 * per_level);
    EXPECT_EQ(rmrs[3], 4 * per_level);
    EXPECT_EQ(rmrs[4], 6 * per_level);
    EXPECT_EQ(rmrs[5], 8 * per_level);
}

TEST(TournamentMutex, ContendedRmrPerPassageStaysLogarithmic) {
    // Under a fair round-robin with m contenders, the *average* RMR cost
    // per passage stays O(log m) -- the local-spin property: spinning reads
    // hit the cache until the rival writes.
    for (const std::uint32_t m : {2u, 4u, 8u, 16u}) {
        System sys(Protocol::WriteBack);
        TournamentSimMutex mx(sys.memory(), "mx", m);
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(m, 0);
        constexpr int kPassages = 10;
        for (std::uint32_t s = 0; s < m; ++s) {
            Process& p = sys.add_process(Role::Writer);
            p.set_task(mutex_passages(mx, p, s, kPassages, h.get()));
        }
        sim::RoundRobinScheduler rr;
        ASSERT_TRUE(sim::run(sys, rr, 20'000'000).all_finished);
        std::uint64_t total_rmrs = 0;
        for (ProcId id = 0; id < sys.num_processes(); ++id) {
            total_rmrs += sys.process(id).stats().total_rmrs();
        }
        const double per_passage =
            static_cast<double>(total_rmrs) / (m * kPassages);
        const double levels = std::bit_width(m) - 1;
        // Generous constant: ~3 writes + spin invalidations per level.
        EXPECT_LE(per_passage, 14.0 * levels + 6.0)
            << "m=" << m << " per-passage RMRs " << per_passage;
    }
}

TEST(McsMutex, ExhaustiveSmallSchedules) {
    // 2 processes x 2 passages, all interleavings of the first 14 choices:
    // FIFO queue handoff must never break mutual exclusion.
    long long schedules = 0;
    std::vector<std::size_t> prefix;
    std::function<void(int)> dfs = [&](int depth) {
        System sys(Protocol::WriteBack);
        McsSimMutex mx(sys.memory(), "mx", 2);
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(2, 0);
        for (std::uint32_t s = 0; s < 2; ++s) {
            Process& p = sys.add_process(Role::Writer);
            p.set_task(mutex_passages(mx, p, s, 2, h.get()));
        }
        sys.start_all();
        for (const auto c : prefix) {
            const auto r = sys.runnable();
            if (r.empty()) break;
            sys.step(r[c % r.size()]);
        }
        const auto width = sys.runnable().size();
        sim::RoundRobinScheduler rr;
        sim::run(sys, rr, 100'000);
        sys.check_failures();
        ASSERT_EQ(h->max_seen, 1);
        ASSERT_EQ(h->total_entries, 4u);
        ++schedules;
        if (depth == 0 || width <= 1) return;
        for (std::size_t c = 0; c < width; ++c) {
            prefix.push_back(c);
            dfs(depth - 1);
            prefix.pop_back();
        }
    };
    dfs(14);
    EXPECT_GT(schedules, 1000);
}

TEST(McsMutex, LocalSpinUnderDsm) {
    // The MCS claim to fame: with nodes homed at their owners, a waiter
    // spins on its OWN node even under DSM -- RMRs stay bounded while the
    // holder dawdles. (The Peterson tree cannot do this; see bench_dsm.)
    System sys(Protocol::Dsm);
    McsSimMutex mx(sys.memory(), "mx", 2, /*owner_base=*/0);
    auto h = std::make_unique<MutexHarness>();
    h->entries_per_slot.assign(2, 0);
    Process& p0 = sys.add_process(Role::Writer);
    Process& p1 = sys.add_process(Role::Writer);
    p0.set_task(mutex_passages(mx, p0, 0, 1, h.get()));
    p1.set_task(mutex_passages(mx, p1, 1, 1, h.get()));
    sys.start_all();
    // p0 acquires and parks inside the CS (mutex_passages tracks occupancy
    // via the harness, not Process sections).
    int guard = 0;
    while (h->in_cs == 0 && guard++ < 100) {
        sys.step(p0.id());
    }
    ASSERT_EQ(h->in_cs, 1);
    for (int i = 0; i < 500; ++i) {
        sys.step(p1.id());  // p1 spins while p0 sits in the CS.
    }
    // Enqueue (4 remote-ish steps) + local spinning: RMRs must be O(1),
    // not O(spins).
    EXPECT_LE(p1.stats().total_rmrs(), 8u);
    sim::RoundRobinScheduler rr;
    ASSERT_TRUE(sim::run(sys, rr, 100'000).all_finished);
    EXPECT_EQ(h->max_seen, 1);
}

TEST(TasMutex, ContendedRmrPerPassageGrowsWithM) {
    // The contrast: TAS spinning burns RMRs proportional to contention.
    std::vector<double> per_passage;
    for (const std::uint32_t m : {2u, 8u, 32u}) {
        System sys(Protocol::WriteBack);
        TasSimMutex mx(sys.memory(), "mx");
        auto h = std::make_unique<MutexHarness>();
        h->entries_per_slot.assign(m, 0);
        constexpr int kPassages = 8;
        for (std::uint32_t s = 0; s < m; ++s) {
            Process& p = sys.add_process(Role::Writer);
            p.set_task(mutex_passages(mx, p, s, kPassages, h.get()));
        }
        sim::RoundRobinScheduler rr;
        ASSERT_TRUE(sim::run(sys, rr, 20'000'000).all_finished);
        std::uint64_t total_rmrs = 0;
        for (ProcId id = 0; id < sys.num_processes(); ++id) {
            total_rmrs += sys.process(id).stats().total_rmrs();
        }
        per_passage.push_back(static_cast<double>(total_rmrs) /
                              (m * kPassages));
    }
    // Super-logarithmic growth: m x16 should much more than double the cost.
    EXPECT_GT(per_passage[2], 2.0 * per_passage[0]);
}

}  // namespace
}  // namespace rwr::mutex
