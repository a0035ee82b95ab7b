// Tests for the experiment harness itself: registry round-trips,
// experiment aggregation arithmetic, scenario-factory determinism, and the
// table printer (the benches' output path).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "harness/locks.hpp"
#include "harness/seeds.hpp"
#include "harness/table.hpp"
#include "sim/driver.hpp"
#include "sim/por.hpp"
#include "sim/scheduler.hpp"

namespace rwr::harness {
namespace {

TEST(Registry, EveryKindConstructsAndNames) {
    for (const LockKind kind : all_lock_kinds()) {
        sim::System sys(Protocol::WriteBack);
        auto lock = make_sim_lock(kind, sys.memory(), 4, 2, 2);
        ASSERT_NE(lock, nullptr);
        EXPECT_FALSE(lock->name().empty());
        EXPECT_NE(to_string(kind), "?");
    }
}

TEST(Registry, AfClampsF) {
    sim::System sys(Protocol::WriteBack);
    // f = 100 > n = 4 must clamp rather than throw: sweeps pass raw f.
    auto lock = make_sim_lock(LockKind::Af, sys.memory(), 4, 1, 100);
    EXPECT_EQ(lock->name(), "A_f(f=4)");
    auto lock0 = make_sim_lock(LockKind::Af, sys.memory(), 4, 1, 0);
    EXPECT_EQ(lock0->name(), "A_f(f=1)");
}

TEST(Experiment, AggregationArithmetic) {
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::Af, .n = 3, .m = 2, .f = 1});
    cfg.passages = 5;
    cfg.sched = sim::SchedKind::RoundRobin;
    const auto res = sim::run_driver(cfg);
    ASSERT_TRUE(res.finished);
    EXPECT_EQ(res.readers.num_passages, 15u);
    EXPECT_EQ(res.writers.num_passages, 10u);
    // Means never exceed maxima; maxima are attained by some passage.
    for (int s = 0; s < kNumSections; ++s) {
        EXPECT_LE(res.readers.mean_rmrs[s],
                  static_cast<double>(res.readers.max_rmrs[s]) + 1e-9);
        EXPECT_LE(res.writers.mean_rmrs[s],
                  static_cast<double>(res.writers.max_rmrs[s]) + 1e-9);
    }
    EXPECT_LE(res.readers.mean_passage_rmrs,
              static_cast<double>(res.readers.max_passage_rmrs) + 1e-9);
    // Passage totals decompose into sections.
    EXPECT_GE(res.readers.max_passage_rmrs, res.readers.max_rmrs[1]);
}

TEST(Experiment, RoundRobinIsDeterministic) {
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::Centralized, .n = 4, .m = 1});
    cfg.passages = 3;
    cfg.sched = sim::SchedKind::RoundRobin;
    const auto a = sim::run_driver(cfg);
    const auto b = sim::run_driver(cfg);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.readers.mean_passage_rmrs, b.readers.mean_passage_rmrs);
}

TEST(Experiment, SeedsChangeRandomRuns) {
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::Centralized, .n = 4, .m = 2});
    cfg.passages = 3;
    cfg.seed = 1;
    const auto a = sim::run_driver(cfg);
    cfg.seed = 2;
    const auto b = sim::run_driver(cfg);
    // Overwhelmingly likely to differ in step counts.
    EXPECT_NE(a.steps, b.steps);
}

TEST(Experiment, ScenarioFactoryBuildsIdenticalSystems) {
    sim::DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = LockKind::Af, .n = 2, .m = 1, .f = 2});
    cfg.passages = 1;
    auto factory = sim::driver_factory(cfg);
    const std::vector<std::size_t> choices{0, 1, 2, 0, 1, 2, 1, 1, 0};
    std::uint64_t steps[2];
    for (int i = 0; i < 2; ++i) {
        auto sc = factory();
        sim::ReplayScheduler sched(choices);
        steps[i] = sim::run(*sc.sys, sched, 10'000).steps;
    }
    EXPECT_EQ(steps[0], steps[1]);
}

TEST(Seeds, StreamSeedIsTheCanonicalDerivation) {
    // The harness helper must BE sim::stream_seed, not a second mixing
    // scheme -- one rule repo-wide (explore_run_seed and the dist OpStream
    // already delegate to it).
    for (std::uint64_t i = 0; i < 32; ++i) {
        EXPECT_EQ(stream_seed(42, i), sim::stream_seed(42, i));
        EXPECT_EQ(stream_seed(42, i, 7),
                  sim::stream_seed(sim::stream_seed(42, i), 7));
    }
}

TEST(Seeds, AdjacentBasesAndLevelsAreDecorrelated) {
    // The regression the double mix fixes: under a naive `base + i`
    // derivation, adjacent bases share almost every derived seed. Both
    // levels of the helper must keep adjacent bases, adjacent indices and
    // the one-vs-two-level namespaces fully disjoint.
    constexpr std::uint64_t kRuns = 64;
    std::set<std::uint64_t> all;
    for (std::uint64_t base : {41ull, 42ull, 43ull}) {
        for (std::uint64_t i = 0; i < kRuns; ++i) {
            all.insert(stream_seed(base, i));
            all.insert(stream_seed(base, i, 0));
            all.insert(stream_seed(base, i, 1));
        }
    }
    // Every (base, i[, j]) combination produced a distinct seed.
    EXPECT_EQ(all.size(), 3u * kRuns * 3u);
}

TEST(Table, AlignsAndPrints) {
    Table t({"col", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| longer |"), std::string::npos);
    EXPECT_NE(out.find("|    22 |"), std::string::npos);
    // 3 separator lines + header + 2 rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(Table, FmtHelpers) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(std::uint64_t{42}), "42");
    EXPECT_EQ(fmt(-7), "-7");
}

}  // namespace
}  // namespace rwr::harness
