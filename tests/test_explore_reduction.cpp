// Differential validation of the partial-order-reduced explorer.
//
// For every small configuration the exhaustive suites rely on
// (test_af_lock, test_mutex, test_dsm_locks, test_recover_explore) plus the
// deliberately broken locks of test_checker_teeth, the reduced DFS must
// reach the same verdict as the full enumeration -- violations found iff
// the full tree finds them, zero truncation -- while exploring at most as
// many schedules. The parallel frontier must be bit-identical for any job
// count. Also covers the explorer satellites: strict in-range replay
// choices and the SplitMix64 decorrelation of explore_random seed streams.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness/locks.hpp"
#include "mutex/episodes.hpp"
#include "mutex/sim_mutex.hpp"
#include "mutex/tournament.hpp"
#include "recover/episodes.hpp"
#include "sim/broken_locks.hpp"
#include "sim/driver.hpp"
#include "sim/explorer.hpp"
#include "sim/por.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"

namespace rwr::sim {
namespace {

// ---- Differential harness --------------------------------------------------

struct DiffOutcome {
    ExploreResult full;
    ExploreResult reduced;
};

DiffOutcome diff_explore(const ScenarioFactory& factory, int depth,
                         std::uint64_t budget, const std::string& label) {
    ExploreOptions full_opt;
    full_opt.branch_depth = depth;
    full_opt.finish_budget = budget;
    full_opt.reduce = false;
    ExploreOptions red_opt = full_opt;
    red_opt.reduce = true;

    DiffOutcome out;
    out.full = explore(factory, full_opt);
    out.reduced = explore(factory, red_opt);

    // Verdict must be identical: the reduction may drop redundant
    // interleavings, never evidence.
    EXPECT_EQ(out.full.violations > 0, out.reduced.violations > 0)
        << label << ": full=" << out.full.violations
        << " (first: " << out.full.first_violation << ")"
        << " reduced=" << out.reduced.violations
        << " (first: " << out.reduced.first_violation << ")";
    EXPECT_LE(out.reduced.schedules_explored, out.full.schedules_explored)
        << label;
    EXPECT_EQ(out.full.truncated_runs, 0u) << label;
    EXPECT_EQ(out.reduced.truncated_runs, 0u) << label;

    // The parallel frontier must not change a single bit of the result,
    // for either engine mode.
    red_opt.jobs = 8;
    const ExploreResult red8 = explore(factory, red_opt);
    EXPECT_EQ(out.reduced, red8) << label << ": reduced jobs=1 vs jobs=8";
    full_opt.jobs = 8;
    const ExploreResult full8 = explore(factory, full_opt);
    EXPECT_EQ(out.full, full8) << label << ": full jobs=1 vs jobs=8";
    return out;
}

DriverConfig af_cfg(Protocol proto, std::uint32_t n, std::uint32_t m,
                    std::uint32_t f,
                    harness::LockKind kind = harness::LockKind::Af) {
    DriverConfig cfg;
    cfg.episodes =
        harness::lock_episodes({.lock = kind, .n = n, .m = m, .f = f});
    cfg.protocol = proto;
    cfg.passages = 1;
    return cfg;
}

// ---- Correct locks: verdicts identical, nothing truncated ------------------

TEST(ExploreReduction, AfConfigsMatchFullEnumeration) {
    const auto a = diff_explore(
        sim::driver_factory(af_cfg(Protocol::WriteThrough, 2, 1, 1)),
        10, 100'000, "af-n2m1f1");
    EXPECT_EQ(a.full.violations, 0u);
    EXPECT_EQ(a.full.incomplete_runs, 0u);
    EXPECT_EQ(a.reduced.incomplete_runs, 0u);

    const auto b = diff_explore(
        sim::driver_factory(af_cfg(Protocol::WriteBack, 2, 1, 2)), 10,
        100'000, "af-n2m1f2");
    EXPECT_EQ(b.full.violations, 0u);

    const auto c = diff_explore(
        sim::driver_factory(af_cfg(Protocol::WriteThrough, 1, 2, 1)),
        10, 100'000, "af-n1m2");
    EXPECT_EQ(c.full.violations, 0u);
}

TEST(ExploreReduction, AfDsmConfigMatchesFullEnumeration) {
    // The DSM tier goes through the same explorer (test_dsm_locks); homed
    // spin variables change the RMR accounting, not the step semantics.
    const auto r = diff_explore(
        sim::driver_factory(
            af_cfg(Protocol::Dsm, 2, 1, 1, harness::LockKind::AfDsm)),
        8, 100'000, "afdsm-n2m1");
    EXPECT_EQ(r.full.violations, 0u);
}

TEST(ExploreReduction, TournamentAndMcsMutexMatchFullEnumeration) {
    const auto mutex_factory = [](mutex::MutexBuilder builder,
                                  std::uint64_t passages) {
        DriverConfig cfg;
        cfg.episodes = mutex::mutex_episodes(std::move(builder), 2);
        cfg.protocol = Protocol::WriteThrough;
        cfg.passages = passages;
        return driver_factory(cfg);
    };
    const auto t = diff_explore(
        mutex_factory(
            [](Memory& mem) {
                return std::make_unique<mutex::TournamentSimMutex>(mem, "mx",
                                                                   2);
            },
            /*passages=*/2),
        12, 100'000, "tournament-m2");
    EXPECT_EQ(t.full.violations, 0u);

    const auto mc = diff_explore(
        mutex_factory(
            [](Memory& mem) {
                return std::make_unique<mutex::McsSimMutex>(mem, "mx", 2);
            },
            /*passages=*/1),
        12, 100'000, "mcs-m2");
    EXPECT_EQ(mc.full.violations, 0u);
}

TEST(ExploreReduction, RecoverableConfigsMatchFullEnumeration) {
    using recover::RecoverLockKind;
    const auto tiny = [](RecoverLockKind kind) {
        DriverConfig cfg;
        const bool mx = recover::is_mutex_kind(kind);
        cfg.episodes = recover::recover_episodes(
            {.lock = kind, .n = mx ? 0U : 2U, .m = mx ? 2U : 1U, .f = 1});
        cfg.passages = 1;
        cfg.cs_steps = 1;
        cfg.max_steps = 100000;
        return cfg;
    };

    // Crash-free walks for each recoverable kind the explore suite covers.
    for (const RecoverLockKind kind :
         {RecoverLockKind::Mutex, RecoverLockKind::JJJMutex,
          RecoverLockKind::RwLock}) {
        const auto r = diff_explore(
            sim::driver_factory(tiny(kind)), 5, 20'000,
            std::string("recover-") + recover::to_string(kind));
        EXPECT_EQ(r.full.violations, 0u);
    }

    // Crash-restart placement: the injector fires on victim-local section
    // step counts, which commute with independent steps, so reduction
    // stays enabled and must agree.
    auto crash = tiny(RecoverLockKind::RwLock);
    crash.faults.crash_restart(/*victim=*/0, Section::Entry, 2);
    const auto r = diff_explore(sim::driver_factory(crash), 4,
                                20'000, "recover-rrw-crash");
    EXPECT_EQ(r.full.violations, 0u);
}

TEST(ExploreReduction, StallFaultsDisableReductionButKeepVerdicts) {
    using recover::RecoverLockKind;
    DriverConfig cfg;
    cfg.episodes = recover::recover_episodes(
        {.lock = RecoverLockKind::Mutex, .n = 0, .m = 2});
    cfg.passages = 1;
    cfg.cs_steps = 1;
    cfg.max_steps = 100000;
    cfg.faults.stall(/*victim=*/0, Section::Entry, 1, /*steps=*/6);
    const ScenarioFactory factory = sim::driver_factory(cfg);

    // Stall resume deadlines are global-step based, so the scenario vetoes
    // reduction (Scenario::reduction_safe) and explore(reduce=true) must
    // fall back to the full enumeration bit for bit.
    EXPECT_FALSE(factory().reduction_safe);
    ExploreOptions full_opt;
    full_opt.branch_depth = 5;
    full_opt.finish_budget = 20'000;
    full_opt.reduce = false;
    ExploreOptions red_opt = full_opt;
    red_opt.reduce = true;
    const ExploreResult full = explore(factory, full_opt);
    const ExploreResult red = explore(factory, red_opt);
    EXPECT_EQ(full, red);
    EXPECT_EQ(full.violations, 0u) << full.first_violation;
}

// ---- Broken locks: the reduction must keep finding the bugs ----------------

TEST(ExploreReduction, BrokenLocksStillCaught) {
    const auto nw = diff_explore(broken_factory<NoReaderWaitLock>(1, 1), 10,
                                 10'000, "broken-nowait");
    EXPECT_GT(nw.full.violations, 0u);
    EXPECT_GT(nw.reduced.violations, 0u);

    const auto tt = diff_explore(broken_factory<TocTouLock>(2, 1), 12,
                                 10'000, "broken-toctou");
    EXPECT_GT(tt.full.violations, 0u);
    EXPECT_GT(tt.reduced.violations, 0u);
}

// ---- Legacy entry points keep their exact semantics ------------------------

TEST(ExploreReduction, ExploreDfsMatchesFullExplore) {
    const auto factory =
        sim::driver_factory(af_cfg(Protocol::WriteThrough, 2, 1, 1));
    const ExploreResult dfs = explore_dfs(factory, 9, 100'000);
    ExploreOptions opt;
    opt.branch_depth = 9;
    opt.finish_budget = 100'000;
    opt.reduce = false;
    EXPECT_EQ(dfs, explore(factory, opt));
    // Historical floor from test_af_lock (depth 12 explores > 500): the
    // engine rework must not change full-tree counting semantics.
    EXPECT_GT(dfs.schedules_explored, 100u);
    EXPECT_EQ(dfs.truncated_runs, 0u);
}

// ---- Satellite: strict in-range replay choices -----------------------------

TEST(ExploreReduction, DfsReplayChoicesAreStrictlyValidated) {
    const auto factory =
        sim::driver_factory(af_cfg(Protocol::WriteThrough, 1, 1, 1));
    Scenario sc = factory();
    sc.sys->start_all();
    const std::size_t width = sc.sys->runnable().size();
    ASSERT_GE(width, 2u);

    // In-range resolves identically in both modes.
    EXPECT_EQ(detail::resolve_choice(*sc.sys, 0, /*strict=*/true),
              detail::resolve_choice(*sc.sys, 0, /*strict=*/false));
    // Out-of-range: externally supplied prefixes wrap (documented
    // ReplayScheduler behaviour)...
    EXPECT_EQ(detail::resolve_choice(*sc.sys, width, /*strict=*/false),
              sc.sys->runnable()[0]);
    // ...but DFS-generated prefixes must never rely on the wraparound.
    EXPECT_THROW(
        static_cast<void>(
            detail::resolve_choice(*sc.sys, width, /*strict=*/true)),
        std::logic_error);
}

// ---- Satellite: explore_random seed decorrelation --------------------------

TEST(ExploreReduction, AdjacentBaseSeedsProduceDisjointScheduleTraces) {
    // Under the old `seed + i` derivation, base seeds 42 and 43 shared
    // 199 of 200 run seeds. The SplitMix64 double mix must make both the
    // derived seed streams and the resulting schedule traces disjoint.
    constexpr std::uint64_t kRuns = 64;
    std::set<std::uint64_t> seeds42;
    std::set<std::uint64_t> seeds43;
    for (std::uint64_t i = 0; i < kRuns; ++i) {
        seeds42.insert(explore_run_seed(42, i));
        seeds43.insert(explore_run_seed(43, i));
    }
    EXPECT_EQ(seeds42.size(), kRuns);
    for (const std::uint64_t s : seeds43) {
        EXPECT_EQ(seeds42.count(s), 0u);
    }

    // Trace-level check: record the actual schedules the derived seeds
    // drive on a small scenario; adjacent bases must not replay a single
    // identical schedule.
    const auto factory =
        sim::driver_factory(af_cfg(Protocol::WriteThrough, 2, 2, 1));
    const auto trace = [&](std::uint64_t base, std::uint64_t i) {
        Scenario sc = factory();
        RandomScheduler rnd(explore_run_seed(base, i));
        RecordingScheduler rec(rnd);
        run(*sc.sys, rec, 2'000);
        return rec.choices();
    };
    std::set<std::vector<std::size_t>> traces42;
    for (std::uint64_t i = 0; i < 16; ++i) {
        traces42.insert(trace(42, i));
    }
    for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(traces42.count(trace(43, i)), 0u) << "run " << i;
    }
}

}  // namespace
}  // namespace rwr::sim
