// Model checking of the recoverable locks (explore_dfs over
// sim::driver_factory of recover_episodes): for every single-crash
// placement -- every victim, every section, every step index at which the
// fault can fire --
// enumerate all schedule prefixes and prove mutual exclusion and
// Critical-Section Reentry hold, with zero incomplete runs (nobody gets
// stuck, i.e. recovery always converges). The nested variant then crashes
// the victim a SECOND time at every step inside the recovery spawned by
// the first crash (min_restarts gating, sim/fault.hpp), exhausting the
// double-crash placements whose second crash lands in Section::Recover.
//
// Placement coverage is proved by construction: for each (victim, section)
// the step index increases until a probe run reports zero restarts -- the
// fault no longer fires because the victim executes fewer steps in that
// section -- so every index at which the fault CAN fire has been explored,
// and the first one-past-the-end index is pinned as the stopping witness.
// The double-crash walk applies the same witness to the inner (Recover
// step) index, probing for restarts < 2.
//
// Crash-bearing schedules must also replay bit-identically from a recorded
// choice trace (the debugging workflow for any future violation).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "recover/episodes.hpp"
#include "sim/driver.hpp"
#include "sim/explorer.hpp"
#include "sim/fault.hpp"

namespace rwr {
namespace {

using recover::RecoverLockKind;

recover::RecoverSpec tiny_spec(RecoverLockKind kind) {
    if (recover::is_mutex_kind(kind)) {
        return {.lock = kind, .n = 0, .m = 2, .f = 1};
    }
    return {.lock = kind, .n = 2, .m = 1, .f = 1};
}

sim::DriverConfig tiny_cfg(RecoverLockKind kind) {
    sim::DriverConfig cfg;
    cfg.episodes = recover::recover_episodes(tiny_spec(kind));
    cfg.passages = 1;
    cfg.cs_steps = 1;
    cfg.sched = sim::SchedKind::RoundRobin;
    cfg.max_steps = 100000;
    return cfg;
}

/// Max step index probed per (victim, section) before declaring the probe
/// broken; every section of these tiny passages is far shorter.
constexpr std::uint64_t kStepCap = 40;

void explore_all_single_crash_placements(RecoverLockKind kind,
                                         int branch_depth) {
    const sim::DriverConfig base = tiny_cfg(kind);
    const std::uint32_t procs = recover::num_processes(tiny_spec(kind));
    std::uint64_t placements_explored = 0;
    for (ProcId victim = 0; victim < procs; ++victim) {
        for (const Section section :
             {Section::Entry, Section::Critical, Section::Exit}) {
            std::uint64_t step = 1;
            for (; step <= kStepCap; ++step) {
                auto cfg = base;
                cfg.faults =
                    sim::FaultPlan{}.crash_restart(victim, section, step);
                // Deterministic probe: does this placement fire at all?
                const auto probe = sim::run_driver(cfg);
                ASSERT_TRUE(probe.finished)
                    << to_string(kind) << " probe v" << victim << " "
                    << to_string(section) << " s" << step;
                if (probe.rme.restarts == 0) {
                    break;  // One past the section's end: coverage complete.
                }
                const auto res =
                    sim::explore_dfs(sim::driver_factory(cfg),
                                     branch_depth, /*finish_budget=*/20000);
                const std::string at = to_string(kind) + " v" +
                                       std::to_string(victim) + " " +
                                       to_string(section) + " s" +
                                       std::to_string(step);
                EXPECT_GT(res.schedules_explored, 0u) << at;
                EXPECT_EQ(res.violations, 0u)
                    << at << ": " << res.first_violation;
                EXPECT_EQ(res.incomplete_runs, 0u) << at;
                EXPECT_EQ(res.truncated_runs, 0u) << at;
                ++placements_explored;
            }
            // The stopping witness: the step index really walked off the end
            // of the section (and did not just hit the cap), proving every
            // firing index was visited. Every section takes at least one
            // step, so the first unfired index is always >= 2.
            ASSERT_LT(step, kStepCap)
                << to_string(kind) << " v" << victim << " "
                << to_string(section);
            ASSERT_GE(step, 2u) << to_string(kind) << " v" << victim << " "
                                << to_string(section);
        }
    }
    EXPECT_GT(placements_explored, 0u);
}

TEST(RecoverExplore, MutexEveryCrashPlacementKeepsMEAndCSR) {
    explore_all_single_crash_placements(RecoverLockKind::Mutex,
                                        /*branch_depth=*/6);
}

TEST(RecoverExplore, JJJEveryCrashPlacementKeepsMEAndCSR) {
    explore_all_single_crash_placements(RecoverLockKind::JJJMutex,
                                        /*branch_depth=*/6);
}

TEST(RecoverExplore, RWLockEveryCrashPlacementKeepsMEAndCSR) {
    explore_all_single_crash_placements(RecoverLockKind::RwLock,
                                        /*branch_depth=*/5);
}

/// Exhaustive nested double crashes: first crash at every step of every
/// passage section, second crash at every step of the recovery the first
/// one spawned ({Recover, j, min_restarts 1}). Inner coverage witness:
/// j advances until the probe run restarts only once -- the second fault
/// fell past the recovery's end -- so every index at which the nested
/// crash CAN fire has been explored.
void explore_all_double_crash_placements(RecoverLockKind kind,
                                         int branch_depth) {
    const sim::DriverConfig base = tiny_cfg(kind);
    const std::uint32_t procs = recover::num_processes(tiny_spec(kind));
    std::uint64_t placements_explored = 0;
    for (ProcId victim = 0; victim < procs; ++victim) {
        for (const Section section :
             {Section::Entry, Section::Critical, Section::Exit}) {
            std::uint64_t i = 1;
            for (; i <= kStepCap; ++i) {
                {
                    // Outer witness probe, as in the single-crash walk.
                    auto cfg = base;
                    cfg.faults =
                        sim::FaultPlan{}.crash_restart(victim, section, i);
                    const auto probe = sim::run_driver(cfg);
                    ASSERT_TRUE(probe.finished);
                    if (probe.rme.restarts == 0) {
                        break;
                    }
                }
                std::uint64_t j = 1;
                for (; j <= kStepCap; ++j) {
                    auto cfg = base;
                    cfg.faults =
                        sim::FaultPlan{}
                            .crash_restart(victim, section, i)
                            .crash_restart(victim, Section::Recover, j,
                                           /*min_restarts=*/1);
                    const auto probe = sim::run_driver(cfg);
                    const std::string at =
                        to_string(kind) + " v" + std::to_string(victim) +
                        " " + to_string(section) + " s" + std::to_string(i) +
                        " then Recover s" + std::to_string(j);
                    ASSERT_TRUE(probe.finished) << at;
                    if (probe.rme.restarts < 2) {
                        break;  // Past the recovery's end: inner coverage.
                    }
                    const auto res = sim::explore_dfs(
                        sim::driver_factory(cfg), branch_depth,
                        /*finish_budget=*/20000);
                    EXPECT_GT(res.schedules_explored, 0u) << at;
                    EXPECT_EQ(res.violations, 0u)
                        << at << ": " << res.first_violation;
                    EXPECT_EQ(res.incomplete_runs, 0u) << at;
                    EXPECT_EQ(res.truncated_runs, 0u) << at;
                    ++placements_explored;
                }
                // Inner stopping witness: every recovery takes at least one
                // step, and the walk fell off its end before the cap.
                ASSERT_LT(j, kStepCap)
                    << to_string(kind) << " v" << victim << " "
                    << to_string(section) << " s" << i;
                ASSERT_GE(j, 2u) << to_string(kind) << " v" << victim << " "
                                 << to_string(section) << " s" << i;
            }
            ASSERT_LT(i, kStepCap)
                << to_string(kind) << " v" << victim << " "
                << to_string(section);
        }
    }
    EXPECT_GT(placements_explored, 0u);
}

TEST(RecoverExplore, MutexEveryNestedDoubleCrashKeepsMEAndCSR) {
    explore_all_double_crash_placements(RecoverLockKind::Mutex,
                                        /*branch_depth=*/4);
}

TEST(RecoverExplore, JJJEveryNestedDoubleCrashKeepsMEAndCSR) {
    explore_all_double_crash_placements(RecoverLockKind::JJJMutex,
                                        /*branch_depth=*/4);
}

TEST(RecoverExplore, RWLockEveryNestedDoubleCrashKeepsMEAndCSR) {
    explore_all_double_crash_placements(RecoverLockKind::RwLock,
                                        /*branch_depth=*/3);
}

TEST(RecoverExplore, CrashFreeBaselineExploresClean) {
    // The fault-free scenario through the same factory: any violation here
    // would implicate the locks themselves rather than recovery.
    for (const auto kind :
         {RecoverLockKind::Mutex, RecoverLockKind::JJJMutex,
          RecoverLockKind::RwLock, RecoverLockKind::RwLockJJJ}) {
        const auto res = sim::explore_dfs(
            sim::driver_factory(tiny_cfg(kind)),
            /*branch_depth=*/6, /*finish_budget=*/20000);
        EXPECT_GT(res.schedules_explored, 0u) << to_string(kind);
        EXPECT_EQ(res.violations, 0u)
            << to_string(kind) << ": " << res.first_violation;
        EXPECT_EQ(res.incomplete_runs, 0u) << to_string(kind);
        EXPECT_EQ(res.truncated_runs, 0u) << to_string(kind);
    }
}

TEST(RecoverExplore, CrashBearingScheduleReplaysBitIdentically) {
    // Record a random run with two crash-restarts, then replay the recorded
    // choices on a freshly built system: every deterministic observable
    // must match exactly -- the debugging loop a future violation relies on.
    auto cfg = tiny_cfg(RecoverLockKind::RwLock);
    cfg.passages = 2;
    cfg.sched = sim::SchedKind::Random;
    cfg.seed = 5;
    cfg.record_schedule = true;
    cfg.faults.crash_restart(/*victim=*/0, Section::Critical, 1);
    cfg.faults.crash_restart(/*victim=*/2, Section::Entry, 2);
    const auto first = sim::run_driver(cfg);
    ASSERT_TRUE(first.finished);
    ASSERT_EQ(first.rme.restarts, 2u);
    ASSERT_EQ(first.schedule.size(), first.steps);
    ASSERT_EQ(first.me_violations + first.rme.violations, 0u)
        << first.first_violation;

    auto replay_cfg = cfg;
    replay_cfg.replay = first.schedule;
    const auto second = sim::run_driver(replay_cfg);

    EXPECT_EQ(second.steps, first.steps);
    EXPECT_EQ(second.finished, first.finished);
    EXPECT_EQ(second.rme.restarts, first.rme.restarts);
    EXPECT_EQ(second.rme.max_recovery_steps, first.rme.max_recovery_steps);
    EXPECT_EQ(second.amortized.passages, first.amortized.passages);
    EXPECT_EQ(second.schedule, first.schedule);
    EXPECT_EQ(second.readers.mean_passage_rmrs,
              first.readers.mean_passage_rmrs);
    EXPECT_EQ(second.writers.mean_passage_rmrs,
              first.writers.mean_passage_rmrs);
}

}  // namespace
}  // namespace rwr
