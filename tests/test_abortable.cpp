// The abortable writer-mutex tier (E18 foundations): JJAmortizedMutex,
// PwRandomizedMutex and AbortableTournamentMutex correctness under
// abort-heavy workloads in CC and DSM, the amortized-RMR ledger's
// reconciliation invariant (sum of episode RMRs == Memory's per-history
// total -- the proof every RMR is charged exactly once), exhaustive
// single-abort-placement exploration with the probe-until-unfired
// discipline (plus the broken-abort mutant proving the sweep has teeth),
// adversary-scheduler determinism, the repeated-trial estimator, and A_f
// running with the new locks as its embedded WL.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>

#include "harness/locks.hpp"
#include "mutex/abortable.hpp"
#include "mutex/abortable_tournament.hpp"
#include "mutex/episodes.hpp"
#include "mutex/jj_amortized.hpp"
#include "mutex/pw_randomized.hpp"
#include "mutex/sim_mutex.hpp"
#include "sim/broken_locks.hpp"
#include "sim/driver.hpp"
#include "sim/explorer.hpp"

namespace rwr::mutex {
namespace {

TEST(AbortControl, DefaultsAndFactories) {
    EXPECT_EQ(AbortControl::never().patience, AbortControl::kNever);
    EXPECT_EQ(AbortControl::after(3).patience, 3u);
    EXPECT_EQ(AbortControl{}.patience, AbortControl::kNever);
}

// ---- Abort-heavy passages + the reconciliation invariant -------------------

struct LockCase {
    const char* label;
    Protocol protocol;
    MutexBuilder builder;
};

/// m slots under the abort mix `rate`, round-robin, 2-step CS.
sim::DriverConfig abort_cfg(MutexBuilder builder, std::uint32_t m,
                            std::uint64_t passages, double rate) {
    sim::DriverConfig cfg;
    cfg.episodes = mutex_episodes(std::move(builder), m, {.abort_rate = rate});
    cfg.passages = passages;
    cfg.cs_steps = 2;
    cfg.sched = sim::SchedKind::RoundRobin;
    cfg.max_steps = 8'000'000;
    return cfg;
}

std::vector<LockCase> abortable_cases(std::uint32_t m) {
    std::vector<LockCase> cases;
    cases.push_back({"jj/cc", Protocol::WriteBack, [](Memory& mem) {
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<JJAmortizedMutex>(mem, "jj", 4));
                     }});
    cases.push_back({"jj/dsm", Protocol::Dsm, [](Memory& mem) {
                         JJAmortizedMutex::Options opts;
                         opts.owner_base = ProcId{0};
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<JJAmortizedMutex>(mem, "jj", 4,
                                                                opts));
                     }});
    cases.push_back({"pw/cc", Protocol::WriteBack, [](Memory& mem) {
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<PwRandomizedMutex>(mem, "pw", 4,
                                                                 /*seed=*/7));
                     }});
    cases.push_back({"pw/dsm", Protocol::Dsm, [](Memory& mem) {
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<PwRandomizedMutex>(
                                 mem, "pw", 4, /*seed=*/7, /*delta=*/0,
                                 ProcId{0}));
                     }});
    cases.push_back({"tournament/cc", Protocol::WriteBack, [](Memory& mem) {
                         return std::unique_ptr<SimMutex>(
                             std::make_unique<AbortableTournamentMutex>(
                                 mem, "tournament", 4));
                     }});
    (void)m;
    return cases;
}

TEST(AbortExperiment, AbortHeavyPassagesCompleteAndLedgersReconcile) {
    constexpr std::uint32_t kM = 4;
    constexpr std::uint64_t kPassages = 16;
    for (const LockCase& c : abortable_cases(kM)) {
        sim::DriverConfig cfg = abort_cfg(c.builder, kM, kPassages, 0.5);
        cfg.protocol = c.protocol;
        cfg.seed = 11;
        const sim::DriverResult res = sim::run_driver(cfg);

        EXPECT_TRUE(res.finished) << c.label;
        EXPECT_EQ(res.me_violations, 0u) << c.label;
        EXPECT_EQ(res.amortized.passages, std::uint64_t{kM} * kPassages)
            << c.label;
        // Half the attempts draw a small patience: aborts must occur, and
        // every abort implies a retry episode on top of its passage.
        EXPECT_GT(res.amortized.aborted_episodes, 0u) << c.label;
        EXPECT_EQ(res.amortized.episodes,
                  res.amortized.passages + res.amortized.aborted_episodes)
            << c.label;
        EXPECT_GT(res.amortized.abort_rmr_max, 0u) << c.label;
        EXPECT_GE(res.amortized.episode_rmrs, res.amortized.abort_rmrs)
            << c.label;

        // Reconciliation: the per-episode ledger and the Memory-side
        // per-history total must charge exactly the same RMRs (remainder
        // beats between episodes are local steps, 0 RMRs).
        EXPECT_EQ(res.amortized.episode_rmrs, res.memory_rmrs) << c.label;
        std::uint64_t episodes = 0;
        std::uint64_t sum = 0;
        std::uint64_t aborted = 0;
        for (const auto& per_slot : res.records) {
            for (const sim::PassageRecord& e : per_slot) {
                ++episodes;
                sum += e.delta.total_rmrs();
                aborted += e.kind == sim::EpisodeKind::Aborted ? 1 : 0;
            }
        }
        ASSERT_EQ(episodes, res.amortized.episodes) << c.label;
        EXPECT_EQ(sum, res.amortized.episode_rmrs) << c.label;
        EXPECT_EQ(aborted, res.amortized.aborted_episodes) << c.label;
        const std::uint64_t proc_sum = std::accumulate(
            res.proc_rmrs.begin(), res.proc_rmrs.end(), std::uint64_t{0});
        EXPECT_EQ(proc_sum, res.memory_rmrs) << c.label;
    }
}

TEST(AbortExperiment, ZeroAbortRateNeverAborts) {
    const sim::DriverConfig cfg = abort_cfg(
        [](Memory& mem) {
            return std::unique_ptr<SimMutex>(
                std::make_unique<JJAmortizedMutex>(mem, "jj", 3));
        },
        3, 8, 0.0);
    const sim::DriverResult res = sim::run_driver(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.amortized.aborted_episodes, 0u);
    EXPECT_EQ(res.amortized.episodes, res.amortized.passages);
    EXPECT_EQ(res.amortized.abort_rmr_max, 0u);
}

TEST(AbortExperiment, NonAbortableBuildersRideTheGridBlocking) {
    // A plain SimMutex builder must work with abort_rate > 0: the rate is
    // ignored (blocking enter), which is how the growth baselines share
    // the E18 grid.
    const sim::DriverConfig cfg = abort_cfg(
        [](Memory& mem) {
            return std::unique_ptr<SimMutex>(
                std::make_unique<TournamentSimMutex>(mem, "wl", 3));
        },
        3, 8, 0.9);
    const sim::DriverResult res = sim::run_driver(cfg);
    EXPECT_TRUE(res.finished);
    EXPECT_EQ(res.me_violations, 0u);
    EXPECT_EQ(res.amortized.aborted_episodes, 0u);
    EXPECT_EQ(res.amortized.passages, 24u);
}

// ---- Adversary schedulers: ME + bit-identical reruns -----------------------

TEST(AbortExperiment, AdversarySchedulersAreDeterministicAndSafe) {
    for (const sim::SchedKind sched :
         {sim::SchedKind::RoundRobin, sim::SchedKind::Random,
          sim::SchedKind::AdaptiveRmr}) {
        sim::DriverConfig cfg = abort_cfg(
            [](Memory& mem) {
                return std::unique_ptr<SimMutex>(
                    std::make_unique<PwRandomizedMutex>(mem, "pw", 4,
                                                        /*seed=*/3));
            },
            4, 8, 0.4);
        cfg.sched = sched;
        cfg.seed = 21;
        const sim::DriverResult a = sim::run_driver(cfg);
        const sim::DriverResult b = sim::run_driver(cfg);
        const char* label = to_string(sched);
        EXPECT_TRUE(a.finished) << label;
        EXPECT_EQ(a.me_violations, 0u) << label;
        // Same config, same seeds: bit-identical ledger and step count.
        EXPECT_EQ(a.steps, b.steps) << label;
        EXPECT_EQ(a.amortized.episodes, b.amortized.episodes) << label;
        EXPECT_EQ(a.amortized.aborted_episodes, b.amortized.aborted_episodes)
            << label;
        EXPECT_EQ(a.amortized.episode_rmrs, b.amortized.episode_rmrs)
            << label;
        EXPECT_EQ(a.memory_rmrs, b.memory_rmrs) << label;
    }
}

TEST(AbortExperiment, TrialEstimatorIsDeterministic) {
    const auto make_cfg = [](std::uint64_t trial_seed) {
        sim::DriverConfig cfg = abort_cfg(
            [trial_seed](Memory& mem) {
                return std::unique_ptr<SimMutex>(
                    std::make_unique<PwRandomizedMutex>(mem, "pw", 4,
                                                        /*seed=*/trial_seed));
            },
            4, 8, 0.5);
        cfg.sched = sim::SchedKind::Random;
        cfg.seed = trial_seed;
        return cfg;
    };
    const TrialStats a = estimate_expected_amortized(make_cfg, 5, 9);
    const TrialStats b = estimate_expected_amortized(make_cfg, 5, 9);
    EXPECT_EQ(a.trials, 5u);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
    EXPECT_EQ(a.ci95, b.ci95);
    EXPECT_EQ(a.worst, b.worst);
    EXPECT_EQ(a.worst_trial, b.worst_trial);
    EXPECT_GT(a.mean, 0.0);
    EXPECT_GE(a.worst, a.mean);
    EXPECT_GE(a.ci95, 0.0);
}

// ---- Exhaustive single-abort placement (satellite 1) -----------------------

struct SweepOutcome {
    std::uint64_t fired_placements = 0;  ///< Placements whose abort fired.
    std::uint64_t violations = 0;
    std::uint64_t incomplete = 0;  ///< Deadlocked runs (mutant symptom).
};

/// Probes patience j = 0, 1, 2, ... For each j, every schedule (DPOR'd) of
/// m writers with slot 0's first attempt impatient-after-j is explored; the
/// sweep stops at the first j whose abort never fires in any schedule --
/// past the last reachable abort point, larger patience only shrinks
/// coverage. Exactly the crash adversary's probe-until-unfired discipline.
/// With expect_clean, every placement must explore with zero violations,
/// zero deadlocks and zero truncations; the mutant test instead inspects
/// the accumulated outcome.
SweepOutcome sweep_abort_placements(const MutexBuilder& builder,
                                    std::uint32_t m, std::uint64_t passages,
                                    std::uint64_t cs_steps, const char* label,
                                    bool expect_clean) {
    SweepOutcome out;
    for (std::uint64_t j = 0;; ++j) {
        auto fired = std::make_shared<std::atomic<std::uint64_t>>(0);
        sim::DriverConfig cfg;
        cfg.episodes = mutex_episodes(
            builder, m,
            {.aborter = 0, .first_patience = j, .fired = fired});
        cfg.protocol = Protocol::WriteThrough;
        cfg.passages = passages;
        cfg.cs_steps = cs_steps;
        const auto factory = sim::driver_factory(cfg);
        sim::ExploreOptions opt;
        opt.branch_depth = 10;
        opt.finish_budget = 50'000;
        opt.reduce = true;
        const sim::ExploreResult res = sim::explore(factory, opt);
        out.violations += res.violations;
        out.incomplete += res.incomplete_runs;
        EXPECT_EQ(res.truncated_runs, 0u) << label << " patience " << j;
        if (expect_clean) {
            EXPECT_EQ(res.violations, 0u) << label << " patience " << j;
            EXPECT_EQ(res.incomplete_runs, 0u) << label << " patience " << j;
        }
        if (fired->load(std::memory_order_relaxed) == 0) {
            return out;
        }
        ++out.fired_placements;
        // A runaway sweep means patience never stops firing -- the step
        // counting is broken; fail loudly instead of spinning.
        EXPECT_LT(j, 200u) << label;
        if (j >= 200) {
            return out;
        }
    }
}

TEST(AbortPlacement, JJEveryPlacementKeepsMutualExclusion) {
    const SweepOutcome out = sweep_abort_placements(
        [](Memory& mem) {
            return std::unique_ptr<SimMutex>(
                std::make_unique<JJAmortizedMutex>(mem, "jj", 2));
        },
        2, /*passages=*/2, /*cs_steps=*/1, "jj", /*expect_clean=*/true);
    EXPECT_EQ(out.violations, 0u);
    // The sweep must have covered real abort points.
    EXPECT_GT(out.fired_placements, 0u);
}

TEST(AbortPlacement, TournamentEveryPlacementKeepsMutualExclusion) {
    const SweepOutcome out = sweep_abort_placements(
        [](Memory& mem) {
            return std::unique_ptr<SimMutex>(
                std::make_unique<AbortableTournamentMutex>(mem, "tournament",
                                                           2));
        },
        2, /*passages=*/2, /*cs_steps=*/1, "tournament",
        /*expect_clean=*/true);
    EXPECT_EQ(out.violations, 0u);
    EXPECT_GT(out.fired_placements, 0u);
}

TEST(AbortPlacement, PwEveryPlacementKeepsMutualExclusion) {
    const SweepOutcome out = sweep_abort_placements(
        [](Memory& mem) {
            return std::unique_ptr<SimMutex>(
                std::make_unique<PwRandomizedMutex>(mem, "pw", 2, /*seed=*/7));
        },
        2, /*passages=*/2, /*cs_steps=*/1, "pw", /*expect_clean=*/true);
    EXPECT_EQ(out.violations, 0u);
    EXPECT_GT(out.fired_placements, 0u);
}

TEST(AbortPlacement, BrokenAbortMutantIsCaught) {
    // The teeth check: a mutant whose abort "helpfully" advances the grant
    // cursor past its own ticket licenses the next claimant while the
    // holder is still inside -- the placement sweep must find a violating
    // schedule at SOME placement (and only abort-firing schedules can
    // misbehave, which is exactly what makes the sweep the right net).
    // The CS is widened so the holder is still inside while the aborter
    // re-claims off the corrupted cursor; with a 1-step CS the corruption
    // still surfaces, but as deadlock (grant cursor skipping a live
    // ticket) rather than overlap.
    const SweepOutcome out = sweep_abort_placements(
        [](Memory& mem) {
            return std::unique_ptr<SimMutex>(
                std::make_unique<sim::BrokenAbortTicketMutex>(mem, "broken",
                                                              2));
        },
        2, /*passages=*/1, /*cs_steps=*/20, "broken-abort",
        /*expect_clean=*/false);
    EXPECT_GT(out.violations, 0u);
}

// ---- A_f integration: the new locks as the embedded WL ---------------------

TEST(AfIntegration, JjAndPwWlKindsKeepMutualExclusion) {
    for (const core::WlKind wl :
         {core::WlKind::JjAmortized, core::WlKind::PwRandomized,
          core::WlKind::YaTournament}) {
        for (const bool dsm : {false, true}) {
            for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
                sim::DriverConfig cfg;
                cfg.episodes = harness::lock_episodes(
                    {.lock = dsm ? harness::LockKind::AfDsm
                                 : harness::LockKind::Af,
                     .n = 3,
                     .m = 3,
                     .f = 2,
                     .wl = wl,
                     .wl_seed = 5});
                cfg.protocol = dsm ? Protocol::Dsm : Protocol::WriteBack;
                cfg.passages = 3;
                cfg.sched = sim::SchedKind::Random;
                cfg.seed = seed;
                const sim::DriverResult res = sim::run_driver(cfg);
                EXPECT_TRUE(res.finished)
                    << core::to_string(wl) << " dsm=" << dsm << " seed "
                    << seed;
                EXPECT_EQ(res.me_violations, 0u)
                    << core::to_string(wl) << " dsm=" << dsm << " seed "
                    << seed;
            }
        }
    }
}

TEST(AfIntegration, DefaultWlKindKeepsHistoricConfigsBitIdentical) {
    // WlKind::PetersonTournament is the default everywhere: a config that
    // never mentions wl_kind must produce exactly the numbers it always
    // did. Guarded by comparing against an explicitly-defaulted twin.
    sim::DriverConfig base;
    base.episodes = harness::lock_episodes({.n = 4, .m = 2, .f = 2});
    base.passages = 4;
    base.sched = sim::SchedKind::Random;
    base.seed = 7;
    sim::DriverConfig twin = base;
    twin.episodes = harness::lock_episodes(
        {.n = 4,
         .m = 2,
         .f = 2,
         .wl = core::WlKind::PetersonTournament,
         .wl_seed = 1});
    const auto a = sim::run_driver(base);
    const auto b = sim::run_driver(twin);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.writers.mean_passage_rmrs, b.writers.mean_passage_rmrs);
    EXPECT_EQ(a.readers.mean_passage_rmrs, b.readers.mean_passage_rmrs);
}

}  // namespace
}  // namespace rwr::mutex
