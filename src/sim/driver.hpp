// The sim run driver: one episode loop, one run shell and one explorer
// factory for every tier.
//
// Every number this repo reproduces is a per-section RMR count over
// passages. The RW locks, the writer mutexes (abortable or not), the
// recoverable locks and the distributed table differ only in how a process
// enters, exits and (after a crash-restart) recovers, so each tier supplies
// an EpisodeAdapter and the driver does the rest:
//
//   * run_episodes() is the one passage loop. Entry -> (on abort: Remainder,
//     one local step, retry) -> Critical for cs_steps local steps -> Exit ->
//     Remainder -> note_passage_complete -> record. It loops `while
//     completed_passages < target`, so the replacement task a crash-restart
//     installs resumes the count instead of redoing passages.
//   * run_driver() is the one run shell: it builds the System, lets the
//     adapter add its processes, installs the episode loops (plus restart
//     factories for recoverable adapters), attaches the observers, picks
//     the scheduler, runs in chunks under the wall deadline and fills one
//     DriverResult from the episode ledger.
//   * driver_factory() is the same build in throwing mode, as the
//     explorer's ScenarioFactory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/episode.hpp"
#include "sim/explorer.hpp"
#include "sim/fault.hpp"
#include "sim/rwlock.hpp"
#include "sim/system.hpp"

namespace rwr::sim {

enum class SchedKind : std::uint8_t {
    RoundRobin,
    Random,       ///< Seeded; the oblivious adversary.
    AdaptiveRmr,  ///< Steers toward pending RMRs; the strong adversary.
};

/// "round-robin", "oblivious", "adaptive" (adversary-model names).
[[nodiscard]] const char* to_string(SchedKind s);

struct DriverConfig;

/// Builds the tier's lock in `sys`'s memory, adds its processes and returns
/// the adapter that drives them.
using EpisodeBuilder = std::function<std::unique_ptr<EpisodeAdapter>(
    System& sys, const DriverConfig& cfg)>;

struct DriverConfig {
    EpisodeBuilder episodes;
    Protocol protocol = Protocol::WriteBack;
    std::uint64_t passages = 4;  ///< Completed passages per process.
    std::uint64_t cs_steps = 1;  ///< Local steps inside the CS.
    SchedKind sched = SchedKind::Random;
    /// Scheduler seed; adapters with a seeded workload draw from it too.
    std::uint64_t seed = 1;
    std::uint64_t max_steps = 50'000'000;
    bool check_mutual_exclusion = true;

    // ---- Robustness knobs (all off by default) --------------------------
    /// Crash/stall injections applied during the run (sim/fault.hpp).
    FaultPlan faults;
    /// Recoverable adapters: RmeChecker bounds (0 = unbounded).
    std::uint64_t recovery_step_bound = 0;
    std::uint64_t chain_recovery_step_bound = 0;
    /// >0: attach a ProgressChecker flagging livelock/starvation when no
    /// section transition happens within this many executed steps.
    std::uint64_t progress_window = 0;
    /// Record the schedule as ReplayScheduler-compatible choice indices.
    bool record_schedule = false;
    /// Non-empty: ignore `sched`/`seed` and replay this choice sequence.
    std::vector<std::size_t> replay;
    /// >0: wall-clock deadline. A run exceeding it stops early with
    /// deadline_expired set and a per-process state dump in
    /// progress_diagnosis, instead of spinning until max_steps.
    std::uint64_t wall_deadline_ms = 0;
};

/// Per-role aggregate over all passage records.
struct RoleStats {
    double mean_rmrs[kNumSections] = {};
    std::uint64_t max_rmrs[kNumSections] = {};
    double mean_steps[kNumSections] = {};
    std::uint64_t max_steps[kNumSections] = {};
    double mean_passage_rmrs = 0;
    std::uint64_t max_passage_rmrs = 0;
    std::uint64_t num_passages = 0;

    [[nodiscard]] double mean_in(Section s) const {
        return mean_rmrs[static_cast<int>(s)];
    }
    [[nodiscard]] std::uint64_t max_in(Section s) const {
        return max_rmrs[static_cast<int>(s)];
    }
};

/// The amortized ledger: every RMR of every passage and aborted episode,
/// divided by completed passages. Reconciles exactly with
/// Memory::total_rmrs() on runs without crashes.
struct AmortizedStats {
    std::uint64_t episodes = 0;
    std::uint64_t aborted_episodes = 0;
    std::uint64_t passages = 0;
    std::uint64_t episode_rmrs = 0;
    std::uint64_t abort_rmrs = 0;     ///< Subset spent in aborted episodes.
    std::uint64_t abort_rmr_max = 0;  ///< Costliest single aborted episode.

    [[nodiscard]] double amortized_rmrs_per_passage() const {
        return passages == 0 ? 0.0
                             : static_cast<double>(episode_rmrs) /
                                   static_cast<double>(passages);
    }
    [[nodiscard]] double abort_rmr_mean() const {
        return aborted_episodes == 0
                   ? 0.0
                   : static_cast<double>(abort_rmrs) /
                         static_cast<double>(aborted_episodes);
    }
};

/// Recover-section cost of each completed recovery episode, pooled.
struct RecoverySummary {
    std::uint64_t episodes = 0;
    double mean_rmrs = 0;
    std::uint64_t max_rmrs = 0;
    double mean_steps = 0;
    std::uint64_t max_steps = 0;
};

/// RME group: zero unless the adapter is recoverable.
struct RmeStats {
    std::uint64_t violations = 0;  ///< CSR / bounded-recovery / ME.
    std::uint64_t restarts = 0;    ///< Crash-restarts survived.
    std::uint64_t max_recovery_steps = 0;  ///< Longest recovery episode.
    /// Longest nested-crash chain (cumulative Recover steps).
    std::uint64_t max_chain_recovery_steps = 0;
    RecoverySummary recovery;
};

/// Distributed-table group: filled by the dist adapter.
struct DistStats {
    std::uint64_t read_ops = 0;
    std::uint64_t write_ops = 0;
    std::uint64_t witness_violations = 0;
    /// Network RMRs (= memory_rmrs: the shard homes never step) per op.
    double network_rmrs_per_op = 0;

    [[nodiscard]] std::uint64_t total_ops() const {
        return read_ops + write_ops;
    }
};

/// The groups map onto the rwr-bench-v1 payload groups: readers/writers ->
/// sim_rmr, steps/wall_ms -> sim_perf, proc_rmrs -> proc_rmr, amortized ->
/// amortized, dist -> dist.
struct DriverResult {
    bool finished = false;
    bool all_surviving_finished = false;  ///< Finished modulo crashed procs.
    std::uint64_t steps = 0;
    /// Wall time of the simulation loop (excludes system construction).
    double wall_ms = 0;

    RoleStats readers;
    RoleStats writers;
    /// Whole-run RMR total per ProcId, one entry per process.
    std::vector<std::uint64_t> proc_rmrs;
    std::uint64_t memory_rmrs = 0;  ///< Memory::total_rmrs().
    AmortizedStats amortized;
    /// Every process's episode ledger, indexed by pid.
    std::vector<std::vector<PassageRecord>> records;

    std::uint32_t max_concurrent_readers = 0;
    std::uint64_t me_violations = 0;
    RmeStats rme;
    /// First RME violation, else the first ME violation.
    std::string first_violation;
    DistStats dist;

    // ---- Robustness outcomes --------------------------------------------
    std::uint32_t crashed = 0;  ///< Processes killed by the plan.
    /// Stall victims whose resume window never elapsed before the run
    /// ended: stuck survivors, unfinished yet not counted by `crashed`.
    std::uint32_t stalled_at_exit = 0;
    std::size_t faults_fired = 0;
    bool livelock = false;                ///< ProgressChecker: global stall.
    bool starvation = false;              ///< ProgressChecker: stuck process.
    std::string progress_diagnosis;       ///< Dump at first detection.
    std::vector<std::size_t> schedule;    ///< When record_schedule is set.
    bool deadline_expired = false;        ///< Wall deadline hit.
};

/// n readers (pids [0, n)) then m writers on one RW lock built by `make`,
/// each entering and exiting by its role.
[[nodiscard]] EpisodeBuilder rw_episodes(
    std::function<std::unique_ptr<SimRWLock>(Memory&)> make, std::uint32_t n,
    std::uint32_t m);

/// Runs the configured experiment once, checkers in counting mode. Throws
/// if a process task failed, or if the fault plan requires every fault to
/// fire and one did not.
DriverResult run_driver(const DriverConfig& cfg);

/// One run per config on `jobs` threads (harness/pool.hpp); results come
/// back in config order, bit-identical for any jobs value.
std::vector<DriverResult> run_drivers(const std::vector<DriverConfig>& cfgs,
                                      unsigned jobs);

/// The same build with throwing checkers, for explore() / explore_dfs /
/// explore_random. Stall faults turn partial-order reduction off.
ScenarioFactory driver_factory(DriverConfig cfg);

}  // namespace rwr::sim
