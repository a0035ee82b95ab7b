// The writer-mutex tier's episode adapters: any SimMutex by slot, and an
// AbortableSimMutex whose attempts may give up.
//
// Every participant is a writer (slot = pid), so the driver's ME predicate
// is "at most one process in the CS".
//
// The claim under test (E18): JJAmortizedMutex completes passages at O(1)
// RMRs *amortized over the whole history* -- every RMR of every episode,
// aborted attempts included, divided by the number of completed passages
// -- while the tournament-style locks pay Theta(log m) per passage plus a
// full climb per aborted attempt. Per-passage accounting alone cannot see
// this: an abort's deferred cleanup (the abandoned queue entry a later
// release consumes) lands in someone else's passage. So the driver's
// episode ledger brackets every acquisition *episode* (one attempt, plus
// CS + exit when it acquires) with SectionStats snapshots, and
// DriverResult::amortized must reconcile exactly with the Memory-side
// total -- sum(episode RMRs) == Memory::total_rmrs() -- which
// test_abortable asserts; it is the proof that the amortized numbers
// charge every RMR exactly once.
//
// Abort placement is drawn from a seeded per-slot SplitMix64 stream
// (sim::stream_seed of the run's seed), patience uniform in [patience_lo,
// patience_hi]: deterministic given (seed, scheduler), so grid rows are
// reproducible and --jobs-independent. The scheduler selects the adversary
// model for randomized algorithms: RoundRobin (fair), Random (the
// oblivious adversary: seeded schedule fixed before the run, blind to coin
// flips) or AdaptiveRmr (steers every step toward a pending remote
// reference -- the strong adversary). estimate_expected_amortized runs
// seeded repeated trials and reports mean / stddev / 95% CI and the worst
// trial (strict argmax, ties to the lowest index, like crash_adversary's
// reduction), all bit-identical for any parallel split because the trial
// loop is sequential and every trial is seeded independently.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "mutex/abortable.hpp"
#include "mutex/sim_mutex.hpp"
#include "rmr/memory.hpp"
#include "sim/driver.hpp"

namespace rwr::mutex {

/// Abort mix for an AbortableSimMutex (ignored by plain SimMutexes).
struct AbortWorkload {
    /// Each attempt independently becomes impatient with this probability,
    /// with patience uniform in [patience_lo, patience_hi] own entry steps.
    double abort_rate = 0.0;
    std::uint64_t patience_lo = 1;
    std::uint64_t patience_hi = 12;
    /// Single placement (the explorer's sweep): the FIRST attempt of slot
    /// `aborter` aborts after `first_patience` entry steps; later attempts,
    /// the retry included, follow the mix above. kNever = no placement.
    std::uint32_t aborter = 0;
    std::uint64_t first_patience = AbortControl::kNever;
    /// Non-null: counts every abort that fired, across all runs built from
    /// this workload (atomic: the explorer's frontier is parallel). The
    /// coverage witness of the probe-until-unfired placement sweep.
    std::shared_ptr<std::atomic<std::uint64_t>> fired = nullptr;
};

/// Builds the mutex from the run's fresh Memory. A mutex that is not an
/// AbortableSimMutex runs plain blocking passages -- that is how the
/// non-abortable growth baselines (YA, JJJ) ride the abort grid at rate 0.
using MutexBuilder = std::function<std::unique_ptr<SimMutex>(Memory&)>;

/// m writers on one mutex; sim::DriverConfig::seed seeds the abort mix.
[[nodiscard]] sim::EpisodeBuilder mutex_episodes(MutexBuilder builder,
                                                 std::uint32_t m,
                                                 AbortWorkload aborts = {});

/// Repeated-trial expected-RMR estimate for randomized algorithms. Trial i
/// runs make_cfg(sim::stream_seed(seed, i)) -- the callback threads the
/// trial seed into the mutex's coin flips, the workload stream and the
/// adversary, as it sees fit -- and contributes its amortized RMRs per
/// passage. Sequential, fixed-order reduction: bit-identical regardless of
/// any surrounding parallelism.
struct TrialStats {
    std::uint64_t trials = 0;
    double mean = 0.0;
    double stddev = 0.0;  ///< Sample standard deviation.
    double ci95 = 0.0;    ///< 1.96 * stddev / sqrt(trials).
    double worst = 0.0;   ///< Max trial value (adversary's best showing).
    std::uint64_t worst_trial = 0;  ///< Its index; ties to the lowest.
};

[[nodiscard]] TrialStats estimate_expected_amortized(
    const std::function<sim::DriverConfig(std::uint64_t)>& make_cfg,
    std::uint64_t trials, std::uint64_t seed);

}  // namespace rwr::mutex
