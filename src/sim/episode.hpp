// The episode loop every sim tier runs, and the adapter a tier supplies
// to it (see sim/driver.hpp for the run shell around it).
//
// Passage accounting across crashes is at-least-once: a crash on the very
// last step of an exit section leaves a fully-released lock with the
// passage not yet counted; recovery reports it (stage Exiting ->
// LockReleased) and counts it, but a crash *after* the stage word returned
// to Idle and before note_passage_complete() makes the loop retry the
// whole passage. Exactly-once would need the count itself to live in
// (simulated) shared memory; the checkers do not depend on it.
#pragma once

#include <cstdint>
#include <vector>

#include "rmr/stats.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::sim {

enum class EnterResult : std::uint8_t { Acquired, Aborted };

/// What a recoverable lock's recover() found after a crash-restart:
///   * None              -- nothing to repair (the crash hit outside any
///                          passage, or after a completed one);
///   * InCriticalSection -- the process holds the lock NOW: the loop runs
///                          the CS and the exit section of that passage;
///   * LockReleased      -- the crashed passage is finished (recovery
///                          completed its release); it counts.
enum class RecoveryOutcome : std::uint8_t {
    None,
    InCriticalSection,
    LockReleased,
};

enum class EpisodeKind : std::uint8_t {
    Passage,   ///< Entry through Exit (or completed by recovery).
    Aborted,   ///< An entry attempt that gave up.
    Recovery,  ///< Restart until recover() returned its verdict.
};

/// One entry of a process's episode ledger: the stats accrued during that
/// episode only. A passage completed by recovery carries the recovery's
/// stats too (the pre-crash attempt's stay in the process totals, but its
/// snapshot died with the coroutine).
struct PassageRecord {
    SectionStats delta;
    EpisodeKind kind = EpisodeKind::Passage;
};

struct DriveConfig {
    /// Passages per process. run_episodes() treats this as a target for
    /// Process::completed_passages(); drive_passages() adds it to the count
    /// the process already has.
    std::uint64_t passages = 1;
    /// Local steps spent inside the CS per passage (scheduling points while
    /// the process occupies the CS; >=1 so checkers can observe occupancy).
    std::uint64_t cs_steps = 1;
    /// Local steps spent in the remainder section between passages.
    std::uint64_t remainder_steps = 0;
    /// Append every episode to `records` if non-null.
    std::vector<PassageRecord>* records = nullptr;
};

struct DriverResult;

/// A tier's lock, seen by one process at a time. Adapters are shared by
/// all processes of a run; per-process state is indexed by pid.
class EpisodeAdapter {
   public:
    virtual ~EpisodeAdapter() = default;

    virtual SimTask<EnterResult> enter(Process& p) = 0;
    virtual SimTask<void> exit(Process& p) = 0;
    /// CS dwell of the passage `p` just entered.
    [[nodiscard]] virtual std::uint64_t cs_steps(const Process& p,
                                                 std::uint64_t configured) {
        (void)p;
        return configured;
    }
    /// Recoverable adapters get a restart factory and the RME checker.
    [[nodiscard]] virtual bool recoverable() const { return false; }
    virtual SimTask<RecoveryOutcome> recover(Process& p);
    /// False when the processes' CS occupancy is not one lock's (the
    /// distributed table's sessions hold different locks): no ME checker.
    [[nodiscard]] virtual bool shares_one_cs() const { return true; }
    /// Adds the tier's own counters after the run.
    virtual void report(DriverResult& res) const { (void)res; }
};

/// Runs passages of `p` through `ep` until completed_passages() reaches
/// cfg.passages. `recovering` starts with ep.recover() (the task a restart
/// factory builds; the process is already in Section::Recover).
SimTask<void> run_episodes(EpisodeAdapter& ep, Process& p, DriveConfig cfg,
                           bool recovering = false);

}  // namespace rwr::sim
