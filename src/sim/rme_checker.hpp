// Invariant checkers for recoverable mutual exclusion (RME) properties,
// wired like MutualExclusionChecker: a StepObserver that throws
// InvariantViolation, so explore_dfs / explore_random / PCT and
// ReplayScheduler work unchanged over executions containing crash points.
//
// Checked properties:
//
//   * Mutual exclusion across crashes -- same predicate as
//     MutualExclusionChecker (at most one writer, no readers with a
//     writer), evaluated on every step of an execution that includes
//     crash-restarts. A recoverable lock that "forgets" a crashed CS
//     holder fails this, not the plain checker, because only crash-bearing
//     schedules exhibit it.
//
//   * Critical-Section Reentry (Golab-Ramaraju): if a process crashes
//     while in the CS, then until it re-enters the CS, no *conflicting*
//     process may enter (any process conflicts with a crashed writer;
//     only writers conflict with a crashed reader). Detection: a restart
//     becomes visible on the step after it (observers run before
//     Process::complete_step, so restarts() increments between steps);
//     the checker latches pending-reentry for processes whose
//     crashed_in() == Critical and flags any conflicting CS entry until
//     the crashed process's own reentry clears the latch.
//
//   * Bounded recovery -- a configurable ceiling on the number of steps a
//     process executes in Section::Recover per restart episode. Off by
//     default (0): recovery from a crash mid-entry legitimately re-waits
//     for the lock, which is unbounded under adversarial scheduling; the
//     bound is meant for contention-free scenarios and for catching
//     recovery code that spins forever (tests/test_recover.cpp).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/checker.hpp"
#include "sim/system.hpp"

namespace rwr::sim {

class RmeChecker final : public StepObserver {
   public:
    struct Options {
        bool throw_on_violation = true;
        /// 0 = no bound; otherwise max steps in Section::Recover per
        /// restart episode before a violation is flagged.
        std::uint64_t recovery_step_bound = 0;
        /// 0 = no bound; otherwise max *cumulative* steps in
        /// Section::Recover across a crash CHAIN -- consecutive restarts
        /// whose crashed_in() == Recover, i.e. crashes that keep landing
        /// inside the recovery they spawned. The chain counter resets only
        /// when the process leaves Recover on its own (the recovery
        /// completed) or a restart arrives from outside Recover (a new
        /// chain). Catches recovery that makes no net progress under
        /// nested crashes even when each episode respects the per-episode
        /// bound.
        std::uint64_t chain_recovery_step_bound = 0;
    };

    RmeChecker() : opts_(Options{}) {}
    explicit RmeChecker(Options opts) : opts_(opts) {}

    void on_step(const System& sys, const Process& p,
                 const Op& op, const OpResult& res) override {
        (void)op;
        (void)res;
        const std::size_t np = sys.num_processes();
        if (seen_restarts_.size() < np) {
            seen_restarts_.resize(np, 0);
            pending_reentry_.resize(np, 0);
            prev_in_cs_.resize(np, 0);
            recover_steps_.resize(np, 0);
            chain_recover_steps_.resize(np, 0);
        }
        // (1) Latch restarts that happened since the last observed step.
        for (ProcId id = 0; id < np; ++id) {
            const Process& q = sys.process(id);
            if (q.restarts() > seen_restarts_[id]) {
                seen_restarts_[id] = q.restarts();
                ++total_restarts_;
                recover_steps_[id] = 0;
                if (q.crashed_in() == Section::Critical) {
                    pending_reentry_[id] = 1;
                }
                if (q.crashed_in() != Section::Recover) {
                    // A fresh chain; a crash *inside* Recover keeps the
                    // chain accumulator running across the restart.
                    chain_recover_steps_[id] = 0;
                }
            }
        }
        // (2) Bounded recovery: attribute this step if taken in Recover.
        if (p.section() == Section::Recover) {
            ++recover_steps_[p.id()];
            if (recover_steps_[p.id()] > max_recovery_steps_) {
                max_recovery_steps_ = recover_steps_[p.id()];
            }
            ++chain_recover_steps_[p.id()];
            if (chain_recover_steps_[p.id()] > max_chain_recovery_steps_) {
                max_chain_recovery_steps_ = chain_recover_steps_[p.id()];
            }
            if (opts_.recovery_step_bound != 0 &&
                recover_steps_[p.id()] > opts_.recovery_step_bound) {
                std::ostringstream os;
                os << "bounded recovery violated: p" << p.id()
                   << " executed " << recover_steps_[p.id()]
                   << " steps in its recovery section (bound "
                   << opts_.recovery_step_bound << ")";
                flag(os.str());
            }
            if (opts_.chain_recovery_step_bound != 0 &&
                chain_recover_steps_[p.id()] >
                    opts_.chain_recovery_step_bound) {
                std::ostringstream os;
                os << "bounded chain recovery violated: p" << p.id()
                   << " executed " << chain_recover_steps_[p.id()]
                   << " cumulative recovery steps across a crash chain "
                      "(bound "
                   << opts_.chain_recovery_step_bound << ")";
                flag(os.str());
            }
        } else if (chain_recover_steps_[p.id()] != 0) {
            // The recovery completed on its own: the chain is over.
            chain_recover_steps_[p.id()] = 0;
        }
        // (3) Mutual exclusion across crashes + CS-entry transitions.
        std::uint32_t readers_in_cs = 0;
        std::uint32_t writers_in_cs = 0;
        for (ProcId id = 0; id < np; ++id) {
            const Process& q = sys.process(id);
            if (!q.in_cs()) {
                continue;
            }
            if (q.is_reader()) {
                ++readers_in_cs;
            } else {
                ++writers_in_cs;
            }
        }
        if (writers_in_cs > 1 || (writers_in_cs == 1 && readers_in_cs > 0)) {
            std::ostringstream os;
            os << "mutual exclusion violated (crash-restart run): "
               << writers_in_cs << " writer(s) and " << readers_in_cs
               << " reader(s) in the CS simultaneously";
            flag(os.str());
        }
        for (ProcId id = 0; id < np; ++id) {
            const Process& q = sys.process(id);
            const bool in = q.in_cs();
            if (in && prev_in_cs_[id] == 0) {
                check_reentry(sys, q);
                pending_reentry_[id] = 0;  // Own reentry clears the latch.
            }
            prev_in_cs_[id] = in ? 1 : 0;
        }
    }

    [[nodiscard]] std::uint64_t violations() const { return violations_; }
    [[nodiscard]] const std::string& first_violation() const {
        return first_violation_;
    }
    [[nodiscard]] std::uint64_t total_restarts() const {
        return total_restarts_;
    }
    /// Longest recovery episode observed (steps in Section::Recover).
    [[nodiscard]] std::uint64_t max_recovery_steps() const {
        return max_recovery_steps_;
    }
    /// Longest crash chain observed (cumulative Recover steps across
    /// consecutive crashed-in-Recover restarts).
    [[nodiscard]] std::uint64_t max_chain_recovery_steps() const {
        return max_chain_recovery_steps_;
    }

   private:
    void check_reentry(const System& sys, const Process& entering) {
        for (ProcId id = 0; id < sys.num_processes(); ++id) {
            if (id == entering.id() || pending_reentry_[id] == 0) {
                continue;
            }
            const Process& crashed = sys.process(id);
            const bool conflict =
                !(entering.is_reader() && crashed.is_reader());
            if (conflict) {
                std::ostringstream os;
                os << "CS Reentry violated: p" << entering.id() << " ("
                   << to_string(entering.role()) << ") entered the CS while p"
                   << id << " (" << to_string(crashed.role())
                   << "), which crashed inside the CS, has not re-entered";
                flag(os.str());
            }
        }
    }

    void flag(const std::string& msg) {
        ++violations_;
        if (first_violation_.empty()) {
            first_violation_ = msg;
        }
        if (opts_.throw_on_violation) {
            throw InvariantViolation(msg);
        }
    }

    Options opts_;
    std::vector<std::uint64_t> seen_restarts_;
    std::vector<std::uint8_t> pending_reentry_;
    std::vector<std::uint8_t> prev_in_cs_;
    std::vector<std::uint64_t> recover_steps_;
    std::vector<std::uint64_t> chain_recover_steps_;
    std::uint64_t total_restarts_ = 0;
    std::uint64_t max_recovery_steps_ = 0;
    std::uint64_t max_chain_recovery_steps_ = 0;
    std::uint64_t violations_ = 0;
    std::string first_violation_;
};

}  // namespace rwr::sim
