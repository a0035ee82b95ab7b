// Recoverable m-process mutual exclusion: a Golab-Ramaraju-style
// transformation of the Peterson arbitration tree (mutex/tournament.hpp,
// TournamentSimMutex) into a lock whose passages survive crash-restarts.
//
// Two changes make the tree recoverable:
//
//   1. Pid-tagged claims. The plain tree writes flag[side] = 1; here a
//      competitor writes flag[side] = slot + 1. Ownership of a node is now
//      readable from shared memory, so release can be *conditional* (clear
//      the flag only if it still carries our tag) and hence idempotent:
//      a release interrupted by a crash can simply be re-run, and claims
//      that a same-side successor legitimately overwrote while we were
//      dead are left alone.
//
//   2. A per-slot persistent stage word, written at section boundaries:
//      Idle -> Trying (before the ascent), Trying -> InCS (after winning
//      the root), InCS -> Exiting (before the descent), Exiting -> Idle
//      (after it). recover() reads the stage to decide how far the crashed
//      attempt got:
//        Idle    -> nothing to repair                       (None)
//        Trying  -> re-run the ascent from the leaf          (InCriticalSection)
//        InCS    -> nothing to repair, still own the lock    (InCriticalSection)
//        Exiting -> re-run the conditional descent           (LockReleased)
//
// Why the re-ascent is safe: re-writing our own flag is value-idempotent,
// and re-writing victim = side only *yields* priority -- the recovering
// process never advances past a node on the strength of a stale claim, it
// re-competes and spins until it wins the node in the current attempt. A
// stale claim left at a node above our current position acts as a phantom
// competitor until we re-reach that node (rivals yield to it at most once,
// then our own victim write releases them), and a same-side successor that
// legitimately won the subtree below may overwrite it, which is safe
// because we re-compete from the leaf anyway. The Trying recovery is
// therefore as expensive as a fresh entry (it is NOT bounded recovery);
// the InCS recovery -- the case the Critical-Section Reentry property is
// about -- is O(1): one read of the stage word.
//
// tests/test_recover.cpp unit-tests each stage transition;
// tests/test_recover_explore.cpp model-checks mutual exclusion + CSR over
// every single-crash placement at small m via explore_dfs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "recover/recoverable_lock.hpp"
#include "rmr/memory.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::recover {

class RecoverableTournamentMutex final : public RecoverableSlotMutex {
   public:
    RecoverableTournamentMutex(Memory& mem, const std::string& name,
                               std::uint32_t m);

    // Slot-explicit API (unit tests, embedding; slot in [0, m)). The
    // RecoverableLock entry points (slot = pid) come from the base.
    sim::SimTask<void> enter(sim::Process& p, std::uint32_t slot) override;
    sim::SimTask<void> exit_slot(sim::Process& p, std::uint32_t slot) override;
    sim::SimTask<void> recover_slot(sim::Process& p, std::uint32_t slot,
                                    RecoveryOutcome& out) override;

    [[nodiscard]] std::string name() const override {
        return "recoverable-tournament";
    }

    [[nodiscard]] Word stage_of(const Memory& mem,
                                std::uint32_t slot) const override {
        return mem.peek(stage_.at(slot));
    }

   private:
    struct Node {
        VarId flag[2];  ///< 0 = free, slot + 1 = claimed by that slot.
        VarId victim;   ///< Which side yields (plain Peterson).
    };

    /// Leaf-to-root competition; identical to the plain tree except for the
    /// pid-tagged flag writes. Idempotent: safe to re-run after a crash.
    sim::SimTask<void> ascend(sim::Process& p, std::uint32_t slot);
    /// Root-to-leaf conditional release: clears only nodes still carrying
    /// our tag. Idempotent for the same reason.
    sim::SimTask<void> descend_release(sim::Process& p, std::uint32_t slot);

    std::uint32_t m_;
    std::uint32_t num_leaves_;  ///< m rounded up to a power of two.
    std::vector<Node> nodes_;   ///< Heap-ordered; nodes_[0] is the root.
    std::vector<VarId> stage_;  ///< Per slot: kIdle/kTrying/kInCS/kExiting.
};

}  // namespace rwr::recover
