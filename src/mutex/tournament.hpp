// The Peterson arbitration tree, abortable.
//
// TournamentSimMutex is the writers' lock WL of Algorithm 1 (paper line 2):
// "an m-process starvation-free read/write mutual exclusion lock algorithm
// satisfying Bounded Exit. There are such algorithms with logarithmic
// per-passage RMR complexity (e.g. [21])."
//
// We implement the classic arbitration-tree construction: a perfect binary
// tree with one two-process Peterson lock per internal node; process p
// ascends from its leaf to the root, competing at each node as the
// left/right child, and releases top-down on exit. Uses reads and writes
// only. Per-passage RMR complexity in the CC model is O(log m): at each
// node a process spins on two variables that its single rival writes O(1)
// times per passage (bounded bypass 1 makes the spin RMR-bounded).
//
// The abort move is the literature's standard one: a waiter that gives up
// retracts its competing flag at the node it is stuck at, then releases
// the nodes it had already won, top-down. The retraction is safe because a
// Peterson waiter owns no node state its rival depends on beyond the flag
// itself: lowering it can only unblock the rival. That makes the tree the
// deterministic Theta(log m)-per-passage contrast for E18: an aborted
// attempt pays the full climb to its abort level AND the rollback, and the
// retry pays the climb again -- so on abort-heavy workloads the amortized
// per-passage cost stays Theta(log m) (or worse), while JJAmortizedMutex's
// abandoned-ticket scheme keeps it O(1). A blocking enter() is the
// never-abort case and takes exactly the steps of the plain tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mutex/abortable.hpp"
#include "rmr/memory.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::mutex {

class TournamentSimMutex final : public AbortableSimMutex {
   public:
    TournamentSimMutex(Memory& mem, const std::string& name, std::uint32_t m);

    sim::SimTask<EnterResult> enter_abortable(sim::Process& p,
                                              std::uint32_t slot,
                                              AbortControl ctl) override;
    sim::SimTask<void> exit(sim::Process& p, std::uint32_t slot) override;
    [[nodiscard]] std::string name() const override { return "tournament"; }

    [[nodiscard]] std::uint32_t levels() const { return levels_; }

   private:
    struct Node {
        VarId flag[2];  ///< "I am competing" per side.
        VarId victim;   ///< Which side yields.
    };

    /// Peterson two-process entry at node `n`, competing as `side`, counting
    /// own steps against ctl.patience. Returns Aborted with the flag
    /// already retracted.
    sim::SimTask<EnterResult> node_enter(sim::Process& p, std::uint32_t n,
                                         Word side, AbortControl ctl,
                                         std::uint64_t& steps);
    sim::SimTask<void> node_exit(sim::Process& p, std::uint32_t n, Word side);
    /// Releases the nodes below tree position `pos` on `slot`'s path,
    /// top-down -- shared by exit (pos = root) and the abort rollback.
    sim::SimTask<void> release_below(sim::Process& p, std::uint32_t slot,
                                     std::uint32_t pos);

    std::uint32_t m_;
    std::uint32_t num_leaves_;  ///< m rounded up to a power of two.
    std::uint32_t levels_;      ///< log2(num_leaves_).
    std::vector<Node> nodes_;   ///< Heap-ordered; nodes_[0] is the root.
};

}  // namespace rwr::mutex
