// K-process linearizable counters for the simulator.
//
// FArraySimCounter is the counter object Algorithm 1's groups use (paper
// Section 4): "Jayanti [15] presented an f-array based counter
// implementation from read, write and LL/SC operations, where add and read
// operations perform logarithmic and constant numbers of steps,
// respectively. Jayanti's construction is easily modified to use CAS
// instead of LL/SC [14]."
//
// Structure: a perfect binary tree over the K per-process leaves. add(delta)
// updates the caller's leaf (single-writer: plain read + write) and then
// walks to the root, "refreshing" each internal node: read the node, read
// both children, CAS the node to <version+1, sum>. If the CAS fails the
// refresh is retried once (the classic double-refresh: if both fail, two
// other successful refreshes bracketed ours, and the later one read our
// child level after our update, so our value was propagated for us).
// Version stamps substitute for LL/SC and rule out ABA.
//
// read() returns the root's value: a single shared step.
//
// The same tree computes any associative aggregate of the K single-writer
// registers (Jayanti, PODC 2002): sum (the counter, the default), max or
// min, given the aggregate's identity. update(slot, value) overwrites a
// register and propagates; add(delta) is one leaf read followed by
// update(slot, leaf + delta). Max and min have no inverse, so a lost
// refresh shows differently there than for sums.
//
// NaiveSimCounter is the baseline: one word, CAS-retry add. O(1) steps per
// attempt, but unboundedly many attempts under adversarial scheduling --
// exactly the behaviour the E5 bench contrasts against the f-array.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rmr/memory.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::counter {

/// Packs a signed 32-bit counter value with a 32-bit version stamp.
struct PackedNode {
    static constexpr Word pack(std::uint32_t version, std::int32_t value) {
        return (static_cast<Word>(version) << 32) |
               static_cast<std::uint32_t>(value);
    }
    static constexpr std::uint32_t version(Word w) {
        return static_cast<std::uint32_t>(w >> 32);
    }
    static constexpr std::int32_t value(Word w) {
        return static_cast<std::int32_t>(static_cast<std::uint32_t>(w));
    }
};

enum class AggKind : std::uint8_t { Sum, Max, Min };

class FArraySimCounter {
   public:
    /// Allocates the tree from `mem`. `capacity` = K, the number of
    /// distinct process slots that may concurrently add. If `owner_base`
    /// is set, leaf `s` is homed (for the DSM model) at process
    /// `*owner_base + s` -- slot owners access their own leaf locally.
    /// Internal nodes are contended by the whole group and stay unowned.
    /// Every register starts at `identity`, the neutral value of `kind`.
    FArraySimCounter(Memory& mem, const std::string& name,
                     std::uint32_t capacity,
                     std::optional<ProcId> owner_base = std::nullopt,
                     AggKind kind = AggKind::Sum, std::int32_t identity = 0);

    /// Adds `delta` on behalf of `slot` (must be < capacity; each concurrent
    /// caller must use a distinct slot). Θ(log K) shared steps.
    sim::SimTask<void> add(sim::Process& p, std::uint32_t slot,
                           std::int64_t delta);

    /// Overwrites `slot`'s register with `value` and propagates: Θ(log K)
    /// shared steps, wait-free.
    sim::SimTask<void> update(sim::Process& p, std::uint32_t slot,
                              std::int32_t value);

    /// Returns the aggregate (the count, for Sum). One shared step.
    sim::SimTask<std::int64_t> read(sim::Process& p);

    /// Test-only: non-simulated exact aggregate of all leaves.
    [[nodiscard]] std::int64_t peek_exact(const Memory& mem) const;
    /// Test-only: root value as read() would return it.
    [[nodiscard]] std::int64_t peek_root(const Memory& mem) const;

    [[nodiscard]] std::uint32_t capacity() const { return capacity_; }

   private:
    [[nodiscard]] std::int64_t combine(std::int64_t a, std::int64_t b) const;
    /// Tree index of `slot`'s leaf; throws on a slot >= capacity.
    [[nodiscard]] std::uint32_t leaf_of(std::uint32_t slot) const;
    /// Refresh internal node `u`: returns true if the CAS succeeded.
    sim::SimTask<bool> refresh(sim::Process& p, std::uint32_t u);
    /// Reads the value contribution of tree slot `u` (internal or leaf).
    sim::SimTask<std::int64_t> read_slot(sim::Process& p, std::uint32_t u);

    [[nodiscard]] bool is_leaf_slot(std::uint32_t u) const {
        return u >= num_internal_;
    }

    std::uint32_t capacity_;      ///< K.
    std::uint32_t num_leaves_;    ///< K rounded up to a power of two.
    std::uint32_t num_internal_;  ///< num_leaves_ - 1.
    AggKind kind_;
    std::int32_t identity_;
    /// Heap-ordered tree: vars_[0..num_internal_) internal (packed
    /// <version,value>), vars_[num_internal_..) leaves (raw int32 payload,
    /// version always 0).
    std::vector<VarId> vars_;
};

class NaiveSimCounter {
   public:
    NaiveSimCounter(Memory& mem, const std::string& name);

    sim::SimTask<void> add(sim::Process& p, std::uint32_t slot,
                           std::int64_t delta);
    sim::SimTask<std::int64_t> read(sim::Process& p);

    [[nodiscard]] std::int64_t peek_exact(const Memory& mem) const;

   private:
    VarId var_;
};

}  // namespace rwr::counter
