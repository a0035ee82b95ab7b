// Native (std::atomic) K-process f-array counter -- the same Jayanti-style
// tree as counter/sim_counter.hpp, compiled to real atomics.
//
// add(slot, delta): update the slot's single-writer leaf, then double-
// refresh every ancestor (read node, read children, CAS <version+1, sum>).
// Wait-free, Θ(log K) steps. read(): one load of the root.
//
// The algorithm lives once, in FArrayTree, a non-owning view of one tree's
// nodes. FArrayCounter owns the nodes of a single tree; AfLock lays all of
// its 2·groups trees out in one block and views each by index.
//
// Memory ordering: all operations use sequential consistency. These
// algorithms (and the paper's model) assume an SC memory system; on x86 the
// cost difference is confined to the stores, and correctness under weaker
// orderings has not been analysed -- do not relax.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace rwr::native {

/// One tree node per cache line. Value-initialisation zeroes the word
/// (version 0, value 0), so a fresh node array is an all-zero tree.
struct alignas(64) FArrayNode {
    std::atomic<std::uint64_t> word{0};
};
static_assert(sizeof(FArrayNode) == 64 && alignof(FArrayNode) == 64,
              "one tree node per cache line: leaves are single-writer "
              "hot words and internal nodes are CASed by all slots; "
              "packing them would false-share every add()");

/// Leaves of a tree over `capacity` slots: the next power of two.
constexpr std::uint32_t farray_leaves(std::uint32_t capacity) {
    return capacity <= 1 ? 1 : std::bit_ceil(capacity);
}

/// Nodes of a tree over `capacity` slots, in heap order: internal nodes
/// [0, leaves-1), then the leaves; node 0 is the root.
constexpr std::uint32_t farray_nodes(std::uint32_t capacity) {
    return 2 * farray_leaves(capacity) - 1;
}

/// The f-array algorithm over farray_nodes(capacity) zeroed nodes it does
/// not own. Copying the view shares the tree.
class FArrayTree {
   public:
    FArrayTree(FArrayNode* nodes, std::uint32_t capacity)
        : nodes_(nodes), num_internal_(farray_leaves(capacity) - 1) {}

    /// Adds `delta` on behalf of `slot` (< capacity; one concurrent caller
    /// per slot).
    void add(std::uint32_t slot, std::int64_t delta) {
        const std::uint32_t leaf = num_internal_ + slot;
        // Single-writer leaf: plain RMW through seq_cst load/store.
        const std::uint64_t cur = nodes_[leaf].word.load();
        const auto next = static_cast<std::int32_t>(value_of(cur) + delta);
        nodes_[leaf].word.store(pack(0, next));

        if (num_internal_ == 0) {
            return;  // K == 1: the leaf is the root.
        }
        std::uint32_t u = (leaf - 1) / 2;
        for (;;) {
            if (!refresh(u)) {
                refresh(u);  // Double refresh; outcome irrelevant.
            }
            if (u == 0) {
                break;
            }
            u = (u - 1) / 2;
        }
    }

    [[nodiscard]] std::int64_t read() const {
        return value_of(nodes_[0].word.load());
    }

   private:
    static constexpr std::uint64_t pack(std::uint32_t version,
                                        std::int32_t value) {
        return (static_cast<std::uint64_t>(version) << 32) |
               static_cast<std::uint32_t>(value);
    }
    static constexpr std::int32_t value_of(std::uint64_t w) {
        return static_cast<std::int32_t>(static_cast<std::uint32_t>(w));
    }
    static constexpr std::uint32_t version_of(std::uint64_t w) {
        return static_cast<std::uint32_t>(w >> 32);
    }

    bool refresh(std::uint32_t u) {
        std::uint64_t old = nodes_[u].word.load();
        const std::int64_t left = value_of(nodes_[2 * u + 1].word.load());
        const std::int64_t right = value_of(nodes_[2 * u + 2].word.load());
        const std::uint64_t desired =
            pack(version_of(old) + 1,
                 static_cast<std::int32_t>(left + right));
        return nodes_[u].word.compare_exchange_strong(old, desired);
    }

    FArrayNode* nodes_;
    std::uint32_t num_internal_;
};

/// A standalone counter: one tree in a node array of its own.
class FArrayCounter {
   public:
    explicit FArrayCounter(std::uint32_t capacity)
        : capacity_(validated(capacity)),
          nodes_(std::make_unique<FArrayNode[]>(farray_nodes(capacity))),
          tree_(nodes_.get(), capacity) {}

    void add(std::uint32_t slot, std::int64_t delta) { tree_.add(slot, delta); }

    [[nodiscard]] std::int64_t read() const { return tree_.read(); }

    [[nodiscard]] std::uint32_t capacity() const { return capacity_; }

   private:
    static std::uint32_t validated(std::uint32_t capacity) {
        if (capacity == 0) {
            throw std::invalid_argument("FArrayCounter: capacity must be >= 1");
        }
        return capacity;
    }

    std::uint32_t capacity_;
    std::unique_ptr<FArrayNode[]> nodes_;
    FArrayTree tree_;
};

}  // namespace rwr::native
