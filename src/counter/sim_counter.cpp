#include "counter/sim_counter.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace rwr::counter {

namespace {
std::uint32_t next_pow2(std::uint32_t x) {
    return x <= 1 ? 1 : std::bit_ceil(x);
}
}  // namespace

FArraySimCounter::FArraySimCounter(Memory& mem, const std::string& name,
                                   std::uint32_t capacity,
                                   std::optional<ProcId> owner_base,
                                   AggKind kind, std::int32_t identity)
    : capacity_(capacity),
      num_leaves_(next_pow2(capacity)),
      num_internal_(num_leaves_ - 1),
      kind_(kind),
      identity_(identity) {
    if (capacity == 0) {
        throw std::invalid_argument("FArraySimCounter: capacity must be >= 1");
    }
    const std::uint32_t total = num_internal_ + num_leaves_;
    vars_.reserve(total);
    for (std::uint32_t i = 0; i < total; ++i) {
        const bool leaf = i >= num_internal_;
        ProcId owner = Memory::kNoOwner;
        if (leaf && owner_base.has_value()) {
            const std::uint32_t slot = i - num_internal_;
            if (slot < capacity_) {
                owner = *owner_base + slot;
            }
        }
        vars_.push_back(mem.allocate(
            name + (leaf ? ".leaf" : ".node") + std::to_string(i),
            PackedNode::pack(0, identity), owner));
    }
}

std::int64_t FArraySimCounter::combine(std::int64_t a, std::int64_t b) const {
    switch (kind_) {
        case AggKind::Sum: return a + b;
        case AggKind::Max: return std::max(a, b);
        case AggKind::Min: return std::min(a, b);
    }
    return a;
}

std::uint32_t FArraySimCounter::leaf_of(std::uint32_t slot) const {
    if (slot >= capacity_) {
        throw std::invalid_argument("FArraySimCounter: slot out of range");
    }
    return num_internal_ + slot;
}

sim::SimTask<std::int64_t> FArraySimCounter::read_slot(sim::Process& p,
                                                       std::uint32_t u) {
    const Word w = co_await p.read(vars_[u]);
    // Leaves store the raw payload in the value half (version stays 0), so
    // both node kinds decode identically.
    co_return PackedNode::value(w);
}

sim::SimTask<bool> FArraySimCounter::refresh(sim::Process& p,
                                             std::uint32_t u) {
    const Word old = co_await p.read(vars_[u]);
    const std::int64_t left = co_await read_slot(p, 2 * u + 1);
    const std::int64_t right = co_await read_slot(p, 2 * u + 2);
    const Word desired =
        PackedNode::pack(PackedNode::version(old) + 1,
                         static_cast<std::int32_t>(combine(left, right)));
    const Word prior = co_await p.cas(vars_[u], old, desired);
    co_return prior == old;
}

sim::SimTask<void> FArraySimCounter::add(sim::Process& p, std::uint32_t slot,
                                         std::int64_t delta) {
    // Plain read-modify-write of our leaf is safe: only this slot's owner
    // writes it.
    const Word cur = co_await p.read(vars_[leaf_of(slot)]);
    co_await update(p, slot,
                    static_cast<std::int32_t>(PackedNode::value(cur) + delta));
}

sim::SimTask<void> FArraySimCounter::update(sim::Process& p,
                                            std::uint32_t slot,
                                            std::int32_t value) {
    // 1. Overwrite our single-writer leaf.
    const std::uint32_t leaf = leaf_of(slot);
    co_await p.write(vars_[leaf], PackedNode::pack(0, value));

    if (num_internal_ == 0) {
        co_return;  // K == 1: the leaf is the root.
    }

    // 2. Propagate: double-refresh every ancestor, leaf's parent upward.
    std::uint32_t u = (leaf - 1) / 2;
    for (;;) {
        const bool ok = co_await refresh(p, u);
        if (!ok) {
            co_await refresh(p, u);  // Second attempt; outcome irrelevant.
        }
        if (u == 0) {
            break;
        }
        u = (u - 1) / 2;
    }
}

sim::SimTask<std::int64_t> FArraySimCounter::read(sim::Process& p) {
    if (num_internal_ == 0) {
        co_return co_await read_slot(p, 0);
    }
    const Word w = co_await p.read(vars_[0]);
    co_return PackedNode::value(w);
}

std::int64_t FArraySimCounter::peek_exact(const Memory& mem) const {
    std::int64_t agg = identity_;
    for (std::uint32_t i = 0; i < capacity_; ++i) {
        agg = combine(agg,
                      PackedNode::value(mem.peek(vars_[num_internal_ + i])));
    }
    return agg;
}

std::int64_t FArraySimCounter::peek_root(const Memory& mem) const {
    return PackedNode::value(mem.peek(vars_[0]));
}

NaiveSimCounter::NaiveSimCounter(Memory& mem, const std::string& name)
    : var_(mem.allocate(name, 0)) {}

sim::SimTask<void> NaiveSimCounter::add(sim::Process& p, std::uint32_t slot,
                                        std::int64_t delta) {
    (void)slot;
    for (;;) {
        const Word cur = co_await p.read(var_);
        const Word next = static_cast<Word>(
            static_cast<std::int64_t>(cur) + delta);
        if (co_await p.cas(var_, cur, next) == cur) {
            co_return;
        }
    }
}

sim::SimTask<std::int64_t> NaiveSimCounter::read(sim::Process& p) {
    co_return static_cast<std::int64_t>(co_await p.read(var_));
}

std::int64_t NaiveSimCounter::peek_exact(const Memory& mem) const {
    return static_cast<std::int64_t>(mem.peek(var_));
}

}  // namespace rwr::counter
