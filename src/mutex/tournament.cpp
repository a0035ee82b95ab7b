#include "mutex/tournament.hpp"

#include <bit>
#include <stdexcept>

namespace rwr::mutex {

TournamentSimMutex::TournamentSimMutex(Memory& mem, const std::string& name,
                                       std::uint32_t m)
    : m_(m),
      num_leaves_(m <= 1 ? 1 : std::bit_ceil(m)),
      levels_(static_cast<std::uint32_t>(std::bit_width(num_leaves_) - 1)) {
    if (m == 0) {
        throw std::invalid_argument("TournamentSimMutex: m must be >= 1");
    }
    const std::uint32_t num_nodes = num_leaves_ - 1;  // 0 when m == 1.
    nodes_.reserve(num_nodes);
    for (std::uint32_t i = 0; i < num_nodes; ++i) {
        Node n;
        n.flag[0] = mem.allocate(name + ".n" + std::to_string(i) + ".flag0", 0);
        n.flag[1] = mem.allocate(name + ".n" + std::to_string(i) + ".flag1", 0);
        n.victim = mem.allocate(name + ".n" + std::to_string(i) + ".victim", 0);
        nodes_.push_back(n);
    }
}

sim::SimTask<EnterResult> TournamentSimMutex::node_enter(
    sim::Process& p, std::uint32_t n, Word side, AbortControl ctl,
    std::uint64_t& steps) {
    const Node& node = nodes_[n];
    co_await p.write(node.flag[side], 1);
    ++steps;
    co_await p.write(node.victim, side);
    ++steps;
    // Peterson spin: wait while the rival competes and we are the victim.
    for (;;) {
        if (steps >= ctl.patience) {
            // The abort move: retract the competing flag. The rival's spin
            // reads it as 0 and proceeds; we never held this node, so no
            // other state needs repair here (the caller rolls back the
            // nodes already won below).
            co_await p.write(node.flag[side], 0);
            co_return EnterResult::Aborted;
        }
        const Word rival = co_await p.read(node.flag[1 - side]);
        ++steps;
        if (rival == 0) {
            co_return EnterResult::Acquired;
        }
        const Word victim = co_await p.read(node.victim);
        ++steps;
        if (victim != side) {
            co_return EnterResult::Acquired;
        }
    }
}

sim::SimTask<void> TournamentSimMutex::node_exit(sim::Process& p,
                                                 std::uint32_t n, Word side) {
    co_await p.write(nodes_[n].flag[side], 0);
}

sim::SimTask<void> TournamentSimMutex::release_below(sim::Process& p,
                                                     std::uint32_t slot,
                                                     std::uint32_t pos) {
    // Children on slot's leaf-to-root path strictly below `pos`: the nodes
    // we hold. Released top-down (reverse of acquisition order).
    std::uint32_t path[32];
    std::uint32_t depth = 0;
    std::uint32_t child = (num_leaves_ - 1) + slot;
    while (child != pos) {
        path[depth++] = child;
        child = (child - 1) / 2;
    }
    for (std::uint32_t i = depth; i-- > 0;) {
        const std::uint32_t c = path[i];
        const std::uint32_t parent = (c - 1) / 2;
        const Word side = (c == 2 * parent + 1) ? 0 : 1;
        co_await node_exit(p, parent, side);
    }
}

sim::SimTask<EnterResult> TournamentSimMutex::enter_abortable(
    sim::Process& p, std::uint32_t slot, AbortControl ctl) {
    if (slot >= m_) {
        throw std::invalid_argument("TournamentSimMutex::enter: bad slot");
    }
    // Ascend leaf -> root. Leaf index in the conceptual full tree is
    // (num_leaves_ - 1) + slot; at each step the node's side is the low bit
    // of the child position.
    std::uint64_t steps = 0;
    std::uint32_t pos = (num_leaves_ - 1) + slot;
    while (pos != 0) {
        const std::uint32_t parent = (pos - 1) / 2;
        const Word side = (pos == 2 * parent + 1) ? 0 : 1;
        const EnterResult r = co_await node_enter(p, parent, side, ctl, steps);
        if (r == EnterResult::Aborted) {
            co_await release_below(p, slot, pos);
            co_return EnterResult::Aborted;
        }
        pos = parent;
    }
    co_return EnterResult::Acquired;
}

sim::SimTask<void> TournamentSimMutex::exit(sim::Process& p,
                                            std::uint32_t slot) {
    if (slot >= m_) {
        throw std::invalid_argument("TournamentSimMutex::exit: bad slot");
    }
    co_await release_below(p, slot, 0);
}

}  // namespace rwr::mutex
