// Recorded simulated counts of every cell the benchmark simulates: the 8
// n=1024 E1 cells of sim-e1 plus the n=256 probe cell of the traced runs.
// Taken from harness::run_experiment (round-robin, ME checker on, m=1, 2 passages)
// at the commit that added the benchmark. Sums of per-passage RMRs by
// section (remainder, entry, critical, exit, recover); the per-section mean
// is the sum over the passage count. The simulation is deterministic: a
// later change that moves any of these is a change of simulated behaviour.
#pragma once

#include <array>
#include <cstdint>

#include "rmr/types.hpp"

namespace perfbench {

struct E1Expected {
    rwr::Protocol proto;
    std::uint32_t n;
    std::uint32_t f;
    std::uint64_t steps;
    std::uint64_t reader_passages;
    std::uint64_t writer_passages;
    std::array<std::uint64_t, rwr::kNumSections> reader_rmrs;
    std::array<std::uint64_t, rwr::kNumSections> writer_rmrs;
};

inline constexpr E1Expected kE1Expected[] = {
    {rwr::Protocol::WriteBack, 1024, 1, 288570, 2048, 2, {{0, 129967, 0, 119802, 0}}, {{0, 4, 0, 1, 0}}},
    {rwr::Protocol::WriteThrough, 1024, 1, 288570, 2048, 2, {{0, 133867, 0, 123113, 0}}, {{0, 10, 0, 4, 0}}},
    {rwr::Protocol::WriteBack, 1024, 11, 329279, 2048, 2, {{0, 160769, 0, 79222, 0}}, {{0, 101, 0, 2, 0}}},
    {rwr::Protocol::WriteThrough, 1024, 11, 329279, 2048, 2, {{0, 168591, 0, 82688, 0}}, {{0, 111, 0, 4, 0}}},
    {rwr::Protocol::WriteBack, 1024, 32, 135912, 2048, 2, {{0, 54112, 0, 49056, 0}}, {{0, 187, 0, 1, 0}}},
    {rwr::Protocol::WriteThrough, 1024, 32, 135912, 2048, 2, {{0, 57248, 0, 51648, 0}}, {{0, 222, 0, 4, 0}}},
    {rwr::Protocol::WriteBack, 1024, 1024, 22542, 2048, 2, {{0, 3072, 0, 0, 0}}, {{0, 2050, 0, 1, 0}}},
    {rwr::Protocol::WriteThrough, 1024, 1024, 22542, 2048, 2, {{0, 4096, 0, 2048, 0}}, {{0, 5125, 0, 4, 0}}},
    {rwr::Protocol::WriteBack, 256, 9, 56499, 512, 2, {{0, 24569, 0, 12503, 0}}, {{0, 85, 0, 2, 0}}},
};

}  // namespace perfbench
