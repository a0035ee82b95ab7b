// Sim-backend lock table: protocol correctness (witnessed mutual
// exclusion, liveness on both homed and unhomed variants), the OpStream
// determinism discipline (grid rows bit-identical for any --jobs, streams
// decorrelated across sessions), and the homed/unhomed RMR ordering the
// E17 assertions build on.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dist/sim_table.hpp"
#include "sim/driver.hpp"

namespace rwr::dist {
namespace {

/// `ops` ops per session, round-robin, under Protocol::Dsm.
sim::DriverConfig dist_cfg(const DistSpec& spec, std::uint64_t ops,
                           std::uint64_t writer_cs_steps) {
    sim::DriverConfig cfg;
    cfg.episodes = dist_episodes(spec);
    cfg.protocol = Protocol::Dsm;
    cfg.passages = ops;
    cfg.cs_steps = writer_cs_steps;
    cfg.sched = sim::SchedKind::RoundRobin;
    cfg.max_steps = 500'000'000;
    return cfg;
}

DistSpec small_spec(bool homed, std::uint32_t reader_pct) {
    DistSpec spec;
    spec.table.shards = 2;
    spec.table.locks_per_shard = 2;
    spec.table.sessions = 6;
    spec.table.homed = homed;
    spec.reader_pct = reader_pct;
    return spec;
}

sim::DriverConfig small_cfg(bool homed, std::uint32_t reader_pct) {
    sim::DriverConfig cfg = dist_cfg(small_spec(homed, reader_pct), 8, 5);
    cfg.seed = 7;
    return cfg;
}

TEST(DistSimTable, HomedRunsToCompletionWithoutViolations) {
    for (const std::uint32_t pct : {0u, 50u, 100u}) {
        const sim::DriverResult r = sim::run_driver(small_cfg(true, pct));
        EXPECT_TRUE(r.finished) << "reader_pct=" << pct;
        EXPECT_EQ(r.dist.witness_violations, 0u) << "reader_pct=" << pct;
        EXPECT_EQ(r.dist.total_ops(), 6u * 8u) << "reader_pct=" << pct;
    }
}

TEST(DistSimTable, UnhomedRunsToCompletionWithoutViolations) {
    for (const std::uint32_t pct : {0u, 50u, 100u}) {
        const sim::DriverResult r = sim::run_driver(small_cfg(false, pct));
        EXPECT_TRUE(r.finished) << "reader_pct=" << pct;
        EXPECT_EQ(r.dist.witness_violations, 0u) << "reader_pct=" << pct;
        EXPECT_EQ(r.dist.total_ops(), 6u * 8u) << "reader_pct=" << pct;
    }
}

TEST(DistSimTable, SingleSessionFastPathIsCheap) {
    // Uncontended writer passages: a fixed small number of verbs, all on
    // the shard segment (every one a network RMR), none wasted waiting.
    DistSpec spec;
    spec.table = {1, 1, 1, true};
    spec.reader_pct = 0;
    const sim::DriverResult r = sim::run_driver(dist_cfg(spec, 10, 1));
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.dist.witness_violations, 0u);
    // Acquire (FAA ticket, read grant, write wflag, read rcount, CAS
    // witness) + release (CAS witness, write wflag, write grant, read
    // slot, read rwaiters) = 10 network verbs per op.
    EXPECT_EQ(r.memory_rmrs, 10u * 10u);
}

TEST(DistSimTable, UnhomedPaysMoreThanHomedUnderContention) {
    DistSpec homed = small_spec(true, 0);
    DistSpec unhomed = small_spec(false, 0);
    homed.table.shards = unhomed.table.shards = 1;
    homed.table.locks_per_shard = unhomed.table.locks_per_shard = 1;
    sim::DriverConfig homed_cfg = dist_cfg(homed, 8, 12);
    sim::DriverConfig unhomed_cfg = dist_cfg(unhomed, 8, 12);
    homed_cfg.seed = unhomed_cfg.seed = 7;
    const sim::DriverResult rh = sim::run_driver(homed_cfg);
    const sim::DriverResult ru = sim::run_driver(unhomed_cfg);
    ASSERT_TRUE(rh.finished);
    ASSERT_TRUE(ru.finished);
    EXPECT_GT(ru.dist.network_rmrs_per_op, rh.dist.network_rmrs_per_op);
}

TEST(DistSimTable, GridIsBitIdenticalForAnyJobsValue) {
    std::vector<sim::DriverConfig> cfgs;
    for (const bool homed : {true, false}) {
        for (const std::uint32_t pct : {0u, 90u}) {
            cfgs.push_back(small_cfg(homed, pct));
        }
    }
    const auto a = sim::run_drivers(cfgs, 1);
    const auto b = sim::run_drivers(cfgs, 4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].steps, b[i].steps) << "cell " << i;
        EXPECT_EQ(a[i].dist.total_ops(), b[i].dist.total_ops())
            << "cell " << i;
        EXPECT_EQ(a[i].dist.read_ops, b[i].dist.read_ops) << "cell " << i;
        EXPECT_EQ(a[i].memory_rmrs, b[i].memory_rmrs) << "cell " << i;
        EXPECT_EQ(a[i].proc_rmrs, b[i].proc_rmrs) << "cell " << i;
    }
}

TEST(DistSimTable, BackingOutReaderWakesTheCurrentWriter) {
    // One reader and two writers on one homed lock. A reader that backs out
    // as the last counted reader must wake the writer draining NOW, not the
    // one whose flag it saw before its decrement: that writer may have
    // released meanwhile, and waking it instead strands the next writer
    // (and the reader queued behind it) forever.
    DistSpec spec;
    spec.table = {1, 1, 3, true};
    spec.reader_pct = 50;
    sim::DriverConfig cfg = dist_cfg(spec, /*ops=*/1, /*writer_cs_steps=*/1);
    // The first op seed whose streams make session 0 the reader and
    // sessions 1 and 2 the writers.
    const auto reads = [&cfg](std::uint32_t session) {
        return OpStream(cfg.seed, session).next_op(1, 50).reader;
    };
    while (!reads(0) || reads(1) || reads(2)) {
        ++cfg.seed;
    }
    const auto res = sim::explore_random(sim::driver_factory(cfg), 8000,
                                         /*seed=*/7, /*budget=*/20000);
    EXPECT_EQ(res.violations, 0u) << res.first_violation;
    EXPECT_EQ(res.incomplete_runs, 0u);
}

TEST(DistOpStream, SameSeedSameStream) {
    OpStream a(42, 3);
    OpStream b(42, 3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(DistOpStream, SessionsAreDecorrelated) {
    // Adjacent sessions (and adjacent seeds) must not produce overlapping
    // streams -- the double splitmix mix guarantees distinct prefixes.
    std::set<std::uint64_t> draws;
    constexpr int kPerStream = 64;
    for (std::uint32_t s = 0; s < 16; ++s) {
        OpStream st(1, s);
        for (int i = 0; i < kPerStream; ++i) {
            draws.insert(st.next());
        }
    }
    EXPECT_EQ(draws.size(), 16u * kPerStream);
}

TEST(DistOpStream, ReaderPctBoundaries) {
    OpStream st(9, 0);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(st.next_op(4, 0).reader);
        EXPECT_TRUE(st.next_op(4, 100).reader);
    }
    OpStream st2(9, 1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_LT(st2.next_op(3, 50).lock_index, 3u);
    }
}

}  // namespace
}  // namespace rwr::dist
