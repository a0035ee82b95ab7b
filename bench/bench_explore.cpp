// E16 -- what partial-order reduction buys exhaustive exploration.
//
// The explorer's DPOR engine (sim/por.hpp + sim/explorer.cpp) prunes
// schedules that only permute independent steps. This bench runs the same
// scenario grid through the full enumeration and the reduced search --
// locks (A_f, Peterson tournament, Yang-Anderson, MCS, recoverable JJJ) x
// {full, reduced} x branch depth -- and reports, per cell, the schedule
// counts, the reduction factor and the exploration throughput.
//
// Exit-code assertions (the reproduction's claims about its own engine):
//   * verdict preservation -- on every cell, including seeded broken-lock
//     mutants (sim/broken_locks.hpp) whose violations need specific
//     interleavings, the reduced search reports violations iff the full
//     enumeration does, and nothing is truncated;
//   * >= kLargestCellFactor (10x) fewer schedules at the largest cell
//     (the cell with the biggest full-enumeration tree);
//   * correct locks verify clean at every depth.
//
// Flags:
//   --json <path>  rwr-bench-v1 rows ("explore" payload; schedule counts
//                  are deterministic, throughput fields are wall-clock).
//   --smoke        truncated grid (CI; also the checked-in baseline).
//   --jobs N       frontier worker threads; results bit-identical for
//                  any N (asserted cheaply on the first cell).
//
// Regenerating the baseline after an intended engine change:
//   ./build/bench/bench_explore --smoke --json BENCH_explore.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_json.hpp"
#include "harness/locks.hpp"
#include "harness/pool.hpp"
#include "harness/table.hpp"
#include "mutex/episodes.hpp"
#include "mutex/sim_mutex.hpp"
#include "mutex/tournament.hpp"
#include "recover/episodes.hpp"
#include "sim/broken_locks.hpp"
#include "sim/driver.hpp"
#include "sim/explorer.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

/// The largest cell (most full-enumeration schedules) must shrink by at
/// least this factor under reduction.
constexpr double kLargestCellFactor = 10.0;

struct Cell {
    std::string lock;       ///< Row label ("e16-" prefixed in JSON).
    sim::ScenarioFactory factory;
    std::uint32_t n = 0;
    std::uint32_t m = 0;
    std::uint32_t f = 1;
    int depth = 8;
    std::uint64_t budget = 100'000;
    bool expect_violation = false;
};

struct Measurement {
    sim::ExploreResult full;
    sim::ExploreResult reduced;
    double full_ms = 0;
    double reduced_ms = 0;

    [[nodiscard]] double factor() const {
        return static_cast<double>(full.schedules_explored) /
               static_cast<double>(
                   std::max<std::uint64_t>(1, reduced.schedules_explored));
    }
};

sim::ExploreResult timed_explore(const Cell& c, bool reduce, unsigned jobs,
                                 double* ms) {
    sim::ExploreOptions opt;
    opt.branch_depth = c.depth;
    opt.finish_budget = c.budget;
    opt.reduce = reduce;
    opt.jobs = jobs;
    const auto start = std::chrono::steady_clock::now();
    const auto res = sim::explore(c.factory, opt);
    *ms = std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count();
    return res;
}

sim::ScenarioFactory af_factory(Protocol proto, std::uint32_t n,
                                std::uint32_t m, std::uint32_t f) {
    sim::DriverConfig cfg;
    cfg.episodes =
        lock_episodes({.lock = LockKind::Af, .n = n, .m = m, .f = f});
    cfg.protocol = proto;
    cfg.passages = 1;
    return sim::driver_factory(cfg);
}

sim::ScenarioFactory mutex_factory(const std::string& which, std::uint32_t m,
                                   std::uint64_t passages) {
    sim::DriverConfig cfg;
    cfg.episodes = mutex::mutex_episodes(
        [which, m](Memory& mem) -> std::unique_ptr<mutex::SimMutex> {
            if (which == "ya") {
                return std::make_unique<mutex::YaTournamentSimMutex>(
                    mem, "mx", m);
            }
            if (which == "mcs") {
                return std::make_unique<mutex::McsSimMutex>(mem, "mx", m);
            }
            return std::make_unique<mutex::TournamentSimMutex>(mem, "mx", m);
        },
        m);
    cfg.protocol = Protocol::WriteThrough;
    cfg.passages = passages;
    return sim::driver_factory(cfg);
}

sim::ScenarioFactory jjj_factory(std::uint32_t m) {
    sim::DriverConfig cfg;
    cfg.episodes = recover::recover_episodes(
        {.lock = recover::RecoverLockKind::JJJMutex, .n = 0, .m = m});
    cfg.passages = 1;
    return sim::driver_factory(cfg);
}

std::vector<Cell> build_grid(bool smoke) {
    std::vector<Cell> cells;
    const auto af = [&](std::uint32_t n, std::uint32_t m, std::uint32_t f,
                        Protocol proto, int depth) {
        cells.push_back({"af", af_factory(proto, n, m, f), n, m, f, depth});
    };
    const auto mx = [&](const std::string& which, std::uint32_t m,
                        std::uint64_t passages, int depth) {
        cells.push_back({which, mutex_factory(which, m, passages), 0, m, 1,
                         depth});
    };

    // A_f: the paper's lock, reader+writer mix.
    af(2, 1, 1, Protocol::WriteThrough, smoke ? 8 : 10);
    af(2, 1, 2, Protocol::WriteBack, smoke ? 8 : 10);
    if (!smoke) {
        af(1, 2, 1, Protocol::WriteThrough, 10);
    }
    // Writer-mutex tier: Peterson tournament, Yang-Anderson, MCS.
    mx("tournament", 2, /*passages=*/2, smoke ? 10 : 12);
    mx("ya", 2, /*passages=*/2, smoke ? 10 : 12);
    mx("mcs", 2, /*passages=*/2, smoke ? 10 : 12);
    if (!smoke) {
        mx("tournament", 3, /*passages=*/1, 12);
    }
    // Recoverable JJJ mutex (crash-free walk; crashes are covered by
    // test_explore_reduction / test_recover_explore).
    cells.push_back({"rjjj", jjj_factory(2), 0, 2, 1, smoke ? 6 : 8});
    // Seeded mutants: the reduction must keep finding these violations.
    cells.push_back({"broken-nowait",
                     sim::broken_factory<sim::NoReaderWaitLock>(1, 1), 1, 1,
                     1, 10, 10'000, /*expect_violation=*/true});
    cells.push_back({"broken-toctou",
                     sim::broken_factory<sim::TocTouLock>(2, 1), 2, 1, 1,
                     smoke ? 10 : 12, 10'000, /*expect_violation=*/true});
    return cells;
}

// ---- Assertion bookkeeping ----------------------------------------------

int g_failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        ++g_failures;
        std::cerr << "E16 EXPLORE CHECK FAILED: " << what << "\n";
    }
}

void json_row(json::Value* results, const Cell& c, const char* mode,
              const sim::ExploreResult& res, double ms, double factor) {
    if (results == nullptr) {
        return;
    }
    auto row = json::Value::object();
    row.set("lock", "e16-" + c.lock);
    row.set("n", c.n);
    row.set("m", c.m);
    row.set("f", c.f);
    row.set("threads", c.n + c.m);
    // The mode/depth pair rides in "workload", the row-key field already
    // reserved for sub-configuration labels.
    row.set("workload", std::string(mode) + "-d" + std::to_string(c.depth));
    auto e = json::Value::object();
    e.set("schedules_explored", res.schedules_explored);
    e.set("violations", res.violations);
    e.set("truncated_runs", res.truncated_runs);
    e.set("reduction_factor", factor);
    e.set("wall_ms", ms);
    e.set("schedules_per_sec",
          ms > 0 ? static_cast<double>(res.schedules_explored) * 1e3 / ms
                 : 0.0);
    row.set("explore", std::move(e));
    results->push_back(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        }
    }
    const unsigned jobs = parse_jobs(argc, argv);
    auto doc = bench::make_doc("explore");
    json::Value* results = nullptr;
    if (!json_path.empty()) {
        results = &doc.set("results", json::Value::array());
    }

    std::cout << "bench_explore: full vs partial-order-reduced exhaustive "
                 "exploration (E16, jobs="
              << jobs << (smoke ? ", smoke" : "") << ")\n\n";

    const std::vector<Cell> cells = build_grid(smoke);
    std::vector<Measurement> ms(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ms[i].full = timed_explore(cells[i], /*reduce=*/false, jobs,
                                   &ms[i].full_ms);
        ms[i].reduced = timed_explore(cells[i], /*reduce=*/true, jobs,
                                      &ms[i].reduced_ms);
    }

    // Job-count determinism spot check (the exhaustive cross-product lives
    // in test_explore_reduction): the first cell, serial vs `jobs`.
    {
        double t = 0;
        const auto serial_full =
            timed_explore(cells[0], /*reduce=*/false, 1, &t);
        const auto serial_red =
            timed_explore(cells[0], /*reduce=*/true, 1, &t);
        check(serial_full == ms[0].full,
              "full results differ between --jobs 1 and --jobs " +
                  std::to_string(jobs));
        check(serial_red == ms[0].reduced,
              "reduced results differ between --jobs 1 and --jobs " +
                  std::to_string(jobs));
    }

    Table t({"lock", "n", "m", "depth", "full scheds", "por scheds",
             "factor", "full ms", "por ms", "verdict"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& c = cells[i];
        const Measurement& m = ms[i];
        t.row({c.lock, fmt(c.n), fmt(c.m), fmt(c.depth),
               fmt(m.full.schedules_explored),
               fmt(m.reduced.schedules_explored), fmt(m.factor(), 1),
               fmt(m.full_ms, 1), fmt(m.reduced_ms, 1),
               m.full.violations > 0 ? "VIOLATION" : "clean"});
        json_row(results, c, "full", m.full, m.full_ms, 1.0);
        json_row(results, c, "por", m.reduced, m.reduced_ms, m.factor());
    }
    t.print();

    // Verdict preservation on every cell, mutants included.
    std::size_t largest = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell& c = cells[i];
        const Measurement& m = ms[i];
        const std::string at = c.lock + " d" + std::to_string(c.depth);
        check((m.full.violations > 0) == (m.reduced.violations > 0),
              at + ": reduced search changed the verdict (full " +
                  std::to_string(m.full.violations) + ", reduced " +
                  std::to_string(m.reduced.violations) + ")");
        check(m.full.truncated_runs == 0 && m.reduced.truncated_runs == 0,
              at + ": truncated subtrees (exploration not exhaustive)");
        check(m.reduced.schedules_explored <= m.full.schedules_explored,
              at + ": reduction explored MORE schedules than full");
        if (c.expect_violation) {
            check(m.full.violations > 0,
                  at + ": mutant not caught by full enumeration");
            check(m.reduced.violations > 0,
                  at + ": mutant not caught by reduced search");
        } else {
            check(m.full.violations == 0,
                  at + ": unexpected violation: " + m.full.first_violation);
        }
        if (!cells[i].expect_violation &&
            m.full.schedules_explored >
                ms[largest].full.schedules_explored) {
            largest = i;
        }
    }
    // The headline claim: at the largest cell the reduced search does the
    // same verification with >= 10x fewer schedules.
    {
        const Cell& c = cells[largest];
        const double f = ms[largest].factor();
        std::cout << "\nlargest cell: " << c.lock << " d" << c.depth << " ("
                  << ms[largest].full.schedules_explored << " -> "
                  << ms[largest].reduced.schedules_explored
                  << " schedules, factor " << fmt(f, 1) << ")\n";
        check(f >= kLargestCellFactor,
              "largest cell (" + c.lock + " d" + std::to_string(c.depth) +
                  "): reduction factor " + fmt(f, 1) + " below " +
                  fmt(kLargestCellFactor, 1) + "x");
    }

    if (results != nullptr) {
        try {
            bench::write_file(json_path, doc);
            std::cerr << "wrote " << json_path << "\n";
        } catch (const std::exception& e) {
            std::cerr << "bench_explore --json failed: " << e.what() << "\n";
            return 1;
        }
    }
    if (g_failures > 0) {
        std::cerr << g_failures
                  << " explore check(s) failed -- the reduction engine "
                     "regressed\n";
        return 1;
    }
    return 0;
}
