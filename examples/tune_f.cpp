// Example: choosing your point on the paper's tradeoff.
//
//   $ ./examples/tune_f [n] [writer_share_percent]
//
// The A_f family gives you a dial: writers pay Θ(f), readers pay
// Θ(log(n/f)). Which f minimizes total RMR cost depends on your workload's
// read/write mix. This example sweeps f on the RMR-exact simulator for
// your n and mix, prints the cost model, recommends an f, and constructs
// the native lock with it.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/af_params.hpp"
#include "harness/locks.hpp"
#include "native/af_lock.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

struct SweepPoint {
    std::uint32_t f;
    double reader_rmrs;
    double writer_rmrs;
    double weighted;  ///< Per-passage cost weighted by the workload mix.
};

}  // namespace

int main(int argc, char** argv) {
    const auto n =
        static_cast<std::uint32_t>(argc > 1 ? std::atoi(argv[1]) : 64);
    const double writer_share =
        (argc > 2 ? std::atof(argv[2]) : 10.0) / 100.0;

    std::printf("tune_f: n=%u readers, writer share of passages = %.0f%%\n\n",
                n, writer_share * 100);
    std::printf("%8s %10s %10s %14s\n", "f", "reader", "writer",
                "weighted RMRs");

    std::vector<SweepPoint> points;
    for (std::uint32_t f = 1; f <= n; f *= 2) {
        sim::DriverConfig cfg;
        cfg.episodes =
            lock_episodes({.lock = LockKind::Af, .n = n, .m = 1, .f = f});
        cfg.passages = 2;
        cfg.sched = sim::SchedKind::RoundRobin;
        cfg.check_mutual_exclusion = false;
        const auto res = sim::run_driver(cfg);
        if (!res.finished) {
            continue;
        }
        SweepPoint pt;
        pt.f = f;
        pt.reader_rmrs = res.readers.mean_passage_rmrs;
        pt.writer_rmrs = res.writers.mean_passage_rmrs;
        pt.weighted = (1.0 - writer_share) * pt.reader_rmrs +
                      writer_share * pt.writer_rmrs;
        points.push_back(pt);
        std::printf("%8u %10.1f %10.1f %14.1f\n", pt.f, pt.reader_rmrs,
                    pt.writer_rmrs, pt.weighted);
    }
    if (points.empty()) {
        std::fprintf(stderr, "sweep failed\n");
        return 1;
    }

    const auto* best = &points.front();
    for (const auto& pt : points) {
        if (pt.weighted < best->weighted) {
            best = &pt;
        }
    }
    std::printf(
        "\nrecommended f = %u  (K = %u readers per group; expected ~%.1f "
        "RMRs per weighted passage)\n",
        best->f, (n + best->f - 1) / best->f, best->weighted);

    // Deploy: the native lock at the chosen tradeoff point.
    rwr::native::AfLock lock(n, /*m=*/1, best->f);
    lock.lock_shared(0);
    lock.unlock_shared(0);
    lock.lock(0);
    lock.unlock(0);
    std::printf("native AfLock(n=%u, m=1, f=%u) constructed and exercised.\n",
                n, best->f);
    return 0;
}
