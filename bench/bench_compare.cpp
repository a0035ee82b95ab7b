// Perf-trajectory regression check over "rwr-bench-v1" JSON files.
//
//   bench_compare --check FILE.json          validate schema, exit 0/1
//   bench_compare OLD.json NEW.json [--max-drop 0.10] [--max-perf-drop 0.50]
//
// Compare mode joins rows on (bench, lock, protocol, n, m, f, threads) and
// flags: throughput_ops drops beyond --max-drop (noisy, wall-clock),
// sim_rmr mean-passage *increases* beyond the same fraction (deterministic
// counts -- any growth is a real protocol regression), and
// sim_perf.steps_per_sec drops beyond --max-perf-drop (simulator engine
// speed; wall-clock and machine-dependent, hence the much wider default
// tolerance -- it guards against order-of-magnitude engine regressions,
// not noise). Rows where either run spent less than --min-perf-ms (default
// 5 ms) of wall time are exempt from the perf gate: sub-millisecond cells
// measure scheduler jitter, not the engine.
//
// Baseline rows MISSING from the new run are a hard error, one message per
// row: a vanished row means the new binary silently dropped a
// configuration, which would let a regression hide by deleting its row.
// The same holds one level down: a numeric field of a baseline row (say
// "proc_rmr.writer_total_max") that its joined new row lacks is a hard
// error too. Rows only the new run has are informational ([new]).
//
// Exit 1 iff any row regressed or any row or metric went missing, so CI or
// a local loop can gate on it:
//
//   bench_native_throughput --json new.json && bench_compare BENCH_native.json new.json
//
// The join/diff logic lives in harness/bench_diff.hpp (unit-tested in
// tests/test_bench_diff.cpp); this binary is the CLI around it.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_diff.hpp"
#include "harness/bench_json.hpp"

namespace {

using rwr::harness::json::Value;
namespace bench = rwr::harness::bench;

int compare(const Value& oldd, const Value& newd,
            const bench::DiffOptions& opts) {
    const bench::DiffReport rep = bench::diff(oldd, newd, opts);
    for (const auto& key : rep.added) {
        std::cout << "  [new]     " << key << "\n";
    }
    std::cout << rep.joined << " rows joined, " << rep.regressions.size()
              << " regression(s) beyond " << opts.max_drop * 100 << "%, "
              << rep.missing.size() << " missing row(s), "
              << rep.missing_metrics.size() << " missing metric(s)\n";
    for (const auto& key : rep.missing) {
        std::cout << "  [MISSING] " << key
                  << ": present in baseline but absent from the new run "
                     "(dropped configuration?)\n";
    }
    for (const auto& metric : rep.missing_metrics) {
        std::cout << "  [MISSING] " << metric
                  << ": metric present in baseline but absent from the new "
                     "row (dropped field?)\n";
    }
    for (const auto& f : rep.regressions) {
        std::cout << "  [REGRESS] " << f.key << " " << f.metric << ": "
                  << f.before << " -> " << f.after << " ("
                  << (f.change * 100) << "% worse)\n";
    }
    return rep.ok() ? 0 : 1;
}

int usage() {
    std::cerr << "usage: bench_compare --check FILE.json\n"
                 "       bench_compare OLD.json NEW.json [--max-drop FRAC] "
                 "[--max-perf-drop FRAC] [--min-perf-ms MS]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    bool check_only = false;
    bench::DiffOptions opts;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            check_only = true;
        } else if (std::strcmp(argv[i], "--max-drop") == 0 && i + 1 < argc) {
            opts.max_drop = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--max-perf-drop") == 0 &&
                   i + 1 < argc) {
            opts.max_perf_drop = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--min-perf-ms") == 0 &&
                   i + 1 < argc) {
            opts.min_perf_ms = std::stod(argv[++i]);
        } else {
            files.emplace_back(argv[i]);
        }
    }
    try {
        if (check_only) {
            if (files.size() != 1) {
                return usage();
            }
            bench::validate(bench::read_file(files[0]));
            std::cout << files[0] << ": schema ok\n";
            return 0;
        }
        if (files.size() != 2) {
            return usage();
        }
        const Value oldd = bench::read_file(files[0]);
        const Value newd = bench::read_file(files[1]);
        bench::validate(oldd);
        bench::validate(newd);
        return compare(oldd, newd, opts);
    } catch (const std::exception& e) {
        std::cerr << "bench_compare: " << e.what() << "\n";
        return 1;
    }
}
