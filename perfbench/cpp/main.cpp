// perfbench: the repository's benchmark program.
//
//   perfbench --workload af-read|af-write|lockd|sim-e1 --seed N --seconds S
//             --trace 0|1 --out RESULT.json [--trace-out SPANS.jsonl]
//
// Prints one report line per metric, writes the result (oracle verdict,
// attempted/failed counts, metrics with units) to --out, and with --trace 1
// writes the recorded spans to --trace-out. Exits 1 if any correctness
// check failed. perfbench/run.py builds this program and wraps it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "harness/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Which end-to-end metric each per-layer metric should move, on which
/// workload, and where it should barely move.
struct LayerMap {
    const char* name;
    const char* moves;
    const char* on;
    const char* still_on;
};

constexpr LayerMap kLayerMap[] = {
    {"counter.add_ns", "read_p50_us", "af-read", "af-write (K=4)"},
    {"counter.read_ns", "write_p50_us", "af-write", "af-read"},
    {"af_lock.read_entry_ns", "read_p50_us, read_p99_us", "af-read",
     "lockd, sim-e1"},
    {"af_lock.read_exit_ns", "read_p50_us, read_p99_us", "af-read",
     "lockd, sim-e1"},
    {"af_lock.write_entry_us", "write_p50_us", "af-write", "af-read"},
    {"af_lock.write_exit_us", "write_p50_us", "af-write", "af-read"},
    {"af_lock.handshake_ns_per_group", "write_p50_us", "af-write", "af-read"},
    {"mutex.passage_ns", "write_p50_us", "af-write", "af-read (m=1)"},
    // af-write runs one writer, so WL is never contended on a listed
    // workload; the contention counters stay near 0 there.
    {"mutex.contended_per_op", "write_p90_us", "none listed",
     "af-read, af-write"},
    {"af_lock.writer_contended_per_op", "write_p90_us", "none listed",
     "af-read, af-write"},
    {"af_lock.reader_contended_per_op", "read_p99_us", "af-read", "sim-e1"},
    // Waits on the listed workloads end before the wait ladder parks.
    {"park.roundtrip_us", "write_p90_us", "lockd (not listed)",
     "af-read, af-write"},
    {"park.futex_waits_per_op", "cpu_us_per_op", "lockd (not listed)",
     "af-read, af-write"},
    {"park.futex_wakes_per_op", "cpu_us_per_op", "lockd (not listed)",
     "af-read, af-write"},
    {"native_table.read_acquire_ns", "read_p50_us", "lockd",
     "af-read, af-write"},
    {"native_table.read_release_ns", "read_p50_us", "lockd",
     "af-read, af-write"},
    {"native_table.write_acquire_ns", "write_p50_us", "lockd",
     "af-read, af-write"},
    {"native_table.write_release_ns", "write_p50_us", "lockd",
     "af-read, af-write"},
    {"native_table.net_rmrs_per_op", "ops_per_s", "lockd", "-"},
    {"harness.pool_idle_share", "ops_per_s", "lockd", "-"},
    {"loopback.daemon_start_ms", "setup_s", "lockd", "-"},
    {"loopback.connect_ms", "setup_s", "lockd", "-"},
    {"loopback.stats_ms", "setup_s", "lockd", "-"},
    {"sim.step_ns", "ops_per_s", "sim-e1", "all native"},
    {"rmr.apply_ns", "ops_per_s", "sim-e1", "all native"},
    {"sim.checker_ns_per_step", "ops_per_s", "sim-e1", "-"},
    {"sim.engine_self_ns", "ops_per_s", "sim-e1", "-"},
    {"sim.build_ms", "setup_s", "sim-e1", "-"},
};

const LayerMap* layer_map(const std::string& name) {
    for (const LayerMap& m : kLayerMap) {
        if (name == m.name) {
            return &m;
        }
    }
    return nullptr;
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "af-read|af-write|lockd|sim-e1 --seed N --seconds S "
                 "--trace 0|1 --out FILE [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

/// Per span name: count, median duration and median self time.
void summarize_spans(Result& r) {
    const std::vector<std::int64_t> self = self_times(r.spans);
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        by_name;
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        auto& [dur, own] = by_name[r.spans[i].name];
        dur.push_back(
            static_cast<double>(r.spans[i].end_ns - r.spans[i].start_ns));
        own.push_back(static_cast<double>(self[i]));
    }
    for (const auto& [name, v] : by_name) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "span %-32s n=%-7zu p50 %12.1f ns  self p50 %12.1f ns",
                      name.c_str(), v.first.size(), median(v.first),
                      median(v.second));
        r.note(line);
    }
}

void write_spans(const Result& r, const std::string& path) {
    const std::vector<std::int64_t> self = self_times(r.spans);
    std::ofstream os(path);
    for (std::size_t i = 0; i < r.spans.size(); ++i) {
        const Span& s = r.spans[i];
        os << "{\"name\":\"" << s.name << "\",\"trace_id\":" << s.trace_id
           << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
           << ",\"parent\":" << s.parent << ",\"self_ns\":" << self[i]
           << "}\n";
    }
    if (!os) {
        throw std::runtime_error("cannot write spans to " + path);
    }
}

std::string g_out_path;

/// Prints the report lines and writes the result file; returns the exit
/// code (1 if any check failed).
int finish(Result& r) {
    auto metrics = rwr::harness::json::Value::object();
    for (const Metric& m : r.metrics) {
        if (!std::isfinite(m.value)) {
            r.fail(1, "metric " + m.name + " has no value");
            continue;
        }
        auto v = rwr::harness::json::Value::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        metrics.set(m.name, std::move(v));
        std::string line = "metric " + m.name + " = " +
                           std::to_string(m.value) + " " + m.unit;
        if (m.samples != 0) {
            line += " (n=" + std::to_string(m.samples) + ")";
        }
        if (const LayerMap* lm = layer_map(m.name)) {
            line += " [moves " + std::string(lm->moves) + " on " + lm->on +
                    "; ~no move on " + lm->still_on + "]";
        }
        if (!m.detail.empty()) {
            line += " -- " + m.detail;
        }
        std::printf("%s\n", line.c_str());
    }
    for (const std::string& line : r.report) {
        std::printf("%s\n", line.c_str());
    }
    for (const std::string& f : r.failures) {
        std::printf("FAILED: %s\n", f.c_str());
    }
    std::printf("attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::fflush(stdout);

    auto doc = rwr::harness::json::Value::object();
    doc.set("correct", r.failed == 0);
    doc.set("attempted", r.attempted);
    doc.set("failed", r.failed);
    doc.set("metrics", std::move(metrics));
    std::ofstream os(g_out_path);
    os << doc.dump();
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     g_out_path.c_str());
        return 1;
    }
    return r.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    std::string out_path;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload") {
                opt.workload = val;
            } else if (key == "--seed") {
                opt.seed = std::stoull(val);
                have_seed = true;
            } else if (key == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (key == "--trace") {
                opt.trace = val == "1";
            } else if (key == "--out") {
                out_path = val;
            } else if (key == "--trace-out") {
                opt.trace_out = val;
            } else {
                usage(("unknown flag " + key).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (argc % 2 == 0) {
        usage("flags come in --key value pairs");
    }
    if (!have_seed || out_path.empty() || !(opt.seconds > 0)) {
        usage("--seed, --out and a positive --seconds are required");
    }
    g_out_path = out_path;

    Result r;
    try {
        if (opt.workload == "af-read") {
            r = run_af(opt, true);
        } else if (opt.workload == "af-write") {
            r = run_af(opt, false);
        } else if (opt.workload == "lockd") {
            r = run_lockd(opt);
        } else if (opt.workload == "sim-e1") {
            r = run_sim(opt);
        } else {
            usage(("unknown workload '" + opt.workload + "'").c_str());
        }
        if (opt.trace) {
            summarize_spans(r);
            if (!opt.trace_out.empty()) {
                write_spans(r, opt.trace_out);
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    const int rc = finish(r);
    if (r.stuck) {
        std::_Exit(rc);  // Stuck threads cannot be joined.
    }
    return rc;
}
