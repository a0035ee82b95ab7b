// sim-e1: A_f on the simulated CC machine over the E1 cells at n=1024: the
// four E1 f-choices x {WriteBack, WriteThrough}, m=1, 2 passages per
// process, round-robin scheduling, the mutual-exclusion checker attached.
// Cells run one after another on this thread, stepped by the benchmark's
// own System::step loop, in whole passes over the 8 cells.
//
// Oracle: zero ME violations, every process finished, and each cell's step
// count and per-section RMR totals equal the recorded values in
// sim_e1_expected.hpp. The simulation is deterministic, so any difference
// is a behaviour change, not noise.
#include <memory>
#include <string>
#include <vector>

#include "core/af_params.hpp"
#include "harness/locks.hpp"
#include "probes.hpp"
#include "sim/checker.hpp"
#include "sim/rwlock.hpp"
#include "sim/scheduler.hpp"
#include "sim/system.hpp"
#include "sim_e1_expected.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rwr::Op;
using rwr::ProcId;
using rwr::Protocol;
using rwr::Section;

struct Cell {
    Protocol proto;
    std::uint32_t n;
    rwr::core::FChoice choice;
    std::uint32_t f;
};

/// The E1 cells at n=1024. The n=4096 cells of E1 are left out: with the
/// ME checker's scan of every process on each step, one pass over them
/// takes about 40 s on a 4-core x86 host, longer than a whole run.
std::vector<Cell> e1_cells() {
    const std::uint32_t n = 1024;
    std::vector<Cell> cells;
    for (const auto choice :
         {rwr::core::FChoice::One, rwr::core::FChoice::Log,
          rwr::core::FChoice::Sqrt, rwr::core::FChoice::Linear}) {
        for (const Protocol proto :
             {Protocol::WriteBack, Protocol::WriteThrough}) {
            cells.push_back({proto, n, choice, rwr::core::f_of(choice, n)});
        }
    }
    return cells;
}

std::string describe(const Cell& c) {
    return rwr::to_string(c.proto) + " n=" + std::to_string(c.n) +
           " f=" + std::to_string(c.f);
}

/// One cell's system, lock and passage drivers, ready to step.
struct Built {
    std::unique_ptr<rwr::sim::System> sys;
    std::unique_ptr<rwr::sim::SimRWLock> lock;
    std::unique_ptr<rwr::sim::MutualExclusionChecker> checker;
    std::vector<std::vector<rwr::sim::PassageRecord>> records;
};

std::unique_ptr<Built> build(const Cell& c, bool with_checker) {
    auto b = std::make_unique<Built>();
    b->sys = std::make_unique<rwr::sim::System>(c.proto);
    b->lock = rwr::harness::make_sim_lock(rwr::harness::LockKind::Af,
                                          b->sys->memory(), c.n, 1, c.f);
    b->records.resize(c.n + 1);
    for (std::uint32_t i = 0; i < c.n + 1; ++i) {
        rwr::sim::Process& p = b->sys->add_process(
            i < c.n ? rwr::sim::Role::Reader : rwr::sim::Role::Writer);
        rwr::sim::DriveConfig dc;
        dc.passages = 2;
        dc.cs_steps = 1;
        dc.records = &b->records[p.id()];
        p.set_task(rwr::sim::drive_passages(*b->lock, p, dc));
    }
    if (with_checker) {
        b->checker = std::make_unique<rwr::sim::MutualExclusionChecker>(
            /*throw_on_violation=*/false);
        b->sys->add_observer(b->checker.get());
    }
    b->sys->start_all();
    return b;
}

/// Records every memory-touching step for the rmr replay.
class OpCapture final : public rwr::sim::StepObserver {
   public:
    void on_step(const rwr::sim::System&, const rwr::sim::Process& p,
                 const Op& op, const rwr::OpResult&) override {
        if (op.touches_memory()) {
            log.emplace_back(p.id(), op);
        }
    }
    std::vector<std::pair<ProcId, Op>> log;
};

struct CellRun {
    std::uint64_t steps = 0;
    double run_s = 0;  ///< Wall time of the step loop.
    std::uint64_t violations = 0;
    bool finished = false;
    std::uint64_t reader_passages = 0;
    std::uint64_t writer_passages = 0;
    std::array<std::uint64_t, rwr::kNumSections> reader_rmrs{};
    std::array<std::uint64_t, rwr::kNumSections> writer_rmrs{};
    /// Wall time from a passage's first entry step to its last exit step.
    LatencyHistogram read_span, write_span;
};

/// The benchmark's own step loop: round-robin picks, System::step, and a
/// clock read only when a process changes section.
CellRun run_cell(Built& b) {
    CellRun r;
    rwr::sim::System& sys = *b.sys;
    rwr::sim::RoundRobinScheduler rr;
    const std::vector<ProcId>& runnable = sys.runnable();
    const std::size_t np = sys.num_processes();
    const std::int64_t t0 = now_ns();
    std::vector<std::int64_t> start(np, t0);
    std::vector<Section> last(np);
    for (std::size_t p = 0; p < np; ++p) {
        last[p] = sys.process(static_cast<ProcId>(p)).section();
    }
    while (!runnable.empty()) {
        const ProcId p = rr.pick(sys, runnable);
        sys.step(p);
        const rwr::sim::Process& proc = sys.process(p);
        const Section s = proc.section();
        if (s != last[p]) {
            const std::int64_t t = now_ns();
            if (last[p] == Section::Exit) {
                (proc.is_reader() ? r.read_span : r.write_span)
                    .record(static_cast<std::uint64_t>(t - start[p]));
            }
            if (s == Section::Entry) {
                start[p] = t;
            }
            last[p] = s;
        }
    }
    r.run_s = static_cast<double>(now_ns() - t0) / 1e9;
    sys.check_failures();
    r.steps = sys.steps_executed();
    r.finished = sys.all_finished();
    r.violations = b.checker ? b.checker->violations() : 0;
    for (std::size_t p = 0; p < np; ++p) {
        const bool reader = sys.process(static_cast<ProcId>(p)).is_reader();
        for (const auto& rec : b.records[p]) {
            ++(reader ? r.reader_passages : r.writer_passages);
            for (int s = 0; s < rwr::kNumSections; ++s) {
                (reader ? r.reader_rmrs : r.writer_rmrs)[s] +=
                    rec.delta.rmrs[s];
            }
        }
    }
    return r;
}

/// Oracle for one cell run; returns true if it holds.
bool check_cell(Result& res, const Cell& c, const CellRun& r) {
    ++res.attempted;
    const E1Expected* want = nullptr;
    for (const E1Expected& e : kE1Expected) {
        if (e.proto == c.proto && e.n == c.n && e.f == c.f) {
            want = &e;
        }
    }
    std::string why;
    if (!r.finished) {
        why = "not every process finished";
    } else if (r.violations != 0) {
        why = std::to_string(r.violations) + " ME violations";
    } else if (want == nullptr) {
        why = "no recorded counts";
    } else if (r.steps != want->steps ||
               r.reader_passages != want->reader_passages ||
               r.writer_passages != want->writer_passages ||
               r.reader_rmrs != want->reader_rmrs ||
               r.writer_rmrs != want->writer_rmrs) {
        why = "simulated counts differ from the recorded ones (steps " +
              std::to_string(r.steps) + " vs " +
              std::to_string(want->steps) + ")";
    }
    if (why.empty()) {
        return true;
    }
    res.fail(1, describe(c) + ": " + why);
    return false;
}

/// Sum over the cells of one traced pass (see trace_cells).
struct TracedPass {
    std::uint64_t steps = 0;
    // Wall seconds, summed over the cells.
    double cell_s = 0;     ///< Untraced cells: build, step loop and checks.
    double on_s = 0;       ///< Step loops, checker on, untraced.
    double traced_s = 0;   ///< Step loops, checker on, ops captured.
    double off_s = 0;      ///< Step loops, checker off.
    double replay_s = 0;   ///< Memory::apply over the captured ops.
    std::vector<double> build_ms;
    std::vector<Span> spans;
};

/// Runs each cell four ways: untraced with the checker, traced (ops
/// captured, spans recorded), without the checker, and the captured ops
/// replayed through Memory::apply on a copy of the freshly built memory.
TracedPass trace_cells(Result& res, const std::vector<Cell>& cells) {
    TracedPass t;
    std::uint64_t trace_id = 0;
    for (const Cell& c : cells) {
        ++trace_id;
        {
            const std::int64_t u0 = now_ns();
            auto b = build(c, true);
            const CellRun r = run_cell(*b);
            check_cell(res, c, r);
            t.steps += r.steps;
            t.on_s += r.run_s;
            t.cell_s += static_cast<double>(now_ns() - u0) / 1e9;
        }
        const std::int64_t c0 = now_ns();
        auto b = build(c, true);
        const std::int64_t c1 = now_ns();
        t.build_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
        const rwr::Memory fresh = b->sys->memory();
        OpCapture capture;
        capture.log.reserve(1u << 20);
        b->sys->add_observer(&capture);
        const std::int64_t c2 = now_ns();
        const CellRun r = run_cell(*b);
        const std::int64_t c3 = now_ns();
        check_cell(res, c, r);
        t.traced_s += r.run_s;

        rwr::Memory mem = fresh;
        const std::int64_t c4 = now_ns();
        for (const auto& [p, op] : capture.log) {
            mem.apply(p, op);
        }
        const std::int64_t c5 = now_ns();
        t.replay_s += static_cast<double>(c5 - c4) / 1e9;
        if (mem.total_rmrs() != b->sys->memory().total_rmrs() ||
            mem.total_steps() != b->sys->memory().total_steps()) {
            res.fail(1, describe(c) + ": replayed memory diverged");
        }
        const auto root = static_cast<std::int32_t>(t.spans.size());
        t.spans.push_back({"sim.cell", trace_id, c0, c5, -1});
        t.spans.push_back({"sim.build", trace_id, c0, c1, root});
        t.spans.push_back({"sim.run", trace_id, c2, c3, root});
        t.spans.push_back({"rmr.replay", trace_id, c4, c5, root});
        b.reset();

        auto off = build(c, false);
        t.off_s += run_cell(*off).run_s;
    }
    return t;
}

void add_traced_metrics(Result& res, const TracedPass& t,
                        const std::string& where) {
    const double steps = static_cast<double>(t.steps);
    const double step_ns = t.on_s * 1e9 / steps;
    const double apply_ns = t.replay_s * 1e9 / steps;
    const double checker_ns = (t.on_s - t.off_s) * 1e9 / steps;
    res.metric("sim.step_ns", step_ns, "ns", t.steps,
               "step loop wall / steps, checker on, " + where);
    res.metric("rmr.apply_ns", apply_ns, "ns", t.steps,
               "Memory::apply replay wall / steps, " + where);
    res.metric("sim.checker_ns_per_step", checker_ns, "ns", t.steps,
               "(checker on - off) wall / steps, " + where);
    res.metric("sim.engine_self_ns", step_ns - apply_ns - checker_ns, "ns",
               t.steps, "step - apply - checker, " + where);
    res.metric("addup.sim_residual_share",
               residual_share(step_ns, {apply_ns, checker_ns}), "share", 0,
               "share of a step outside Memory::apply and the checker "
               "(the engine's self time), " + where);
    double build = 0;
    for (const double b : t.build_ms) {
        build += b;
    }
    res.metric("sim.build_ms", build / static_cast<double>(t.build_ms.size()),
               "ms", t.build_ms.size(),
               "System + lock + processes, mean per cell, " + where);
}

/// One pass over the cells: build, step loop and oracle of each.
struct Pass {
    std::uint64_t steps = 0;
    double run_s = 0;  ///< Wall time of the step loops.
    double cpu_s = 0;  ///< Process CPU time of the whole pass.
    LatencyHistogram read_span, write_span;
};

Pass run_pass(Result& res, const std::vector<Cell>& cells) {
    Pass p;
    const double cpu0 = cpu_seconds();
    for (const Cell& c : cells) {
        auto b = build(c, true);
        const CellRun r = run_cell(*b);
        check_cell(res, c, r);
        p.steps += r.steps;
        p.run_s += r.run_s;
        p.read_span.merge(r.read_span);
        p.write_span.merge(r.write_span);
    }
    p.cpu_s = cpu_seconds() - cpu0;
    return p;
}

/// Builds every cell once; returns the summed build time in seconds.
double build_all(const std::vector<Cell>& cells) {
    double s = 0;
    for (const Cell& c : cells) {
        const std::int64_t t0 = now_ns();
        auto b = build(c, true);
        s += static_cast<double>(now_ns() - t0) / 1e9;
    }
    return s;
}

constexpr int kSetups = 7;
constexpr std::size_t kMinPasses = 3;

}  // namespace

Result run_sim(const Options& opt) {
    Result res;
    const std::vector<Cell> cells = e1_cells();
    std::vector<double> setup;
    for (int i = 0; i < kSetups; ++i) {
        setup.push_back(build_all(cells));
    }
    if (opt.trace) {
        const TracedPass t = trace_cells(res, cells);
        res.metric("tracing.overhead_share", t.traced_s / t.on_s - 1.0,
                   "share", 0,
                   "traced step loops (ops captured) / untraced - 1");
        add_traced_metrics(res, t, "E1 cells");
        // The simulator runs no native lock or service: those layers come
        // from solo probes at the af-read shape.
        add_native_layer_metrics(res, LockShape{1024, 1, 4}, true);
        add_table_probe_metrics(res, opt.seed);
        add_loopback_probe_metrics(res, lockd_table_config());
        res.metric("harness.pool_idle_share", 1.0 - t.on_s / t.cell_s,
                   "share", 0,
                   "1 - step loops / (build + step loop + checks), one thread");
        res.spans = t.spans;
        return res;
    }

    // Whole passes over the cells until the requested time is used up, and
    // at least kMinPasses; a pass is the unit, so every run measures the
    // same cell mix. Each metric is a median over the passes.
    std::vector<Pass> passes;
    const std::int64_t begin = now_ns();
    while (passes.size() < kMinPasses ||
           static_cast<double>(now_ns() - begin) / 1e9 < opt.seconds) {
        passes.push_back(run_pass(res, cells));
    }
    auto over_passes = [&](auto&& f) {
        return slice_median(static_cast<int>(passes.size()), [&](int i) {
            return f(passes[static_cast<std::size_t>(i)]);
        });
    };
    std::uint64_t steps = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (const Pass& p : passes) {
        steps += p.steps;
        reads += p.read_span.count();
        writes += p.write_span.count();
    }
    std::string by_pass = "passes (steps/s):";
    for (const Pass& p : passes) {
        by_pass += " " + std::to_string(static_cast<long long>(
                             static_cast<double>(p.steps) / p.run_s));
    }
    res.note(by_pass);
    const std::string per_pass =
        "median of " + std::to_string(passes.size()) + " passes over " +
        std::to_string(cells.size()) + " cells";
    const std::string span =
        "host time spanned by a simulated passage, first entry step to "
        "last exit step, ";
    res.metric("setup_s", median(setup), "s", setup.size(),
               "build System + lock + processes of every cell, median");
    res.metric("ops_per_s", over_passes([](const Pass& p) {
                   return static_cast<double>(p.steps) / p.run_s;
               }),
               "1/s", steps,
               "simulated steps / wall time of the step loops, " + per_pass);
    res.metric("read_p50_us", over_passes([](const Pass& p) {
                   return p.read_span.quantile(0.50) / 1e3;
               }),
               "us", reads, span + per_pass);
    res.metric("read_p99_us", over_passes([](const Pass& p) {
                   return p.read_span.quantile(0.99) / 1e3;
               }),
               "us", reads, span + per_pass);
    res.metric("write_p50_us", over_passes([](const Pass& p) {
                   return p.write_span.quantile(0.50) / 1e3;
               }),
               "us", writes, span + per_pass);
    res.metric("write_p90_us", over_passes([](const Pass& p) {
                   return p.write_span.quantile(0.90) / 1e3;
               }),
               "us", writes, span + per_pass);
    res.metric("cpu_us_per_op", over_passes([](const Pass& p) {
                   return p.cpu_s * 1e6 / static_cast<double>(p.steps);
               }),
               "us", steps,
               "process CPU of a pass (build, step loops, checks) / "
               "simulated steps, " + per_pass);
    res.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return res;
}

void add_sim_probe_metrics(Result& r) {
    // One small E1 cell (the simulator's layers at n=256, f=Log), traced.
    const std::uint32_t n = 256;
    const Cell c{Protocol::WriteBack, n, rwr::core::FChoice::Log,
                 rwr::core::f_of(rwr::core::FChoice::Log, n)};
    const TracedPass t = trace_cells(r, {c});
    add_traced_metrics(r, t, "probe cell " + describe(c));
}

}  // namespace perfbench
