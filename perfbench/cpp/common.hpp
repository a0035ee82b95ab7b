// Shared plumbing of the benchmark program: clocks, process counters, the
// result record every workload fills in, the in-memory span buffer of the
// traced run, and the closed-loop harness (threads, timed slices, watchdog
// and slice statistics) that af-read, af-write and lockd share.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/// Process CPU time (user + system, all threads) in seconds.
inline double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of this process so far, in MiB.
inline double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Worker threads a workload may use: at most the host's processors.
inline unsigned host_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;  ///< Where the traced run writes its spans.
};

/// Warm-up excluded from every timed window: a fifth of the run, at most
/// 2 s. On a virtual machine the closed loops' throughput still climbs for
/// a few seconds after the threads start.
inline double warmup_seconds(double seconds) {
    return std::min(2.0, 0.2 * seconds);
}

/// Run phases shared by a workload's threads. A value >= kTimed is a timed
/// slice, numbered from 0 (phase - kTimed); kStop ends the closed loops.
enum Phase : int { kWarmup = 0, kStop = 1, kTimed = 2 };

/// The timed window is cut into slices of about one second, and end-to-end
/// numbers are medians over the slices: a transient disturbance of the host
/// moves one slice instead of the whole run.
inline int slice_count(double seconds) {
    return std::max(1, static_cast<int>(std::lround(seconds)));
}

/// Values `f(i)` for i in [0, n) that are finite.
template <class F>
std::vector<double> slice_values(int n, F&& f) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) {
        const double x = f(i);
        if (std::isfinite(x)) {
            v.push_back(x);
        }
    }
    return v;
}

/// Median of `f(i)` over i in [0, n), skipping values that are not finite.
template <class F>
double slice_median(int n, F&& f) {
    return median(slice_values(n, std::forward<F>(f)));
}

/// Throughputs are the upper quartile over the slices, not the median.
/// Host interference (steal, a busy neighbour, a slow wake-up of an idle
/// virtual processor) takes time away from a slice, and on a shared host
/// it comes in spells that outlast many slices; the faster half of the
/// slices estimates the program's own rate. A higher quantile would follow
/// the host's rarer fast spells instead. Per-op latencies and CPU cost are
/// little moved by such spells and stay slice medians.
constexpr double kRateQuantile = 0.75;

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;  ///< 0: not a sampled statistic.
    std::string detail;         ///< Free text for the report line.
};

/// What one workload run hands back to main(): the oracle's verdict, the
/// metrics, and the human-readable report lines printed before the result.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    std::vector<std::string> report;
    std::vector<Span> spans;  ///< Traced run only.
    /// Threads of the run are stuck in the program (a deadlock or lost
    /// wakeup); main() ends the process without joining them.
    bool stuck = false;

    void metric(std::string name, double value, std::string unit,
                std::uint64_t samples = 0, std::string detail = "") {
        metrics.push_back({std::move(name), value, std::move(unit), samples,
                           std::move(detail)});
    }
    /// Counts `n` failed operations (at least one) with a reason.
    void fail(std::uint64_t n, const std::string& why) {
        failed += n == 0 ? 1 : n;
        failures.push_back(why);
    }
    void note(std::string line) { report.push_back(std::move(line)); }
};

/// A stall is this long without any completed passage or op.
inline constexpr double kStallSeconds = 10.0;

/// Wall and process CPU time of each completed timed slice of a run.
struct Window {
    std::vector<double> wall_s;
    std::vector<double> cpu_s;
    /// Progress stood still for kStallSeconds, or the threads did not
    /// return after the stop. The slices from the one in which work last
    /// completed on are then dropped.
    bool stalled = false;
    std::size_t stuck = 0;  ///< Threads that never returned.
};

/// Polls `done` until it holds (true) or `timeout_s` passes (false).
template <class Done>
bool await(Done&& done, double timeout_s) {
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (!done()) {
        if (now_ns() >= end) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/// The threads of one closed-loop run and the phase they follow. Each
/// thread waits until go(), then runs its body, which loops until phase()
/// reads kStop. go() drives warm-up and slice_count(seconds) timed slices
/// while a watchdog checks that work completes.
class ClosedLoop {
   public:
    ClosedLoop() = default;
    ~ClosedLoop() { stop(); }
    ClosedLoop(const ClosedLoop&) = delete;
    ClosedLoop& operator=(const ClosedLoop&) = delete;

    /// Starts one thread per body; returns once every thread waits for go().
    void start(std::vector<std::function<void()>> bodies) {
        for (std::function<void()>& body : bodies) {
            threads_.emplace_back([this, body = std::move(body)] {
                ready_.fetch_add(1);
                go_.wait(false);
                if (phase() != kStop) {
                    body();
                }
                exited_.fetch_add(1);
            });
        }
        while (ready_.load() != threads_.size()) {
            std::this_thread::yield();
        }
    }

    [[nodiscard]] int phase() const {
        return phase_.load(std::memory_order_relaxed);
    }

    /// Runs the threads through warm-up, the timed slices and the stop.
    /// `progress` is a monotone count of completed work. If it stands
    /// still for kStallSeconds, or the threads do not return within that
    /// long after the stop, the window comes back stalled.
    template <class Progress>
    Window go(double seconds, Progress&& progress) {
        go_.store(true);
        go_.notify_all();
        Window w;
        std::uint64_t last = progress();
        std::int64_t last_change = now_ns();
        auto sleep = [&](double s) {
            const std::int64_t end =
                now_ns() + static_cast<std::int64_t>(s * 1e9);
            for (std::int64_t now = now_ns(); now < end; now = now_ns()) {
                std::this_thread::sleep_for(std::chrono::nanoseconds(
                    std::min<std::int64_t>(end - now, 50'000'000)));
                const std::uint64_t p = progress();
                if (p != last) {
                    last = p;
                    last_change = now_ns();
                } else if (static_cast<double>(now_ns() - last_change) /
                               1e9 >
                           kStallSeconds) {
                    return false;
                }
            }
            return true;
        };
        w.stalled = !sleep(warmup_seconds(seconds));
        const int slices = slice_count(seconds);
        std::vector<std::int64_t> slice_end;
        for (int i = 0; i < slices && !w.stalled; ++i) {
            const double cpu0 = cpu_seconds();
            const std::int64_t t0 = now_ns();
            phase_.store(kTimed + i);
            w.stalled = !sleep(seconds / slices);
            slice_end.push_back(now_ns());
            w.wall_s.push_back(static_cast<double>(slice_end.back() - t0) /
                               1e9);
            w.cpu_s.push_back(cpu_seconds() - cpu0);
        }
        phase_.store(kStop);
        const std::size_t n = threads_.size();
        if (!await([&] { return exited_.load() == n; }, kStallSeconds)) {
            w.stalled = true;
        }
        if (w.stalled) {
            // Keep only the slices that ended before work last completed.
            std::size_t keep = 0;
            while (keep < slice_end.size() && slice_end[keep] <= last_change) {
                ++keep;
            }
            w.wall_s.resize(keep);
            w.cpu_s.resize(keep);
        }
        w.stuck = n - exited_.load();
        stalled_ = w.stalled;
        return w;
    }

    /// Stops and joins the threads; after a stalled go() the stuck ones
    /// are left behind (the process ends without them).
    void stop() {
        phase_.store(kStop);
        go_.store(true);
        go_.notify_all();
        for (std::thread& t : threads_) {
            if (stalled_) {
                t.detach();
            } else {
                t.join();
            }
        }
        threads_.clear();
    }

   private:
    std::vector<std::thread> threads_;
    std::atomic<std::size_t> ready_{0};
    std::atomic<std::size_t> exited_{0};
    std::atomic<bool> go_{false};
    std::atomic<int> phase_{kWarmup};
    bool stalled_ = false;
};

/// Spans of one thread, kept in memory for the run. Only every
/// `stride`-th unit of work (passage, session batch) is recorded, and at
/// most `cap` spans, so a multi-million-passage run keeps a bounded trace;
/// per-layer timings use histograms over every unit instead.
class SpanBuffer {
   public:
    SpanBuffer(std::uint32_t stride, std::size_t cap)
        : stride_(stride), cap_(cap) {}

    /// True when the next unit of work, recorded as `spans` spans, should
    /// be recorded.
    bool sample_next(std::size_t spans) {
        return (tick_++ % stride_) == 0 && spans_.size() + spans <= cap_;
    }

    /// Appends a span and returns its index (for children's `parent`).
    std::int32_t add(const char* name, std::uint64_t trace_id,
                     std::int64_t start, std::int64_t end,
                     std::int32_t parent = -1) {
        spans_.push_back({name, trace_id, start, end, parent});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void set_end(std::int32_t index, std::int64_t end) {
        spans_[static_cast<std::size_t>(index)].end_ns = end;
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

   private:
    std::uint32_t stride_;
    std::size_t cap_;
    std::uint64_t tick_ = 0;
    std::vector<Span> spans_;
};

/// What one closed-loop thread records. Each thread writes only its own.
struct alignas(64) ThreadOut {
    ThreadOut(int slices, std::uint32_t span_stride)
        : read(slices),
          write(slices),
          reads(slices),
          writes(slices),
          spans(span_stride, 200'000) {}

    /// One completed passage (acquire -> release) in the current phase.
    void record(bool reader, int phase, std::int64_t ns) {
        ++attempted;
        if (phase >= kTimed) {
            const int slice = phase - kTimed;
            ++(reader ? reads : writes)[slice];
            (reader ? read : write)[slice].record(
                static_cast<std::uint64_t>(ns));
        }
    }
    /// One more unit of work done, for the watchdog.
    void tick() {
        progress.store(progress.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    }

    std::vector<LatencyHistogram> read, write;  ///< Per timed slice.
    std::vector<std::uint64_t> reads, writes;   ///< Per timed slice.
    /// Traced run: spans around entering and leaving, all timed slices.
    LatencyHistogram read_enter, read_leave, write_enter, write_leave;
    std::uint64_t attempted = 0;  ///< Passages, warm-up included.
    std::uint64_t failed = 0;     ///< Passages whose check failed.
    std::int64_t busy_ns = 0;     ///< Timed units' spans.
    SpanBuffer spans;
    std::atomic<std::uint64_t> progress{0};  ///< Read by the watchdog.
};

/// A closed-loop run's threads merged, with its window and set-up times.
struct LoopOut {
    std::vector<double> setup_s;
    Window window;
    std::vector<LatencyHistogram> read, write;  ///< Per completed slice.
    std::vector<std::uint64_t> reads, writes;   ///< Per completed slice.
    LatencyHistogram read_enter, read_leave, write_enter, write_leave;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double busy_share = 0;  ///< Σ busy spans / (threads × timed wall).
    std::vector<Span> spans;

    /// Merges the threads' records over the window's completed slices.
    void merge(const std::deque<ThreadOut>& outs, Window w) {
        window = std::move(w);
        const std::size_t n = window.wall_s.size();
        read.assign(n, {});
        write.assign(n, {});
        reads.assign(n, 0);
        writes.assign(n, 0);
        std::int64_t busy = 0;
        for (const ThreadOut& o : outs) {
            for (std::size_t i = 0; i < n; ++i) {
                read[i].merge(o.read[i]);
                write[i].merge(o.write[i]);
                reads[i] += o.reads[i];
                writes[i] += o.writes[i];
            }
            read_enter.merge(o.read_enter);
            read_leave.merge(o.read_leave);
            write_enter.merge(o.write_enter);
            write_leave.merge(o.write_leave);
            attempted += o.attempted;
            failed += o.failed;
            busy += o.busy_ns;
            const auto base = static_cast<std::int32_t>(spans.size());
            for (Span s : o.spans.spans()) {
                if (s.parent >= 0) {
                    s.parent += base;
                }
                spans.push_back(s);
            }
        }
        double wall = 0;
        for (const double x : window.wall_s) {
            wall += x;
        }
        busy_share = wall > 0 ? static_cast<double>(busy) / 1e9 /
                                    (static_cast<double>(outs.size()) * wall)
                              : 0.0;
    }

    [[nodiscard]] int slices() const {
        return static_cast<int>(window.wall_s.size());
    }
    [[nodiscard]] std::uint64_t passages(int i) const {
        const auto s = static_cast<std::size_t>(i);
        return reads[s] + writes[s];
    }
    [[nodiscard]] std::uint64_t total(
        const std::vector<std::uint64_t>& v) const {
        std::uint64_t t = 0;
        for (const std::uint64_t x : v) {
            t += x;
        }
        return t;
    }
    /// Passages per second, kRateQuantile over the slices.
    [[nodiscard]] double ops_per_s() const {
        std::vector<double> v = slice_values(slices(), [&](int i) {
            return static_cast<double>(passages(i)) /
                   window.wall_s[static_cast<std::size_t>(i)];
        });
        return percentile(v, kRateQuantile);
    }
    /// Quantile `q` of one role's passages in us, median over the slices.
    [[nodiscard]] double quantile_us(const std::vector<LatencyHistogram>& h,
                                     double q) const {
        return slice_median(slices(), [&](int i) {
            return h[static_cast<std::size_t>(i)].quantile(q) / 1e3;
        });
    }
    /// Process CPU per passage in us, median over the slices.
    [[nodiscard]] double cpu_us_per_op() const {
        return slice_median(slices(), [&](int i) {
            return window.cpu_s[static_cast<std::size_t>(i)] * 1e6 /
                   static_cast<double>(passages(i));
        });
    }
};

/// The oracle's share common to the closed loops: passages whose own check
/// failed, a role that completed nothing in a timed slice, and threads
/// stuck in the program. Stuck threads count as attempted, failed ops.
inline void check_loop(Result& r, const LoopOut& o, const std::string& unit) {
    r.attempted += o.attempted + o.window.stuck;
    if (o.failed != 0) {
        r.fail(o.failed, std::to_string(o.failed) + " " + unit +
                             "s failed their check");
    }
    for (int i = 0; i < o.slices(); ++i) {
        const auto s = static_cast<std::size_t>(i);
        if (o.reads[s] == 0 || o.writes[s] == 0) {
            r.fail(1, "a role completed no " + unit + " in timed slice " +
                          std::to_string(i));
        }
    }
    if (o.window.stalled) {
        r.stuck = true;
        r.fail(o.window.stuck,
               "no " + unit + " completed for " +
                   std::to_string(static_cast<int>(kStallSeconds)) +
                   " s: " + std::to_string(o.window.stuck) +
                   " threads are stuck in the program; metrics cover the " +
                   std::to_string(o.slices()) + " slices completed before");
    }
}

/// The end-to-end metrics of a closed-loop run, each a median over the
/// timed slices, plus one report line with every slice's throughput.
inline void add_loop_metrics(Result& r, const LoopOut& o,
                             const std::string& setup_what,
                             const std::string& op_what) {
    const std::string per_slice =
        "median of " + std::to_string(o.slices()) + " slices";
    std::string by_slice = "slices (ops/s):";
    for (int i = 0; i < o.slices(); ++i) {
        by_slice += " " + std::to_string(static_cast<long long>(
                              static_cast<double>(o.passages(i)) /
                              o.window.wall_s[static_cast<std::size_t>(i)]));
    }
    r.note(by_slice);
    const std::uint64_t reads = o.total(o.reads);
    const std::uint64_t writes = o.total(o.writes);
    r.metric("setup_s", median(o.setup_s), "s", o.setup_s.size(),
             setup_what + ", median");
    r.metric("ops_per_s", o.ops_per_s(), "1/s", reads + writes,
             op_what + ", p75 of " + std::to_string(o.slices()) + " slices");
    r.metric("read_p50_us", o.quantile_us(o.read, 0.50), "us", reads,
             per_slice);
    r.metric("read_p99_us", o.quantile_us(o.read, 0.99), "us", reads,
             per_slice);
    r.metric("write_p50_us", o.quantile_us(o.write, 0.50), "us", writes,
             per_slice);
    r.metric("write_p90_us", o.quantile_us(o.write, 0.90), "us", writes,
             per_slice);
    r.metric("cpu_us_per_op", o.cpu_us_per_op(), "us", reads + writes,
             "process CPU / " + op_what + ", " + per_slice);
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Tracing overhead: 1 - traced ops_per_s / untraced ops_per_s.
inline void add_overhead_metric(Result& r, const LoopOut& untraced,
                                const LoopOut& traced) {
    const double ref = untraced.ops_per_s();
    r.metric("tracing.overhead_share", (ref - traced.ops_per_s()) / ref,
             "share", 0, "1 - traced ops_per_s / untraced ops_per_s");
}

}  // namespace perfbench
