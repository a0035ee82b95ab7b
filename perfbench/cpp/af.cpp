// af-read and af-write: the native AfLock used from both ends of the paper's
// trade-off. Closed loops: each thread issues its next passage when the
// previous one returns (the paced role waits for its next due time first).
//
// Oracle: writers update a versioned record inside the critical section
// (odd version while writing, then payload, checksum, even version) and
// readers verify it; a torn or stale record is a failed passage.
#include <sys/prctl.h>

#include <memory>
#include <thread>
#include <vector>

#include "native/af_lock.hpp"
#include "native/spin.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rwr::native::AfLock;
using rwr::native::LockTelemetry;
using rwr::native::TelemetryCounter;

struct AfWorkload {
    LockShape shape;
    std::vector<std::uint32_t> reader_ids;
    std::uint32_t writers = 1;
    std::chrono::microseconds reader_period{0};  ///< 0: back-to-back.
    std::chrono::microseconds writer_period{0};
    bool spin_pace = false;  ///< Paced role waits busy instead of sleeping.
};

AfWorkload af_read() {
    // f=4 over n=1024: K=256, 8 tree levels. One reader per group so the
    // readers do not share f-array nodes.
    return {{1024, 1, 4}, {0, 256, 512}, 1, std::chrono::microseconds{0},
            std::chrono::microseconds{100}};
}

AfWorkload af_write() {
    // f=256 over n=1024: K=4, every writer passage does the 256-group
    // handshake and a solo walk of the two-level WL (m=3). One writer:
    // with writers contending on WL, waits sit at the length where the
    // wait ladder moves from yielding to parking, and the host's spells
    // flipped the runs between two modes (writer p50 25 vs 60 us, 43k vs
    // 57k passages/s at f=1024). The reader waits busy between passages,
    // because a sleeping thread's wake-ups on an idle virtual processor
    // flipped the runs the same way (reader p99 2 vs 10 us).
    return {{1024, 3, 256}, {0}, 1, std::chrono::microseconds{50},
            std::chrono::microseconds{0}, true};
}

constexpr int kPayload = 4;

std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// The record the critical sections guard (one line, seq_cst fields).
struct alignas(64) Record {
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::uint64_t> payload[kPayload] = {};
    std::atomic<std::uint64_t> check{0};

    static std::uint64_t word(std::uint64_t version, int i) {
        return mix(version * kPayload + static_cast<std::uint64_t>(i));
    }
    static std::uint64_t checksum(std::uint64_t version,
                                  const std::uint64_t* p) {
        std::uint64_t c = mix(version);
        for (int i = 0; i < kPayload; ++i) {
            c ^= mix(p[i] + static_cast<std::uint64_t>(i));
        }
        return c;
    }

    Record() {
        std::uint64_t p[kPayload];
        for (int i = 0; i < kPayload; ++i) {
            p[i] = word(0, i);
            payload[i].store(p[i]);
        }
        check.store(checksum(0, p));
    }

    /// Writer critical section; false if another writer was mid-write.
    bool write() {
        const std::uint64_t v = version.load();
        if ((v & 1) != 0) {
            return false;
        }
        version.store(v + 1);
        std::uint64_t p[kPayload];
        for (int i = 0; i < kPayload; ++i) {
            p[i] = word(v + 2, i);
            payload[i].store(p[i]);
        }
        check.store(checksum(v + 2, p));
        version.store(v + 2);
        return true;
    }

    /// Reader critical section; false on a torn or stale record.
    bool verify(std::uint64_t& last_seen) const {
        const std::uint64_t v1 = version.load();
        std::uint64_t p[kPayload];
        bool ok = true;
        for (int i = 0; i < kPayload; ++i) {
            p[i] = payload[i].load();
            ok = ok && p[i] == word(v1, i);
        }
        const std::uint64_t c = check.load();
        const std::uint64_t v2 = version.load();
        ok = ok && v1 == v2 && (v1 & 1) == 0 && v1 >= last_seen &&
             c == checksum(v1, p);
        last_seen = v1;
        return ok;
    }
};

struct RunOut {
    LoopOut loop;
    rwr::native::TelemetrySnapshot tel;
};

class Run {
   public:
    Run(const AfWorkload& w, bool traced, int slices)
        : w_(w), traced_(traced) {
        const std::size_t threads = w_.reader_ids.size() + w_.writers;
        for (std::size_t i = 0; i < threads; ++i) {
            outs_.emplace_back(slices, 64);
        }
    }

    /// Builds the lock and starts every thread up to its first passage;
    /// returns the lock's construction time in seconds (the start of the
    /// benchmark's own threads is left out). `go()` follows, or
    /// destruction.
    double setup() {
        const std::int64_t t0 = now_ns();
        lock_ = std::make_unique<AfLock>(w_.shape.n, w_.shape.m, w_.shape.f);
        if (traced_) {
            tel_ = std::make_unique<LockTelemetry>();
            lock_->attach_telemetry(tel_.get());
        }
        const std::int64_t t1 = now_ns();
        std::vector<std::function<void()>> bodies;
        for (std::size_t i = 0; i < w_.reader_ids.size(); ++i) {
            bodies.emplace_back([this, i] { reader(i); });
        }
        for (std::uint32_t j = 0; j < w_.writers; ++j) {
            bodies.emplace_back([this, j] { writer(j); });
        }
        loop_.start(std::move(bodies));
        return static_cast<double>(t1 - t0) / 1e9;
    }

    /// Runs the timed window; false if the threads got stuck, in which
    /// case the Run must be leaked (its threads still use it).
    bool go(double seconds, RunOut& out) {
        auto progress = [this] {
            std::uint64_t p = 0;
            for (const ThreadOut& o : outs_) {
                p += o.progress.load(std::memory_order_relaxed);
            }
            return p;
        };
        Window w = loop_.go(seconds, progress);
        const bool stalled = w.stalled;
        if (!stalled) {
            loop_.stop();
        }
        out.loop.merge(outs_, std::move(w));
        if (tel_) {
            out.tel = tel_->aggregate();
        }
        return !stalled;
    }

   private:
    /// Waits for the paced thread's next due time. Due times advance by a
    /// fixed period, so a late wake-up (sleep overshoot on a virtual
    /// machine is tens of microseconds) is made up by the next ones and the
    /// average rate stays at one passage per period. The rate sets how
    /// often the other role is blocked, which sits near the tail
    /// percentiles. A thread that falls more than 10 periods behind starts
    /// afresh instead of bursting.
    static void pace(std::chrono::microseconds period, bool spin,
                     Clock::time_point& due) {
        if (period.count() == 0) {
            return;
        }
        due += period;
        const auto now = Clock::now();
        if (now - due > 10 * period) {
            due = now;
        }
        if (spin) {
            while (Clock::now() < due) {
                rwr::native::cpu_relax();
            }
        } else {
            std::this_thread::sleep_until(due);
        }
    }

    template <class Enter, class Cs, class Leave>
    void loop(ThreadOut& o, bool reader, std::uint64_t tid,
              std::chrono::microseconds period, const char* enter_name,
              const char* leave_name, Enter&& enter, Cs&& cs,
              Leave&& leave) {
        if (period.count() != 0) {
            prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us sleep slack.
        }
        auto due = Clock::now();
        for (;;) {
            const int phase = loop_.phase();
            if (phase == kStop) {
                break;
            }
            const std::int64_t t0 = now_ns();
            enter();
            std::int64_t t1 = 0;
            std::int64_t t2 = 0;
            if (traced_) {
                t1 = now_ns();
            }
            if (!cs()) {
                ++o.failed;
            }
            if (traced_) {
                t2 = now_ns();
            }
            leave();
            const std::int64_t t3 = now_ns();
            o.record(reader, phase, t3 - t0);
            if (phase >= kTimed) {
                o.busy_ns += t3 - t0;
                if (traced_) {
                    (reader ? o.read_enter : o.write_enter)
                        .record(static_cast<std::uint64_t>(t1 - t0));
                    (reader ? o.read_leave : o.write_leave)
                        .record(static_cast<std::uint64_t>(t3 - t2));
                    if (o.spans.sample_next(4)) {
                        const std::uint64_t id = (tid << 40) | o.attempted;
                        const auto root = o.spans.add("passage", id, t0, t3);
                        o.spans.add(enter_name, id, t0, t1, root);
                        o.spans.add("critical_section", id, t1, t2, root);
                        o.spans.add(leave_name, id, t2, t3, root);
                    }
                }
            }
            o.tick();
            pace(period, w_.spin_pace, due);
        }
    }

    void reader(std::size_t i) {
        const std::uint32_t id = w_.reader_ids[i];
        std::uint64_t last = 0;
        loop(
            outs_[i], true, i, w_.reader_period, "af_lock.lock_shared",
            "af_lock.unlock_shared", [&] { lock_->lock_shared(id); },
            [&] { return record_.verify(last); },
            [&] { lock_->unlock_shared(id); });
    }

    void writer(std::uint32_t j) {
        const std::size_t i = w_.reader_ids.size() + j;
        loop(
            outs_[i], false, i, w_.writer_period, "af_lock.lock",
            "af_lock.unlock", [&] { lock_->lock(j); },
            [&] { return record_.write(); }, [&] { lock_->unlock(j); });
    }

    AfWorkload w_;
    bool traced_;
    std::unique_ptr<LockTelemetry> tel_;
    std::unique_ptr<AfLock> lock_;
    Record record_;
    std::deque<ThreadOut> outs_;  ///< Not movable: threads hold addresses.
    ClosedLoop loop_;             ///< Last: its threads use the above.
};

/// Set-up is timed this many times per run (median reported): bare lock
/// constructions back to back, then the one the run uses. Nothing else is
/// allocated or started in between, so the figure is the constructor's.
constexpr int kSetups = 101;

RunOut measure(const AfWorkload& w, double seconds, bool traced) {
    const int slices = slice_count(seconds);
    RunOut out;
    for (int i = 0; i + 1 < kSetups; ++i) {
        const std::int64_t t0 = now_ns();
        const auto lock =
            std::make_unique<AfLock>(w.shape.n, w.shape.m, w.shape.f);
        out.loop.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    auto r = std::make_unique<Run>(w, traced, slices);
    out.loop.setup_s.push_back(r->setup());
    if (!r->go(seconds, out)) {
        (void)r.release();
    }
    return out;
}

}  // namespace

Result run_af(const Options& opt, bool read_heavy) {
    const AfWorkload w = read_heavy ? af_read() : af_write();
    Result res;
    if (!opt.trace) {
        const RunOut o = measure(w, opt.seconds, false);
        check_loop(res, o.loop, "passage");
        add_loop_metrics(res, o.loop, "lock construction",
                         "passages");
        return res;
    }

    // Traced run: an untraced half for reference, then the traced half with
    // telemetry attached and spans recorded.
    const RunOut ref = measure(w, opt.seconds / 2, false);
    check_loop(res, ref.loop, "passage");
    if (res.stuck) {
        return res;
    }
    const RunOut o = measure(w, opt.seconds / 2, true);
    check_loop(res, o.loop, "passage");
    const LoopOut& l = o.loop;
    add_overhead_metric(res, ref.loop, l);
    res.metric("af_lock.read_entry_ns", l.read_enter.quantile(0.5), "ns",
               l.read_enter.count(), "lock_shared span p50");
    res.metric("af_lock.read_exit_ns", l.read_leave.quantile(0.5), "ns",
               l.read_leave.count(), "unlock_shared span p50");
    res.metric("af_lock.write_entry_us", l.write_enter.quantile(0.5) / 1e3,
               "us", l.write_enter.count(), "lock span p50");
    res.metric("af_lock.write_exit_us", l.write_leave.quantile(0.5) / 1e3,
               "us", l.write_leave.count(), "unlock span p50");
    const auto& t = o.tel;
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    const std::uint64_t all = l.attempted;
    res.metric("mutex.contended_per_op",
               ratio(t.count(TelemetryCounter::kMutexContended),
                     t.count(TelemetryCounter::kMutexAcquire)),
               "count", t.count(TelemetryCounter::kMutexAcquire), "telemetry");
    res.metric("af_lock.writer_contended_per_op",
               ratio(t.count(TelemetryCounter::kWriterContended),
                     t.count(TelemetryCounter::kWriterAcquire)),
               "count", t.count(TelemetryCounter::kWriterAcquire), "telemetry");
    res.metric("af_lock.reader_contended_per_op",
               ratio(t.count(TelemetryCounter::kReaderContended),
                     t.count(TelemetryCounter::kReaderAcquire)),
               "count", t.count(TelemetryCounter::kReaderAcquire), "telemetry");
    res.metric("park.futex_waits_per_op",
               ratio(t.count(TelemetryCounter::kFutexWait), all), "count", all,
               "telemetry, per passage");
    res.metric("park.futex_wakes_per_op",
               ratio(t.count(TelemetryCounter::kFutexWake), all), "count", all,
               "telemetry, per passage");
    res.metric("harness.pool_idle_share", 1.0 - l.busy_share, "share", 0,
               "1 - sum of passage spans / (threads x wall)");

    add_native_layer_metrics(res, w.shape, false);
    add_table_probe_metrics(res, opt.seed);
    add_loopback_probe_metrics(res, lockd_table_config());
    add_sim_probe_metrics(res);
    res.spans = l.spans;
    return res;
}

}  // namespace perfbench
