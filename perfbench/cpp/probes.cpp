#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "dist/loopback.hpp"
#include "dist/native_table.hpp"
#include "dist/verbs.hpp"
#include "native/af_lock.hpp"
#include "native/counter.hpp"
#include "native/mutex.hpp"
#include "native/park.hpp"

namespace perfbench {

namespace {

using rwr::native::AfLock;
using rwr::native::LockTelemetry;
using rwr::native::TelemetryCounter;

/// Median ns per call of `fn` over 7 batches of about 5 ms each.
template <class Fn>
double time_per_call_ns(Fn&& fn) {
    fn();
    std::uint64_t iters = 1;
    for (;;) {
        const std::int64_t t0 = now_ns();
        for (std::uint64_t i = 0; i < iters; ++i) {
            fn();
        }
        if (now_ns() - t0 >= 1'000'000 || iters >= (1ull << 30)) {
            break;
        }
        iters *= 2;
    }
    iters = iters * 5;
    std::vector<double> per_call;
    for (int b = 0; b < 7; ++b) {
        const std::int64_t t0 = now_ns();
        for (std::uint64_t i = 0; i < iters; ++i) {
            fn();
        }
        per_call.push_back(static_cast<double>(now_ns() - t0) /
                           static_cast<double>(iters));
    }
    return median(per_call);
}

/// Solo AfLock passages: whole passages timed in batches, entry and exit
/// timed per call (clock reads included).
struct SoloPassages {
    double reader_passage_ns = 0;
    double reader_entry_ns = 0;
    double reader_exit_ns = 0;
    double writer_passage_ns = 0;
    double writer_entry_ns = 0;
    double writer_exit_ns = 0;
};

double counter_add_ns(std::uint32_t k) {
    rwr::native::FArrayCounter c(k);
    // One passage's pair of adds (+1 then -1) on slot 0, as a reader does.
    return time_per_call_ns([&] {
               c.add(0, +1);
               c.add(0, -1);
           }) /
           2.0;
}

double counter_read_ns(std::uint32_t k) {
    rwr::native::FArrayCounter c(k);
    volatile std::int64_t sink = 0;  // Keeps every read observable.
    return time_per_call_ns([&] { sink = c.read(); });
}

double mutex_passage_ns(std::uint32_t m) {
    rwr::native::TournamentMutex mu(m);
    return time_per_call_ns([&] {
        mu.lock(0);
        mu.unlock(0);
    });
}

double writer_passage_ns(const LockShape& s) {
    AfLock lock(s.n, s.m, s.f);
    return time_per_call_ns([&] {
        lock.lock(0);
        lock.unlock(0);
    });
}

/// Median per-call split of `passes` passages: entry and exit spans.
template <class Entry, class Exit>
std::pair<double, double> split_ns(int passes, Entry&& entry, Exit&& exit) {
    std::vector<double> in;
    std::vector<double> out;
    in.reserve(static_cast<std::size_t>(passes));
    out.reserve(static_cast<std::size_t>(passes));
    for (int i = 0; i < passes; ++i) {
        const std::int64_t t0 = now_ns();
        entry();
        const std::int64_t t1 = now_ns();
        exit();
        const std::int64_t t2 = now_ns();
        in.push_back(static_cast<double>(t1 - t0));
        out.push_back(static_cast<double>(t2 - t1));
    }
    return {median(in), median(out)};
}

/// Time from wake_all() on this thread until a thread parked in
/// ParkingSpot::park() reports back, median over `rounds`.
double park_roundtrip_us(int rounds) {
    rwr::native::ParkingSpot spot;
    std::atomic<int> state{0};
    std::atomic<int> go{0};
    std::atomic<int> ack{0};
    std::thread parked([&] {
        for (int i = 1; i <= rounds; ++i) {
            while (go.load() != i) {
            }
            rwr::native::Deadline dl = rwr::native::Deadline::infinite();
            while (state.load() != i) {
                spot.park(dl, nullptr, [&] { return state.load() == i; });
            }
            ack.store(i);
        }
    });
    std::vector<double> us;
    for (int i = 1; i <= rounds; ++i) {
        go.store(i);
        while (spot.waiters() == 0) {
        }
        // Let the waiter get into the kernel wait before waking it.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        const std::int64_t t0 = now_ns();
        state.store(i);
        spot.wake_all(nullptr);
        while (ack.load() != i) {
        }
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    parked.join();
    return median(us);
}

SoloPassages probe_solo_af(const LockShape& s) {
    SoloPassages p;
    AfLock lock(s.n, s.m, s.f);
    p.reader_passage_ns = time_per_call_ns([&] {
        lock.lock_shared(0);
        lock.unlock_shared(0);
    });
    p.writer_passage_ns = time_per_call_ns([&] {
        lock.lock(0);
        lock.unlock(0);
    });
    std::tie(p.reader_entry_ns, p.reader_exit_ns) =
        split_ns(20000, [&] { lock.lock_shared(0); },
                 [&] { lock.unlock_shared(0); });
    std::tie(p.writer_entry_ns, p.writer_exit_ns) = split_ns(
        2000, [&] { lock.lock(0); }, [&] { lock.unlock(0); });
    return p;
}

/// One daemon start / connect / STATS / shutdown cycle.
LoopbackTimes probe_loopback_once(const rwr::dist::TableConfig& cfg) {
    LoopbackTimes t;
    const std::int64_t t0 = now_ns();
    rwr::dist::LockServiceDaemon daemon(cfg);
    daemon.start();
    const std::int64_t t1 = now_ns();
    rwr::dist::DistClient client;
    client.connect("127.0.0.1", daemon.port());
    const std::int64_t t2 = now_ns();
    const rwr::dist::CtrlReply st = client.stats();
    const std::int64_t t3 = now_ns();
    (void)st;
    client.shutdown_server();
    client.close();
    daemon.stop();
    t.daemon_start_ms = static_cast<double>(t1 - t0) / 1e6;
    t.connect_ms = static_cast<double>(t2 - t1) / 1e6;
    t.stats_ms = static_cast<double>(t3 - t2) / 1e6;
    return t;
}

}  // namespace

void add_native_layer_metrics(Result& r, const LockShape& s,
                              bool with_af_spans) {
    const double add_ns = counter_add_ns(s.k());
    const double read_ns = counter_read_ns(s.k());
    const double mutex3_ns = mutex_passage_ns(3);
    const double wl_ns = s.m == 3 ? mutex3_ns : mutex_passage_ns(s.m);
    const SoloPassages solo = probe_solo_af(s);
    const std::string at = "solo, n=" + std::to_string(s.n) +
                           " m=" + std::to_string(s.m) +
                           " f=" + std::to_string(s.f);

    r.metric("counter.add_ns", add_ns, "ns", 0,
             "solo FArrayCounter::add at K=" + std::to_string(s.k()));
    r.metric("counter.read_ns", read_ns, "ns", 0,
             "solo FArrayCounter::read at K=" + std::to_string(s.k()));
    r.metric("mutex.passage_ns", mutex3_ns, "ns", 0,
             "solo TournamentMutex lock+unlock at m=3");
    const double f = s.f;
    r.metric("af_lock.handshake_ns_per_group",
             (solo.writer_passage_ns - wl_ns) / f, "ns", 0,
             "(solo writer passage - WL passage at m=" + std::to_string(s.m) +
                 ") / f, " + at);
    r.metric("park.roundtrip_us", park_roundtrip_us(300), "us", 300,
             "park on one thread -> wake_all on another, timed by the waker");

    // Reader add-up: a passage is two f-array adds plus the rest.
    const double reader_res =
        residual_share(solo.reader_passage_ns, {2.0 * add_ns});
    r.metric("addup.reader_residual_share", reader_res, "share", 0,
             "(solo reader passage " + std::to_string(solo.reader_passage_ns) +
                 " ns - 2 x counter.add_ns) / passage, " + at);
    // Writer add-up: WL passage + f x per-group handshake cost, the latter
    // taken from the slope between two group counts so the check is not
    // true by construction.
    const std::uint32_t f_lo = std::max<std::uint32_t>(1, s.f / 16);
    double slope = 0;
    if (f_lo < s.f) {
        const double w_lo = writer_passage_ns({s.n, s.m, f_lo});
        slope = (solo.writer_passage_ns - w_lo) / (f - f_lo);
    }
    r.metric("addup.writer_residual_share",
             residual_share(solo.writer_passage_ns, {wl_ns, f * slope}),
             "share", 0,
             "(solo writer passage - WL - f x slope(f=" +
                 std::to_string(f_lo) + ".." + std::to_string(s.f) +
                 ")) / passage, " + at);

    if (with_af_spans) {
        r.metric("af_lock.read_entry_ns", solo.reader_entry_ns, "ns", 20000,
                 "lock_shared span, " + at);
        r.metric("af_lock.read_exit_ns", solo.reader_exit_ns, "ns", 20000,
                 "unlock_shared span, " + at);
        r.metric("af_lock.write_entry_us", solo.writer_entry_ns / 1e3, "us",
                 2000, "lock span, " + at);
        r.metric("af_lock.write_exit_us", solo.writer_exit_ns / 1e3, "us",
                 2000, "unlock span, " + at);
        // Contention and parking counters of solo passages, with telemetry.
        LockTelemetry tel;
        AfLock lock(s.n, s.m, s.f);
        lock.attach_telemetry(&tel);
        for (int i = 0; i < 1000; ++i) {
            lock.lock_shared(0);
            lock.unlock_shared(0);
            lock.lock(0);
            lock.unlock(0);
        }
        const auto snap = tel.aggregate();
        auto per = [&](TelemetryCounter c, TelemetryCounter base) {
            const auto b = snap.count(base);
            return b == 0 ? 0.0
                          : static_cast<double>(snap.count(c)) /
                                static_cast<double>(b);
        };
        r.metric("mutex.contended_per_op",
                 per(TelemetryCounter::kMutexContended,
                     TelemetryCounter::kMutexAcquire),
                 "count", snap.count(TelemetryCounter::kMutexAcquire),
                 "telemetry, 1000 solo passages per role, " + at);
        r.metric("af_lock.writer_contended_per_op",
                 per(TelemetryCounter::kWriterContended,
                     TelemetryCounter::kWriterAcquire),
                 "count", 1000, "telemetry, solo, " + at);
        r.metric("af_lock.reader_contended_per_op",
                 per(TelemetryCounter::kReaderContended,
                     TelemetryCounter::kReaderAcquire),
                 "count", 1000, "telemetry, solo, " + at);
        r.metric("park.futex_waits_per_op",
                 static_cast<double>(snap.count(TelemetryCounter::kFutexWait)) /
                     2000.0,
                 "count", 2000, "telemetry, solo, " + at);
        r.metric("park.futex_wakes_per_op",
                 static_cast<double>(snap.count(TelemetryCounter::kFutexWake)) /
                     2000.0,
                 "count", 2000, "telemetry, solo, " + at);
    }
}

void add_table_probe_metrics(Result& r, std::uint64_t seed) {
    rwr::dist::TableConfig cfg = lockd_table_config();
    cfg.sessions = 4;
    const rwr::dist::TableLayout lay(cfg);
    auto words =
        std::make_unique<std::atomic<rwr::Word>[]>(lay.total_words());
    auto spots = std::make_unique<rwr::native::ParkingSpot[]>(cfg.sessions);
    rwr::dist::NativeTable table(words.get(), cfg, spots.get());
    rwr::dist::NativeTable::Session s;
    rwr::dist::OpStream stream(seed, 0);
    std::vector<double> ra, rr, wa, wr;
    constexpr int kOps = 20000;
    for (int i = 0; i < kOps; ++i) {
        const auto op = stream.next_op(cfg.num_locks(), 90);
        const std::int64_t t0 = now_ns();
        if (op.reader) {
            table.reader_acquire(s, op.lock_index);
            const std::int64_t t1 = now_ns();
            table.reader_release(s, op.lock_index);
            const std::int64_t t2 = now_ns();
            ra.push_back(static_cast<double>(t1 - t0));
            rr.push_back(static_cast<double>(t2 - t1));
        } else {
            const std::uint64_t ticket =
                table.writer_acquire(s, op.lock_index);
            const std::int64_t t1 = now_ns();
            table.writer_release(s, op.lock_index, ticket);
            const std::int64_t t2 = now_ns();
            wa.push_back(static_cast<double>(t1 - t0));
            wr.push_back(static_cast<double>(t2 - t1));
        }
    }
    const std::string d = "solo session on an in-process table, p50";
    r.metric("native_table.read_acquire_ns", median(ra), "ns", ra.size(), d);
    r.metric("native_table.read_release_ns", median(rr), "ns", rr.size(), d);
    r.metric("native_table.write_acquire_ns", median(wa), "ns", wa.size(), d);
    r.metric("native_table.write_release_ns", median(wr), "ns", wr.size(), d);
    r.metric("native_table.net_rmrs_per_op",
             static_cast<double>(s.stats.network_rmrs) / kOps, "count", kOps,
             d);
}

rwr::dist::TableConfig lockd_table_config() {
    rwr::dist::TableConfig cfg;
    cfg.shards = 8;
    cfg.locks_per_shard = 4;
    cfg.sessions = 1024;
    cfg.homed = true;
    return cfg;
}

void add_loopback_probe_metrics(Result& r, const rwr::dist::TableConfig& cfg) {
    std::vector<double> start, connect, stats;
    for (int i = 0; i < 5; ++i) {
        const LoopbackTimes t = probe_loopback_once(cfg);
        start.push_back(t.daemon_start_ms);
        connect.push_back(t.connect_ms);
        stats.push_back(t.stats_ms);
    }
    const std::string d = "daemon probe, median of 5";
    r.metric("loopback.daemon_start_ms", median(start), "ms", 5, d);
    r.metric("loopback.connect_ms", median(connect), "ms", 5, d);
    r.metric("loopback.stats_ms", median(stats), "ms", 5, d);
}

}  // namespace perfbench
