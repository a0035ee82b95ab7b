// lockd: the lock service end to end. An in-process LockServiceDaemon owns
// the table in POSIX shm; a DistClient HELLOs over the loopback TCP control
// channel and attaches the segment; 1024 sessions replay their OpStream for
// the workload seed through NativeTable, spread over at most nproc workers.
// Closed loop: a worker takes one session at a time and runs a batch of its
// acquire->release ops back to back, then moves to its next session.
//
// Oracle: zero witness violations, the daemon's STATS tickets_issued equals
// the client's writer acquisitions, and the table is quiesced at the end. A
// worker stuck in a NativeTable call (no op completes for kStallSeconds)
// is a failed op; the run then ends without the end-of-run STATS.
#include <sys/mman.h>

#include <memory>
#include <thread>
#include <vector>

#include "dist/loopback.hpp"
#include "dist/native_table.hpp"
#include "dist/verbs.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rwr::dist::DistClient;
using rwr::dist::LockServiceDaemon;
using rwr::dist::NativeTable;
using rwr::dist::OpStream;

constexpr std::uint32_t kReaderPct = 90;
constexpr std::uint32_t kBatch = 16;  ///< Ops per session visit.
/// Set-up is repeated this many times per run (median reported); the last
/// set-up is the one measured.
constexpr int kSetups = 15;

struct RunOut {
    LoopOut loop;
    std::vector<LoopbackTimes> loopback;
    std::uint64_t all_ops = 0;
    std::uint64_t all_writes = 0;
    std::uint64_t net_rmrs = 0;
    std::uint64_t violations = 0;
    unsigned workers = 0;
    bool fresh_ok = true;
    rwr::dist::CtrlReply end_stats;
};

class Run {
   public:
    Run(std::uint64_t seed, bool traced, int slices)
        : seed_(seed),
          traced_(traced),
          cfg_(lockd_table_config()),
          workers_(std::min(host_threads(), 4u)) {
        for (unsigned w = 0; w < workers_; ++w) {
            outs_.emplace_back(slices, 16);
        }
    }

    /// Starts the service, connects, builds the client's table and starts
    /// the workers; returns the time up to the workers' start in seconds.
    double setup(LoopbackTimes& lt) {
        const std::int64_t t0 = now_ns();
        daemon_ = std::make_unique<LockServiceDaemon>(cfg_);
        daemon_->start();
        const std::int64_t t1 = now_ns();
        client_.connect("127.0.0.1", daemon_->port());
        const std::int64_t t2 = now_ns();
        const rwr::dist::CtrlReply st = client_.stats();
        const std::int64_t t3 = now_ns();
        fresh_ok_ = st.ok == 1 && st.tickets_issued == 0 &&
                    client_.config().sessions == cfg_.sessions &&
                    client_.config().shards == cfg_.shards &&
                    client_.config().locks_per_shard == cfg_.locks_per_shard;
        spots_ = std::make_unique<rwr::native::ParkingSpot[]>(cfg_.sessions);
        table_ = std::make_unique<NativeTable>(client_.words(),
                                               client_.config(), spots_.get());
        sessions_ = std::vector<NativeTable::Session>(cfg_.sessions);
        streams_.clear();
        for (std::uint32_t s = 0; s < cfg_.sessions; ++s) {
            sessions_[s].id = s;
            streams_.emplace_back(seed_, s);
        }
        const std::int64_t t4 = now_ns();
        std::vector<std::function<void()>> bodies;
        for (unsigned w = 0; w < workers_; ++w) {
            bodies.emplace_back([this, w] { worker(w); });
        }
        loop_.start(std::move(bodies));
        lt.daemon_start_ms = static_cast<double>(t1 - t0) / 1e6;
        lt.connect_ms = static_cast<double>(t2 - t1) / 1e6;
        lt.stats_ms = static_cast<double>(t3 - t2) / 1e6;
        return static_cast<double>(t4 - t0) / 1e9;
    }

    /// Runs the timed window; false if the workers got stuck, in which
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
        if (stalled) {
            // The stuck workers keep the daemon alive; drop the segment's
            // name so the abandoned run leaves nothing behind.
            ::shm_unlink(daemon_->shm_name().c_str());
        } else {
            loop_.stop();
        }
        out.loop.merge(outs_, std::move(w));
        out.workers = workers_;
        for (const NativeTable::Session& s : sessions_) {
            out.all_ops += s.stats.total_ops();
            out.all_writes += s.stats.write_ops;
            out.net_rmrs += s.stats.network_rmrs;
            out.violations += s.stats.violations;
        }
        out.violations += table_->witness_violations();
        if (!stalled) {
            out.end_stats = teardown();
        }
        return !stalled;
    }

    [[nodiscard]] bool fresh_ok() const { return fresh_ok_; }

    ~Run() { teardown(); }
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

   private:
    /// Stops the workers and the service; returns the end-of-run STATS.
    rwr::dist::CtrlReply teardown() {
        loop_.stop();
        rwr::dist::CtrlReply st{};
        if (client_.connected()) {
            st = client_.stats();
            client_.shutdown_server();
            client_.close();
        }
        if (daemon_) {
            daemon_->stop();
            daemon_.reset();
        }
        return st;
    }

    void worker(unsigned w) {
        ThreadOut& o = outs_[w];
        const std::uint32_t num_locks = cfg_.num_locks();
        for (;;) {
            for (std::uint32_t sid = w; sid < cfg_.sessions; sid += workers_) {
                const int phase = loop_.phase();
                if (phase == kStop) {
                    return;
                }
                NativeTable::Session& s = sessions_[sid];
                OpStream& stream = streams_[sid];
                const bool sample = traced_ && phase >= kTimed &&
                                    o.spans.sample_next(1 + 2 * kBatch);
                const std::uint64_t id =
                    (static_cast<std::uint64_t>(sid) << 32) |
                    s.stats.total_ops();
                const std::int64_t b0 = now_ns();
                std::int32_t root = -1;
                if (sample) {
                    root = o.spans.add("session_batch", id, b0, b0);
                }
                for (std::uint32_t k = 0; k < kBatch; ++k) {
                    const OpStream::LoadOp op =
                        stream.next_op(num_locks, kReaderPct);
                    const std::int64_t t0 = now_ns();
                    std::int64_t t1 = 0;
                    if (op.reader) {
                        table_->reader_acquire(s, op.lock_index);
                        if (traced_) {
                            t1 = now_ns();
                        }
                        table_->reader_release(s, op.lock_index);
                        ++s.stats.read_ops;
                    } else {
                        const std::uint64_t ticket =
                            table_->writer_acquire(s, op.lock_index);
                        if (traced_) {
                            t1 = now_ns();
                        }
                        table_->writer_release(s, op.lock_index, ticket);
                        ++s.stats.write_ops;
                    }
                    const std::int64_t t2 = now_ns();
                    o.record(op.reader, phase, t2 - t0);
                    if (!traced_ || phase < kTimed) {
                        continue;
                    }
                    (op.reader ? o.read_enter : o.write_enter)
                        .record(static_cast<std::uint64_t>(t1 - t0));
                    (op.reader ? o.read_leave : o.write_leave)
                        .record(static_cast<std::uint64_t>(t2 - t1));
                    if (sample) {
                        o.spans.add(op.reader ? "native_table.reader_acquire"
                                              : "native_table.writer_acquire",
                                    id, t0, t1, root);
                        o.spans.add(op.reader ? "native_table.reader_release"
                                              : "native_table.writer_release",
                                    id, t1, t2, root);
                    }
                }
                o.tick();
                if (phase >= kTimed) {
                    const std::int64_t b1 = now_ns();
                    o.busy_ns += b1 - b0;
                    if (sample) {
                        o.spans.set_end(root, b1);
                    }
                }
            }
        }
    }

    std::uint64_t seed_;
    bool traced_;
    rwr::dist::TableConfig cfg_;
    unsigned workers_;
    std::unique_ptr<LockServiceDaemon> daemon_;
    DistClient client_;
    bool fresh_ok_ = false;
    std::unique_ptr<rwr::native::ParkingSpot[]> spots_;
    std::unique_ptr<NativeTable> table_;
    std::vector<NativeTable::Session> sessions_;
    std::vector<OpStream> streams_;
    std::deque<ThreadOut> outs_;  ///< Not movable: threads hold addresses.
    ClosedLoop loop_;             ///< Last: its threads use the above.
};

RunOut measure(std::uint64_t seed, double seconds, bool traced) {
    const int slices = slice_count(seconds);
    RunOut out;
    for (int i = 0; i + 1 < kSetups; ++i) {
        Run r(seed, traced, slices);
        LoopbackTimes lt;
        out.loop.setup_s.push_back(r.setup(lt));
        out.loopback.push_back(lt);
        out.fresh_ok = out.fresh_ok && r.fresh_ok();
    }
    auto r = std::make_unique<Run>(seed, traced, slices);
    LoopbackTimes lt;
    out.loop.setup_s.push_back(r->setup(lt));
    out.loopback.push_back(lt);
    out.fresh_ok = out.fresh_ok && r->fresh_ok();
    if (!r->go(seconds, out)) {
        (void)r.release();
    }
    return out;
}

void check(Result& res, const RunOut& o) {
    check_loop(res, o.loop, "op");
    if (!o.fresh_ok) {
        res.fail(1, "HELLO geometry or fresh-table STATS mismatch");
    }
    if (o.violations != 0) {
        res.fail(o.violations, "witness violations: " +
                                   std::to_string(o.violations));
    }
    if (o.loop.window.stalled) {
        return;  // No end-of-run STATS from a stuck service.
    }
    const rwr::dist::CtrlReply& st = o.end_stats;
    if (st.ok != 1 || st.tickets_issued != o.all_writes) {
        res.fail(1, "daemon tickets_issued " +
                        std::to_string(st.tickets_issued) +
                        " != client writer acquisitions " +
                        std::to_string(o.all_writes));
    }
    if (st.witness_nonzero != 0 || st.readers_active != 0) {
        res.fail(1, "table not quiesced at the end of the run");
    }
}

}  // namespace

Result run_lockd(const Options& opt) {
    Result res;
    if (!opt.trace) {
        const RunOut o = measure(opt.seed, opt.seconds, false);
        check(res, o);
        add_loop_metrics(
            res, o.loop, "daemon + shm + HELLO + attach + STATS + table",
            "ops (" + std::to_string(o.workers) + " workers, 1024 sessions)");
        return res;
    }

    const RunOut ref = measure(opt.seed, opt.seconds / 2, false);
    check(res, ref);
    if (res.stuck) {
        return res;
    }
    const RunOut o = measure(opt.seed, opt.seconds / 2, true);
    check(res, o);
    const LoopOut& l = o.loop;
    add_overhead_metric(res, ref.loop, l);
    res.metric("native_table.read_acquire_ns", l.read_enter.quantile(0.5),
               "ns", l.read_enter.count(), "span p50");
    res.metric("native_table.read_release_ns", l.read_leave.quantile(0.5),
               "ns", l.read_leave.count(), "span p50");
    res.metric("native_table.write_acquire_ns", l.write_enter.quantile(0.5),
               "ns", l.write_enter.count(), "span p50");
    res.metric("native_table.write_release_ns", l.write_leave.quantile(0.5),
               "ns", l.write_leave.count(), "span p50");
    res.metric("native_table.net_rmrs_per_op",
               static_cast<double>(o.net_rmrs) /
                   static_cast<double>(o.all_ops),
               "count", o.all_ops, "SessionStats::network_rmrs / ops");
    res.metric("harness.pool_idle_share", 1.0 - l.busy_share, "share", 0,
               "1 - sum of session-batch spans / (workers x wall)");
    std::vector<double> start, connect, stats;
    for (const LoopbackTimes& t : o.loopback) {
        start.push_back(t.daemon_start_ms);
        connect.push_back(t.connect_ms);
        stats.push_back(t.stats_ms);
    }
    res.metric("loopback.daemon_start_ms", median(start), "ms", start.size(),
               "set-up span, median");
    res.metric("loopback.connect_ms", median(connect), "ms", connect.size(),
               "set-up span (HELLO + attach), median");
    res.metric("loopback.stats_ms", median(stats), "ms", stats.size(),
               "set-up STATS round trip, median");

    // The service runs no AfLock: those layers come from solo probes at the
    // af-read shape.
    add_native_layer_metrics(res, LockShape{1024, 1, 4}, true);
    add_sim_probe_metrics(res);
    res.spans = l.spans;
    return res;
}

}  // namespace perfbench
