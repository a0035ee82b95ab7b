// Native loopback backend: daemon lifecycle, control-channel round-trips,
// real cross-mapping shm visibility, and concurrent load on the native
// table (TSan-sized cells -- this suite runs in the TSan CI job, so the
// seq_cst atomics of NativeTable and the ParkingSpot handshakes get a race
// detector pass).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dist/load.hpp"
#include "dist/loopback.hpp"
#include "dist/native_table.hpp"
#include "native/telemetry.hpp"

namespace rwr::dist {
namespace {

TableConfig tiny_cfg(bool homed) {
    TableConfig cfg;
    cfg.shards = 2;
    cfg.locks_per_shard = 2;
    cfg.sessions = 16;
    cfg.homed = homed;
    return cfg;
}

TEST(DistLoopback, HelloAdvertisesGeometryAndSegment) {
    LockServiceDaemon daemon(tiny_cfg(true));
    daemon.start();
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    EXPECT_EQ(client.config().shards, 2u);
    EXPECT_EQ(client.config().locks_per_shard, 2u);
    EXPECT_EQ(client.config().sessions, 16u);
    EXPECT_TRUE(client.config().homed);
    ASSERT_NE(client.words(), nullptr);
    client.close();
    daemon.stop();
}

TEST(DistLoopback, ClientAndDaemonShareTheWords) {
    // A store through the client's mapping must be visible through the
    // daemon's -- the property the smoke harness's STATS cross-check
    // relies on.
    LockServiceDaemon daemon(tiny_cfg(true));
    daemon.start();
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    const TableLayout& lay = daemon.layout();
    const auto idx = lay.flat_index(lay.lock_word(3, LockField::WTicket));
    client.words()[idx].store(77);
    EXPECT_EQ(daemon.words()[idx].load(), 77u);
    const CtrlReply st = client.stats();
    EXPECT_EQ(st.ok, 1u);
    EXPECT_EQ(st.tickets_issued, 77u);
    client.words()[idx].store(0);
    client.close();
    daemon.stop();
}

TEST(DistLoopback, ShutdownStopsTheDaemon) {
    LockServiceDaemon daemon(tiny_cfg(true));
    daemon.start();
    EXPECT_TRUE(daemon.running());
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    client.shutdown_server();
    client.close();
    daemon.stop();  // Joins; must not hang after remote shutdown.
    EXPECT_FALSE(daemon.running());
}

TEST(DistLoopback, SecondDaemonGetsItsOwnPortAndSegment) {
    LockServiceDaemon a(tiny_cfg(true));
    LockServiceDaemon b(tiny_cfg(true));
    a.start();
    b.start();
    EXPECT_NE(a.port(), b.port());
    EXPECT_NE(a.shm_name(), b.shm_name());
    b.stop();
    a.stop();
}

void run_concurrent_load(bool homed) {
    LockServiceDaemon daemon(tiny_cfg(homed));
    daemon.start();
    DistClient client;
    client.connect("127.0.0.1", daemon.port());
    auto spots = std::make_unique<native::ParkingSpot[]>(
        client.config().sessions);
    NativeTable table(client.words(), client.config(), spots.get());
    LoadConfig lc;
    lc.ops_per_session = 64;
    lc.reader_pct = 60;
    lc.seed = 3;
    lc.jobs = 4;
    const LoadResult res = run_load(table, lc);
    EXPECT_EQ(res.witness_violations, 0u);
    EXPECT_EQ(res.merged.total_ops(), 16u * 64u);
    // Quiesced: no held writers, no active readers, and the daemon's
    // ticket odometer agrees with the client's writer-op count.
    const CtrlReply st = client.stats();
    EXPECT_EQ(st.tickets_issued, res.merged.write_ops);
    EXPECT_EQ(st.witness_nonzero, 0u);
    EXPECT_EQ(st.readers_active, 0u);
    // Only homed sessions get free local gate spins; either way every
    // shard verb was counted.
    EXPECT_GT(res.merged.network_rmrs, 0u);
    client.close();
    daemon.stop();
}

TEST(DistLoopback, ConcurrentLoadHomed) { run_concurrent_load(true); }
TEST(DistLoopback, ConcurrentLoadUnhomed) { run_concurrent_load(false); }

TEST(DistLoopback, LatencyHistogramQuantilesAreOrdered) {
    SessionStats st;
    st.record_acquire_ns(100);
    st.record_acquire_ns(1000);
    st.record_acquire_ns(100000);
    const double p50 = st.percentile_us(0.50);
    const double p99 = st.percentile_us(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_GE(p99, p50);

    // The session histogram and telemetry's agree, at both ends too: 0 ns
    // goes in the first bucket, and 2^50 ns lies past the last one.
    const std::uint64_t samples[] = {0, 100, 1000, 100000,
                                     std::uint64_t{1} << 50};
    constexpr auto kHisto = native::TelemetryHisto::kReaderEntry;
    SessionStats session;
    native::TelemetrySnapshot snap;
    for (const std::uint64_t ns : samples) {
        session.record_acquire_ns(ns);
        ++snap.histos[static_cast<std::uint32_t>(kHisto)]
                     [native::telemetry_bucket(ns)];
    }
    for (const double q : {0.50, 0.99}) {
        EXPECT_EQ(session.percentile_us(q),
                  static_cast<double>(snap.quantile_ns(kHisto, q)) / 1000.0)
            << "q=" << q;
    }
    // Rank min(q·5, 4): p50 is the 1000 ns sample, p99 the 2^50 ns one.
    EXPECT_EQ(session.percentile_us(0.50), 1.024);
    EXPECT_EQ(session.percentile_us(0.99),
              static_cast<double>(std::uint64_t{1} << 40) / 1000.0);
}

TEST(DistSessionStats, EmptySessionReportsZero) {
    const SessionStats st;
    EXPECT_EQ(st.total_ops(), 0u);
    for (const double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_EQ(st.percentile_us(q), 0.0) << "q=" << q;
    }
}

TEST(DistSessionStats, MergeEqualsRecordingIntoOneSession) {
    SessionStats a;
    a.read_ops = 5;
    a.write_ops = 1;
    a.network_rmrs = 40;
    SessionStats b;
    b.read_ops = 2;
    b.write_ops = 3;
    b.network_rmrs = 11;
    b.violations = 1;
    SessionStats both;
    for (const std::uint64_t ns : {0ull, 90ull, 700ull}) {
        a.record_acquire_ns(ns);
        both.record_acquire_ns(ns);
    }
    for (const std::uint64_t ns : {90ull, 40000ull, 1ull << 55}) {
        b.record_acquire_ns(ns);
        both.record_acquire_ns(ns);
    }
    a.merge(b);
    EXPECT_EQ(a.read_ops, 7u);
    EXPECT_EQ(a.write_ops, 4u);
    EXPECT_EQ(a.total_ops(), 11u);
    EXPECT_EQ(a.network_rmrs, 51u);
    EXPECT_EQ(a.violations, 1u);
    EXPECT_EQ(a.acquire_ns_log2, both.acquire_ns_log2);
}

TEST(DistSessionStats, PercentileIsTheTelemetryQuantileInMicroseconds) {
    const std::vector<std::vector<std::uint64_t>> sample_sets = {
        {1},
        {0, 0, 0},
        {250, 260, 270, 280},
        {3, 1'000, 1'000'000, 1'000'000'000},
        {std::uint64_t{1} << 39, std::uint64_t{1} << 63},
    };
    for (const auto& samples : sample_sets) {
        SessionStats st;
        std::array<std::uint64_t, native::kTelemetryBuckets> h{};
        for (const std::uint64_t ns : samples) {
            st.record_acquire_ns(ns);
            ++h[native::telemetry_bucket(ns)];
        }
        EXPECT_EQ(st.acquire_ns_log2, h);
        for (int i = 0; i <= 20; ++i) {
            const double q = i / 20.0;
            EXPECT_EQ(st.percentile_us(q),
                      static_cast<double>(native::telemetry_quantile_ns(h, q)) /
                          1000.0)
                << "q=" << q << " first sample " << samples.front();
        }
    }
}

}  // namespace
}  // namespace rwr::dist
