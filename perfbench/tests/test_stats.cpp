// Tests of the benchmark's own arithmetic: percentiles, histogram error,
// span self time, the layer add-up residual, and the closed loops' slice
// statistics and oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
    std::vector<double> v = {5, 1, 4, 2, 3, 6, 7, 8, 9, 10};
    EXPECT_EQ(percentile(v, 0.5), 5);
    EXPECT_EQ(percentile(v, 0.9), 9);
    EXPECT_EQ(percentile(v, 0.99), 10);
    EXPECT_EQ(percentile(v, 0.01), 1);
    std::vector<double> one = {42};
    EXPECT_EQ(percentile(one, 0.99), 42);
    std::vector<double> none;
    EXPECT_TRUE(std::isnan(percentile(none, 0.5)));
}

TEST(Percentile, MedianOfEvenAndOddCounts) {
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_TRUE(std::isnan(median({})));
}

TEST(LatencyHistogram, SmallValuesAreExact) {
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < 64; ++v) {
        h.record(v);
    }
    EXPECT_EQ(h.count(), 64u);
    // Rank 32 of 0..63 is 31; a one-sample bucket reports its middle.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 31.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 63.5);
}

TEST(LatencyHistogram, QuantilesMatchRawSamplesWithinBucketError) {
    LatencyHistogram h;
    std::vector<double> raw;
    std::uint64_t x = 12345;
    for (int i = 0; i < 100000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t v = 100 + (x >> 33) % 2'000'000;  // 100ns..2ms
        h.record(v);
        raw.push_back(static_cast<double>(v));
    }
    for (const double q : {0.5, 0.9, 0.99}) {
        std::vector<double> copy = raw;
        const double exact = percentile(copy, q);
        EXPECT_LE(std::abs(h.quantile(q) - exact) / exact, 1.0 / 64 + 1e-9)
            << "q=" << q;
    }
}

TEST(LatencyHistogram, BucketsTileTheRange) {
    for (const std::uint64_t v : {64ull, 65ull, 127ull, 128ull, 1000ull,
                                  123456789ull, (1ull << 40) + 7}) {
        const std::uint32_t i = LatencyHistogram::index_of(v);
        ASSERT_LT(i, LatencyHistogram::kBuckets);
        const double lo = LatencyHistogram::lower_bound(i);
        EXPECT_LE(lo, static_cast<double>(v));
        EXPECT_GT(lo + LatencyHistogram::width(i), static_cast<double>(v));
        EXPECT_LE(LatencyHistogram::width(i) / 2 / lo, 1.0 / 128);
    }
}

TEST(LatencyHistogram, MergeAddsCounts) {
    LatencyHistogram a;
    LatencyHistogram b;
    a.record(10);
    b.record(1000);
    b.record(1000);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    // Rank 2 is the first of the two samples in 1000's bucket: a quarter in.
    const std::uint32_t i = LatencyHistogram::index_of(1000);
    EXPECT_DOUBLE_EQ(a.quantile(0.34), LatencyHistogram::lower_bound(i) +
                                           LatencyHistogram::width(i) / 4);
}

TEST(LatencyHistogram, QuantileMovesWithinABucket) {
    // Ranks inside one bucket spread over its width instead of all reading
    // as the bucket's midpoint.
    LatencyHistogram h;
    for (int k = 0; k < 4; ++k) {
        h.record(1000);
    }
    const std::uint32_t i = LatencyHistogram::index_of(1000);
    const double lo = LatencyHistogram::lower_bound(i);
    const double w = LatencyHistogram::width(i);
    EXPECT_DOUBLE_EQ(h.quantile(0.25), lo + w / 8);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), lo + 7 * w / 8);
}

TEST(SelfTime, ChildrenAreSubtractedOnce) {
    // root [0,100) with children [10,30), [20,40) (overlapping) and
    // [90,120) (clipped to the root); grandchild [12,14) under child 1.
    std::vector<Span> s = {
        {"root", 1, 0, 100, -1},   {"a", 1, 10, 30, 0},
        {"b", 1, 20, 40, 0},       {"c", 1, 90, 120, 0},
        {"a.x", 1, 12, 14, 1},
    };
    const auto self = self_times(s);
    EXPECT_EQ(self[0], 100 - 30 - 10);  // [10,40) and [90,100) covered.
    EXPECT_EQ(self[1], 20 - 2);
    EXPECT_EQ(self[2], 20);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 2);
}

TEST(SelfTime, LeafIsItsDuration) {
    const auto self = self_times({{"leaf", 7, 5, 9, -1}});
    EXPECT_EQ(self[0], 4);
}

TEST(Residual, ShareOfTotalNotExplained) {
    EXPECT_DOUBLE_EQ(residual_share(100, {60, 30}), 0.1);
    EXPECT_DOUBLE_EQ(residual_share(100, {100}), 0.0);
    EXPECT_DOUBLE_EQ(residual_share(100, {80, 40}), -0.2);
    EXPECT_TRUE(std::isnan(residual_share(0, {1})));
}

/// Two threads over three slices; the window kept only the first two.
LoopOut two_slices_of_three(bool stalled) {
    std::deque<ThreadOut> outs;
    for (int t = 0; t < 2; ++t) {
        ThreadOut& o = outs.emplace_back(3, 1);
        for (int slice = 0; slice < 3; ++slice) {
            for (int k = 0; k < 10 * (slice + 1); ++k) {
                o.record(t == 0, kTimed + slice, 1000 * (slice + 1));
            }
        }
        o.record(t == 0, kWarmup, 5);  // Warm-up: attempted, not timed.
        o.busy_ns = 500'000'000;
        o.spans.add("root", 1, 0, 10);
        o.spans.add("child", 1, 2, 4, 0);
    }
    Window w;
    w.wall_s = {1.0, 0.5};
    w.cpu_s = {2.0, 2.0};
    w.stalled = stalled;
    w.stuck = stalled ? 2 : 0;
    LoopOut l;
    l.merge(outs, w);
    return l;
}

TEST(LoopOut, MergesOnlyTheWindowsSlices) {
    const LoopOut l = two_slices_of_three(false);
    ASSERT_EQ(l.slices(), 2);
    EXPECT_EQ(l.reads, (std::vector<std::uint64_t>{10, 20}));
    EXPECT_EQ(l.writes, (std::vector<std::uint64_t>{10, 20}));
    EXPECT_EQ(l.attempted, 2u * (10 + 20 + 30 + 1));
    // 20 passages in 1 s, 40 in 0.5 s: the rate is the nearest-rank upper
    // quartile of 20/s and 80/s.
    EXPECT_DOUBLE_EQ(l.ops_per_s(), 80.0);
    // CPU per passage: 2 s / 20 and 2 s / 40, in us.
    EXPECT_DOUBLE_EQ(l.cpu_us_per_op(), (100'000.0 + 50'000.0) / 2);
    EXPECT_NEAR(l.quantile_us(l.read, 0.5), 1.5, 1.5 / 64);
    EXPECT_DOUBLE_EQ(l.busy_share, 1.0 / (2 * 1.5));  // 2 x 0.5 s busy.
    // Parent indexes are re-based per thread.
    ASSERT_EQ(l.spans.size(), 4u);
    EXPECT_EQ(l.spans[1].parent, 0);
    EXPECT_EQ(l.spans[3].parent, 2);
}

TEST(CheckLoop, StuckThreadsAreAttemptedAndFailed) {
    Result ok;
    check_loop(ok, two_slices_of_three(false), "passage");
    EXPECT_EQ(ok.failed, 0u);
    EXPECT_FALSE(ok.stuck);

    Result r;
    const LoopOut l = two_slices_of_three(true);
    check_loop(r, l, "passage");
    EXPECT_TRUE(r.stuck);
    EXPECT_EQ(r.failed, 2u);
    EXPECT_EQ(r.attempted, l.attempted + 2);
}

TEST(CheckLoop, ARoleWithNoPassageInASliceFails) {
    std::deque<ThreadOut> outs;
    ThreadOut& o = outs.emplace_back(2, 1);
    o.record(true, kTimed, 100);
    o.record(false, kTimed, 100);
    o.record(true, kTimed + 1, 100);  // No writer passage in slice 1.
    Window w;
    w.wall_s = {1.0, 1.0};
    w.cpu_s = {1.0, 1.0};
    LoopOut l;
    l.merge(outs, w);
    Result r;
    check_loop(r, l, "passage");
    EXPECT_EQ(r.failed, 1u);
}

}  // namespace
}  // namespace perfbench
