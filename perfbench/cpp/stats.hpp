// The benchmark's own statistics: latency percentiles, span self times and
// the layer add-up residual. Header-only and free of library dependencies so
// tests/test_stats.cpp can check the arithmetic directly.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of raw samples: the smallest sample with at least
/// q*N samples at or below it. q in (0, 1]. Sorts `v` in place; NaN if empty.
inline double percentile(std::vector<double>& v, double q) {
    if (v.empty()) {
        return std::nan("");
    }
    std::sort(v.begin(), v.end());
    const auto n = static_cast<double>(v.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/// Median of raw values (mean of the two middle ones for even counts).
inline double median(std::vector<double> v) {
    if (v.empty()) {
        return std::nan("");
    }
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

/// Log-linear latency histogram over nanoseconds: values below 64 get a
/// bucket each, every power of two above is split into 64 equal buckets.
/// A quantile is placed inside its bucket by its rank among the bucket's
/// samples (the k-th of c at (k - 1/2)/c of the width), so its relative
/// error is at most one bucket width, 1/64 (telemetry's log2 buckets are
/// off by up to 100%), and a stable latency does not read as the same
/// bucket value on every run. Recording is one bit_width and an increment:
/// cheap enough for every passage of a multi-million-passage run, and
/// memory stays fixed.
class LatencyHistogram {
   public:
    static constexpr std::uint32_t kSubBits = 6;
    static constexpr std::uint32_t kSub = 1u << kSubBits;
    static constexpr std::uint32_t kBuckets = kSub + (64 - kSubBits) * kSub;

    void record(std::uint64_t ns) {
        ++counts_[index_of(ns)];
        ++total_;
    }
    void merge(const LatencyHistogram& o) {
        for (std::uint32_t i = 0; i < kBuckets; ++i) {
            counts_[i] += o.counts_[i];
        }
        total_ += o.total_;
    }
    [[nodiscard]] std::uint64_t count() const { return total_; }

    /// Nearest-rank quantile in ns, placed within its bucket; NaN if empty.
    [[nodiscard]] double quantile(double q) const {
        if (total_ == 0) {
            return std::nan("");
        }
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(total_)));
        rank = std::clamp<std::uint64_t>(rank, 1, total_);
        std::uint64_t seen = 0;
        for (std::uint32_t i = 0; i < kBuckets; ++i) {
            if (seen + counts_[i] >= rank) {
                const double k = static_cast<double>(rank - seen);
                return lower_bound(i) + width(i) * (k - 0.5) /
                                            static_cast<double>(counts_[i]);
            }
            seen += counts_[i];
        }
        return midpoint(kBuckets - 1);
    }

    static std::uint32_t index_of(std::uint64_t ns) {
        if (ns < kSub) {
            return static_cast<std::uint32_t>(ns);
        }
        const auto e = static_cast<std::uint32_t>(std::bit_width(ns)) - 1;
        const std::uint32_t shift = e - kSubBits;
        const auto sub = static_cast<std::uint32_t>(ns >> shift) & (kSub - 1);
        return kSub + shift * kSub + sub;
    }
    static double lower_bound(std::uint32_t i) {
        if (i < kSub) {
            return static_cast<double>(i);
        }
        const std::uint32_t shift = (i - kSub) / kSub;
        const std::uint32_t sub = (i - kSub) % kSub;
        return std::ldexp(static_cast<double>(kSub + sub),
                          static_cast<int>(shift));
    }
    static double width(std::uint32_t i) {
        return i < kSub ? 1.0
                        : std::ldexp(1.0, static_cast<int>((i - kSub) / kSub));
    }
    static double midpoint(std::uint32_t i) {
        return i < kSub ? static_cast<double>(i)
                        : lower_bound(i) + width(i) / 2.0;
    }

   private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t total_ = 0;
};

/// One traced interval at a layer boundary. `trace_id` groups the spans of
/// one passage, session batch or cell; `parent` indexes the enclosing span
/// in the same buffer (-1 for a root).
struct Span {
    const char* name = "";
    std::uint64_t trace_id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once,
/// children clipped to the parent).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size()) {
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                  s.end_ns);
        }
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].start_ns;
        const std::int64_t hi = spans[i].end_ns;
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0;
        std::int64_t cur_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a) {
                continue;
            }
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open) {
                covered += cur_hi - cur_lo;
            }
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open) {
            covered += cur_hi - cur_lo;
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

/// Layer add-up check: the share of `total` that the listed parts do not
/// explain, (total - sum(parts)) / total. Zero when the parts add up exactly;
/// negative when they over-explain the total. NaN for a zero total.
inline double residual_share(double total, const std::vector<double>& parts) {
    if (total == 0.0) {
        return std::nan("");
    }
    double sum = 0.0;
    for (const double p : parts) {
        sum += p;
    }
    return (total - sum) / total;
}

}  // namespace perfbench
