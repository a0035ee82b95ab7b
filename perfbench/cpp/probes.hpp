// Solo layer probes for the traced run: each times calls into one layer's
// public functions from outside, with nothing else running. Every traced
// run reports every per-layer metric; a layer the workload itself does not
// call is measured here instead (README.md lists which source each metric
// has on each workload).
#pragma once

#include <cstdint>

#include "common.hpp"
#include "dist/layout.hpp"

namespace perfbench {

/// An AfLock configuration: n readers, m writers, f groups.
struct LockShape {
    std::uint32_t n = 1;
    std::uint32_t m = 1;
    std::uint32_t f = 1;
    [[nodiscard]] std::uint32_t k() const { return (n + f - 1) / f; }
};

/// Adds the native per-layer metrics every traced run reports: f-array
/// counter, writer mutex, handshake, parking, and the reader and writer
/// add-up residuals, all measured solo at `shape`. With `with_af_spans`,
/// the af_lock entry/exit spans also come from the solo probe (workloads
/// that do not run AfLock themselves).
void add_native_layer_metrics(Result& r, const LockShape& shape,
                              bool with_af_spans);

/// Solo NativeTable calls on a table held in process memory (no daemon).
void add_table_probe_metrics(Result& r, std::uint64_t seed);

/// Spans around daemon start, connect (HELLO + attach) and STATS.
struct LoopbackTimes {
    double daemon_start_ms = 0;
    double connect_ms = 0;
    double stats_ms = 0;
};
/// Median of several cycles, reported as the loopback.* metrics.
void add_loopback_probe_metrics(Result& r, const rwr::dist::TableConfig& cfg);

/// Table geometry of the lockd workload.
rwr::dist::TableConfig lockd_table_config();

}  // namespace perfbench
