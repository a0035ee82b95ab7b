// The four workloads. Each runs in this process, measures for the requested
// time with tracing off, checks its outputs, and fills in a Result; with
// Options::trace it instead makes the separate traced run that reports the
// per-layer metrics.
#pragma once

#include "common.hpp"

namespace perfbench {

/// af-read (read_heavy) and af-write: native AfLock passages.
Result run_af(const Options& opt, bool read_heavy);

/// lockd: in-process lock service daemon + client over TCP and shm.
Result run_lockd(const Options& opt);

/// sim-e1: A_f on the simulated machine over the E1 cells.
Result run_sim(const Options& opt);

/// Traced E1 cell probe (sim.*, rmr.*) for workloads that do not simulate.
void add_sim_probe_metrics(Result& r);

}  // namespace perfbench
