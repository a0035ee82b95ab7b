// The recoverable tier's episode adapter: a RecoverableLock with its
// restart factory, so crash-restart faults land in sim::run_driver runs
// and sim::driver_factory scenarios (the RME checker rides along). Powers
// bench_recoverable, the recoverable explorer tests and experiments E12 /
// E14.
#pragma once

#include <cstdint>
#include <string>

#include "sim/driver.hpp"

namespace rwr::recover {

enum class RecoverLockKind {
    Mutex,      ///< RecoverableTournamentMutex over m processes (all writers).
    JJJMutex,   ///< RecoverableJJJMutex over m processes (all writers).
    RwLock,     ///< RecoverableRWLock over n readers + m writers.
    RwLockJJJ,  ///< RecoverableRWLock with the JJJ writer lock embedded.
};

[[nodiscard]] std::string to_string(RecoverLockKind k);

struct RecoverSpec {
    RecoverLockKind lock = RecoverLockKind::RwLock;
    std::uint32_t n = 4;  ///< Readers (RwLock); ignored by Mutex.
    std::uint32_t m = 2;  ///< Writers (RwLock) / total processes (Mutex).
    std::uint32_t f = 1;  ///< RwLock group count.
    /// JJJ node arity (JJJMutex / RwLockJJJ); 0 = auto (Theta(log m)).
    std::uint32_t delta = 0;
    /// JJJMutex only: build the lock in DSM mode (owner_base = 0, matching
    /// the slot-s-runs-on-pid-s convention), exercising the homed wake
    /// layer under whatever protocol the run uses. CC protocols ignore
    /// homes, so this only changes which variables the wait loops touch --
    /// useful for crashing INTO the wake-layer registration.
    bool dsm_home = false;
};

[[nodiscard]] bool is_mutex_kind(RecoverLockKind k);
/// Processes a run of `spec` has: m for the mutexes, n + m otherwise.
[[nodiscard]] std::uint32_t num_processes(const RecoverSpec& spec);

/// Mutex kinds: m writers (a mutex has no reader/writer distinction;
/// modelling every participant as a writer makes the ME predicate "at most
/// one in the CS"). RW kinds: n readers, then m writers.
[[nodiscard]] sim::EpisodeBuilder recover_episodes(const RecoverSpec& spec);

}  // namespace rwr::recover
