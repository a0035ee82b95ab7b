// Baseline reader-writer locks for the simulator.
//
// These are the comparison points for the paper's complexity claims:
//
//  * CentralizedSimRWLock -- the folklore one-word lock from read/write/CAS.
//    Simple and correct, but CAS-retry loops make even the reader *exit*
//    section cost Θ(n) RMRs under the adversary (experiment E2 shows the
//    lower-bound construction extracting exactly that), and entry spinning
//    is unbounded. Subject to the paper's tradeoff, far from its frontier.
//
//  * FaaSimRWLock -- a centralized writer-preference lock whose hot paths
//    are single fetch-and-add steps (in the spirit of the constant-RMR
//    Bhatt-Jayanti lock the Discussion section cites). FAA is outside the
//    {read, write, CAS} primitive set of Theorem 5, and this lock
//    demonstrates it: its reader exit is O(1) RMRs while its writer entry
//    is O(log m) -- a point *below* the read/write/CAS tradeoff curve.
//
//  * ReaderPrefSimRWLock -- the classic Courtois et al. construction from
//    two mutexes and a reader count. Writer entry is O(log m) (independent
//    of n), and -- as the tradeoff predicts -- reader entry AND exit are
//    Θ(log n) (the reader-side mutex). Readers starve writers by design.
//
//  * MutexSimRWLock -- degenerate baseline: everyone takes one big mutex.
//    Mutual exclusion holds trivially; Concurrent Entering does not (two
//    readers cannot share the CS), which tests must observe.
#pragma once

#include <cstdint>
#include <memory>

#include "mutex/tournament.hpp"
#include "rmr/memory.hpp"
#include "sim/rwlock.hpp"

namespace rwr::baselines {

/// One word: bit 40 = writer present, low 32 bits = reader count.
class CentralizedSimRWLock final : public sim::SimRWLock {
   public:
    CentralizedSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;
    [[nodiscard]] std::string name() const override { return "centralized"; }

    static constexpr Word kWriterBit = Word{1} << 40;

   private:
    VarId state_;
};

/// Centralized FAA lock, writer preference. Writers serialize on an
/// m-process tournament mutex, then close the reader gate and wait for
/// in-flight readers to drain.
class FaaSimRWLock final : public sim::SimRWLock {
   public:
    FaaSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;
    [[nodiscard]] std::string name() const override { return "faa"; }

    static constexpr Word kWriterBit = Word{1} << 40;

   private:
    mutex::TournamentSimMutex wl_;
    VarId state_;  ///< Writer bit + reader count (FAA-updated).
    VarId rgate_;  ///< Readers may proceed when == current epoch.
    VarId wgate_;  ///< Last draining reader signals the writer here.
};

/// Courtois et al. reader-preference lock built from two tournament mutexes
/// and a plain reader count (protected by the reader-side mutex).
class ReaderPrefSimRWLock final : public sim::SimRWLock {
   public:
    ReaderPrefSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;
    [[nodiscard]] std::string name() const override { return "reader-pref"; }

   private:
    mutex::TournamentSimMutex rmutex_;  ///< Serializes readers (n slots).
    mutex::TournamentSimMutex wmutex_;  ///< Writers + readers' rep (m+1).
    VarId rcount_;                      ///< Protected by rmutex_.
    std::uint32_t rep_slot_;            ///< wmutex_ slot of the readers' rep.
};

/// Everyone takes the same (n+m)-slot tournament mutex.
class MutexSimRWLock final : public sim::SimRWLock {
   public:
    MutexSimRWLock(Memory& mem, std::uint32_t n, std::uint32_t m);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;
    [[nodiscard]] std::string name() const override { return "big-mutex"; }

   private:
    mutex::TournamentSimMutex mx_;
    std::uint32_t n_;
};

}  // namespace rwr::baselines
