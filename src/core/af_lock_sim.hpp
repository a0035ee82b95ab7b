// Simulated implementation of the paper's Algorithm 1 -- the reader-writer
// lock family A_f. Line numbers in comments refer to the paper's
// pseudo-code.
//
// Structure (paper Section 4):
//   * Readers are statically partitioned into f groups of K = ceil(n/f)
//     members. Group i consolidates information in two K-process f-array
//     counters: C[i] (readers currently in a passage) and W[i] (readers
//     waiting for the current writer).
//   * Writers serialize on WL, an m-process starvation-free mutex with
//     logarithmic RMR complexity and Bounded Exit.
//   * WSEQ numbers writer passages. RSIG broadcasts the holding writer's
//     phase to readers; WSIG[i] carries group-i readers' signals back, with
//     CAS ensuring exactly one reader succeeds per handshake.
//
// RMR complexity (Theorem 18): writers Θ(f(n) + log m) per passage, readers
// Θ(log(n/f(n))) per passage. Readers never starve; writers can starve
// under a continuous reader flood (paper Section 6).
//
// Ablations (tests only, via AfSimLock::ablated_for_test) each remove one
// mechanism whose purpose the paper explains, so the verification machinery
// can show that it is load-bearing:
//   * NoPreentry drops lines 7-17, the PREENTRY handshake, which checks
//     "that no readers are already waiting (for previous writer passages),
//     before w instructs concurrent readers to wait for its current
//     passage". Without it a reader still waking from the previous passage
//     is double-counted by the new passage's C[i] == W[i] test, and the
//     writer can be signalled into the CS beside that reader.
//   * NoExitHelp drops lines 41-48, the exit-section signalling. A writer
//     that saw C[i] > 0 is then never told that the group drained, and
//     spins forever.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/af_params.hpp"
#include "core/signals.hpp"
#include "counter/sim_counter.hpp"
#include "mutex/sim_mutex.hpp"
#include "rmr/memory.hpp"
#include "sim/rwlock.hpp"

namespace rwr::core {

enum class AfAblation : std::uint8_t {
    None,
    NoPreentry,  ///< Drops writer lines 7-17.
    NoExitHelp,  ///< Drops reader lines 41-48.
};

class AfSimLock final : public sim::SimRWLock {
   public:
    AfSimLock(Memory& mem, AfParams params);

    /// Test-only: the lock with one mechanism removed (see the top of
    /// this file). AfAblation::None builds the full lock.
    [[nodiscard]] static std::unique_ptr<AfSimLock> ablated_for_test(
        Memory& mem, AfParams params, AfAblation ablation);

    sim::SimTask<void> reader_entry(sim::Process& p) override;
    sim::SimTask<void> reader_exit(sim::Process& p) override;
    sim::SimTask<void> writer_entry(sim::Process& p) override;
    sim::SimTask<void> writer_exit(sim::Process& p) override;

    [[nodiscard]] std::string name() const override {
        std::string base = "A_f(f=" + std::to_string(params_.f) + ")";
        if (ablation_ == AfAblation::NoPreentry) {
            base = "A_f[-preentry]";
        } else if (ablation_ == AfAblation::NoExitHelp) {
            base = "A_f[-exithelp]";
        }
        return base + (params_.dsm_local_spin ? "+dsm" : "");
    }

    [[nodiscard]] const AfParams& params() const { return params_; }
    [[nodiscard]] std::uint32_t group_of(std::uint32_t reader_index) const {
        return reader_index / k_;
    }
    [[nodiscard]] std::uint32_t slot_of(std::uint32_t reader_index) const {
        return reader_index % k_;
    }

    /// Test hooks: signal variables (to steer schedules around spin
    /// loops), number of groups.
    [[nodiscard]] VarId wsig_var(std::uint32_t group) const {
        return wsig_[group];
    }
    [[nodiscard]] VarId rsig_var() const { return rsig_; }
    [[nodiscard]] std::uint32_t num_groups() const { return groups_; }

    /// Test hooks: exact (non-simulated) counter contents.
    [[nodiscard]] std::int64_t peek_c(const Memory& mem,
                                      std::uint32_t group) const {
        return c_[group]->peek_exact(mem);
    }
    [[nodiscard]] std::int64_t peek_w(const Memory& mem,
                                      std::uint32_t group) const {
        return w_[group]->peek_exact(mem);
    }

   private:
    AfSimLock(Memory& mem, AfParams params, AfAblation ablation);

    /// HelpWCS (paper lines 50-54): if every group-i reader in a passage is
    /// waiting (C[i] == W[i]), signal the writer of passage `seq` that it
    /// may enter the CS.
    sim::SimTask<void> help_wcs(sim::Process& p, std::uint32_t group,
                                Word seq);

    AfParams params_;
    AfAblation ablation_;
    std::uint32_t k_;       ///< Group size K.
    std::uint32_t groups_;  ///< Number of groups (= f, modulo rounding).

    std::vector<std::unique_ptr<counter::FArraySimCounter>> c_;  ///< C[i].
    std::vector<std::unique_ptr<counter::FArraySimCounter>> w_;  ///< W[i].
    /// WL: Peterson tournament by default; the DSM-homed Yang-Anderson
    /// tournament when params_.dsm_local_spin (same O(log m) CC cost,
    /// bounded exit, starvation freedom -- a drop-in per the paper).
    std::unique_ptr<mutex::SimMutex> wl_;
    VarId wseq_;                ///< WSEQ (line 3).
    VarId rsig_;                ///< RSIG (line 4).
    std::vector<VarId> wsig_;   ///< WSIG[i] (line 4).
    /// DSM variant only: per-reader grant gate (homed at its reader),
    /// holding the latest writer seq whose exit has been published to that
    /// reader. Monotone; replaces the line-36 RSIG spin.
    std::vector<VarId> rgate_;
};

}  // namespace rwr::core
