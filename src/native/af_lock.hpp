// Native (std::atomic) implementation of the paper's Algorithm 1 -- the
// A_f reader-writer lock family. Mirrors core/af_lock_sim.cpp line for
// line, except that help_wcs reads W before C (the argument is in the
// comment on help_wcs below); see that file and the paper's Section 4 for
// the protocol walkthrough. Reader i belongs to group i / K, K = ceil(n/f),
// as in Algorithm 1 and the simulated twin.
//
// Identity model: reader ids in [0, n), writer ids in [0, m), passed to
// every call; one id must never be used by two threads concurrently. For an
// id-less std::shared_mutex-style facade see native/shared_mutex.hpp.
//
// Guarantees (Theorem 18): Mutual Exclusion, Bounded Exit, Deadlock
// Freedom, Concurrent Entering, no reader starvation. Writers can starve
// under a continuous reader flood. RMR complexity: writers Θ(f + log m),
// readers Θ(log(n/f)) per passage in the CC model.
//
// Memory ordering: every atomic operation is seq_cst (the paper's model,
// and what the f-array and A_f proofs assume) except the writer's line-16
// store WSIG[i] := <seq, WAIT>, which is a release store; the argument
// that the protocol keeps its guarantees sits beside that store and in
// DESIGN.md §7.
//
// Abortability: try_lock(_shared) and try_lock(_shared)_for let a caller
// give up on a blocked acquisition. An aborting participant rolls back
// every announcement it made (C[i]/W[i] increments, the WL climb, the WSIG
// handshake obligations), so Theorem 18's properties continue to hold for
// the survivors; see DESIGN.md §8 for the argument. Aborts are bounded:
// O(log K) steps for a reader, O(f + log m) for a writer.
//
// Misuse checks: unless compiled with RWR_AF_MISUSE_CHECKS=0, every
// entry/exit verifies the caller's id is used consistently (no unlock
// without lock, no double release driving C[i] negative, no unlock of a WL
// the caller does not hold, no concurrent reuse of one id) and throws
// std::logic_error on violation. The checks are one uncontended atomic
// exchange per call -- negligible next to the f-array tree walk -- but can
// be stripped for benchmark purity.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "native/counter.hpp"
#include "native/mutex.hpp"
#include "native/park.hpp"
#include "native/spin.hpp"
#include "native/telemetry.hpp"

#ifndef RWR_AF_MISUSE_CHECKS
#define RWR_AF_MISUSE_CHECKS 1
#endif

namespace rwr::native {

class AfLock {
   public:
    /// `f` = number of reader groups = writer RMR budget; 1 <= f <= n.
    explicit AfLock(std::uint32_t n, std::uint32_t m, std::uint32_t f)
        : n_(n), m_(m), f_(validated_f(n, m, f)), k_((n + f_ - 1) / f_),
          groups_((n + k_ - 1) / k_), tree_nodes_(farray_nodes(k_)), wl_(m),
          trees_(std::make_unique<FArrayNode[]>(std::size_t{2} * groups_ *
                                                tree_nodes_)),
          wsig_(std::make_unique<Signal[]>(groups_)) {
        if (kIdLines) {
            ids_ = std::make_unique<IdLine[]>(std::size_t{n_} + m_);
        }
    }

    /// Attach a telemetry sink (nullptr detaches). Not thread-safe against
    /// concurrent passages; attach before starting the workload. Propagates
    /// to the embedded WL so writer-lock contention shows up under the
    /// mutex_* counters. Compiled to a no-op when RWR_TELEMETRY=0.
    void attach_telemetry(LockTelemetry* t) {
        RWR_TELEM(telemetry_ = t; wl_.attach_telemetry(t);)
        (void)t;
    }

    void lock_shared(std::uint32_t reader_id) {
        lock_shared_until(reader_id, Deadline::infinite());
    }

    /// Non-blocking reader acquisition: fails iff a writer is past line 18
    /// (RSIG = WAIT). Failure rolls back the C[i] increment and performs the
    /// exit-section signalling so no writer is stranded.
    bool try_lock_shared(std::uint32_t reader_id) {
        return lock_shared_until(reader_id, Deadline::immediate());
    }

    template <class Rep, class Period>
    bool try_lock_shared_for(std::uint32_t reader_id,
                             std::chrono::duration<Rep, Period> timeout) {
        return lock_shared_until(reader_id, Deadline::after(timeout));
    }

    bool lock_shared_until(std::uint32_t reader_id, Deadline deadline) {
        check_reader(reader_id);
        reader_acquire_guard(reader_id);
        RWR_TELEM(TelemetryStopwatch sw(telemetry_, TelemetryHisto::kReaderEntry);
                  if (telemetry_ && ids_[reader_id].retry.exchange(
                                        0, std::memory_order_relaxed) != 0) {
                      telemetry_->count(TelemetryCounter::kReaderAbortRetry);
                  })
        const std::uint32_t g = reader_id / k_;     // Line 30.
        const std::uint32_t slot = reader_id % k_;

        c(g).add(slot, +1);                         // Line 31.
        const std::uint64_t sig = rsig_.load();     // Line 32.
        if (rs_op(sig) != kRsWait) {                // Line 33.
            RWR_TELEM(if (telemetry_) {
                telemetry_->count(TelemetryCounter::kReaderAcquire);
                sw.stop();
            })
            return true;
        }
        const std::uint64_t seq = sig_seq(sig);
        if (!deadline.is_immediate()) {
            w(g).add(slot, +1);                     // Line 34.
            help_wcs(g, seq);                       // Line 35.
            Backoff backoff;
            const bool acquired =                   // Line 36 (parked).
                wait_until(rsig_spot_, deadline, RWR_TELEM_PTR(telemetry_),
                           backoff, [&] { return rsig_.load() != sig; });
            w(g).add(slot, -1);                     // Line 37.
            RWR_TELEM(if (telemetry_) {
                telemetry_->count(TelemetryCounter::kReaderContended);
                telemetry_->note_backoff(backoff);
            })
            if (acquired) {
                RWR_TELEM(if (telemetry_) {
                    telemetry_->count(TelemetryCounter::kReaderAcquire);
                    sw.stop();
                })
                return true;
            }
        }
        // Abort: after the W[i] rollback above, undoing the C[i] increment
        // is exactly the exit section (lines 40-48) -- including the
        // handshake duties, so a writer waiting on this group still gets
        // its PROCEED/CS signal from us or from a remaining reader.
        shared_exit_section(g, slot);
        reader_release_guard(reader_id);
        RWR_TELEM(if (telemetry_) {
            telemetry_->count(TelemetryCounter::kReaderAbort);
            ids_[reader_id].retry.store(1, std::memory_order_relaxed);
            sw.stop_into(TelemetryHisto::kAbortLatency);
        })
        return false;
    }

    void unlock_shared(std::uint32_t reader_id) {
        check_reader(reader_id);
        reader_release_guard(reader_id);
        RWR_TELEM(TelemetryStopwatch sw(telemetry_, TelemetryHisto::kReaderExit);)
        shared_exit_section(reader_id / k_, reader_id % k_);
        RWR_TELEM(sw.stop();)
    }

    void lock(std::uint32_t writer_id) {
        lock_until(writer_id, Deadline::infinite());
    }

    /// Non-blocking writer acquisition: succeeds only if WL is won without
    /// waiting and no reader is present in any group. Failure rolls the
    /// protocol forward to the next passage number (the writer exit
    /// sequence), which releases any reader that parked on line 36.
    bool try_lock(std::uint32_t writer_id) {
        return lock_until(writer_id, Deadline::immediate());
    }

    template <class Rep, class Period>
    bool try_lock_for(std::uint32_t writer_id,
                      std::chrono::duration<Rep, Period> timeout) {
        return lock_until(writer_id, Deadline::after(timeout));
    }

    bool lock_until(std::uint32_t writer_id, Deadline deadline) {
        check_writer(writer_id);
        writer_acquire_guard(writer_id);
        TelemetryStopwatch sw(RWR_TELEM_PTR(telemetry_),
                              TelemetryHisto::kWriterEntry);
        RWR_TELEM(bool contended = false;
                  if (telemetry_ && writer_line(writer_id).retry.exchange(
                                        0, std::memory_order_relaxed) != 0) {
                      telemetry_->count(TelemetryCounter::kWriterAbortRetry);
                  })
        if (!wl_.lock_until(writer_id, deadline)) {  // Line 6.
            writer_release_guard(writer_id);
            RWR_TELEM(if (telemetry_) {
                telemetry_->count(TelemetryCounter::kWriterAbort);
                writer_line(writer_id).retry.store(1, std::memory_order_relaxed);
                sw.stop_into(TelemetryHisto::kAbortLatency);
            })
            return false;
        }
        const std::uint64_t seq = wseq_.load();  // Stable: we hold WL.
        note_wl_held(writer_id);

        // The handshake runs on locals: every seq_cst access below is a
        // compiler barrier, so a member read through `this` would be
        // reloaded after each one.
        const std::uint32_t groups = groups_;
        Signal* const wsig = wsig_.get();
        FArrayNode* const c_roots = trees_.get();  // C[i] at i * stride.
        const std::size_t stride = tree_nodes_;
        const std::uint32_t k = k_;
        const auto c_read = [c_roots, stride, k](std::uint32_t i) {
            return FArrayTree(&c_roots[i * stride], k).read();
        };

        for (std::uint32_t i = 0; i < groups; ++i) {  // Lines 7-9.
            wsig[i].word.store(pack(seq, kWsBot));
        }
        rsig_.store(pack(seq, kRsPreEntry));  // Line 11.
        rsig_spot_.wake_all(RWR_TELEM_PTR(telemetry_));

        for (std::uint32_t i = 0; i < groups; ++i) {  // Lines 12-17.
            if (c_read(i) > 0) {  // Line 13.
                RWR_TELEM(contended = true;)
                if (!await_wsig(wsig[i], pack(seq, kWsProceed),  // Line 14.
                                writer_id, seq, deadline, sw)) {
                    return false;
                }
            }
            // Line 16, the one store of the lock that is not seq_cst. A
            // reader acts on WAIT only through help_wcs's CAS, which it
            // runs after a seq_cst load of RSIG returns <seq, WAIT>; line
            // 18 stores that value after every line-16 store in program
            // order, so each line-16 store happens-before the CAS. The
            // only other reader access to WSIG[i] in this phase is line
            // 45's CAS, expecting <seq, BOT>: a read-modify-write, whose
            // outcome depends only on WSIG[i]'s modification order, which
            // the weaker order leaves alone. The Dekker pairs (lines
            // 11/13 and 18/20 against 31/32) stay seq_cst.
            wsig[i].word.store(pack(seq, kWsWait), std::memory_order_release);
        }

        rsig_.store(pack(seq, kRsWait));  // Line 18.
        rsig_spot_.wake_all(RWR_TELEM_PTR(telemetry_));

        for (std::uint32_t i = 0; i < groups; ++i) {  // Lines 19-23.
            if (c_read(i) != 0) {  // Line 20.
                RWR_TELEM(contended = true;)
                if (!await_wsig(wsig[i], pack(seq, kWsCs),  // Line 21.
                                writer_id, seq, deadline, sw)) {
                    return false;
                }
            }
        }
        RWR_TELEM(if (telemetry_) {
            telemetry_->count(TelemetryCounter::kWriterAcquire);
            if (contended) {
                telemetry_->count(TelemetryCounter::kWriterContended);
            }
            sw.stop();
        })
        return true;
    }

    void unlock(std::uint32_t writer_id) {
        check_writer(writer_id);
        check_wl_held(writer_id);
        RWR_TELEM(TelemetryStopwatch sw(telemetry_, TelemetryHisto::kWriterExit);)
        const std::uint64_t seq = wseq_.load();
        writer_exit_section(writer_id, seq);
        writer_release_guard(writer_id);
        RWR_TELEM(sw.stop();)
    }

    [[nodiscard]] std::uint32_t num_readers() const { return n_; }
    [[nodiscard]] std::uint32_t num_writers() const { return m_; }
    [[nodiscard]] std::uint32_t f() const { return f_; }
    [[nodiscard]] std::uint32_t group_size() const { return k_; }

   private:
    struct alignas(64) Signal {
        std::atomic<std::uint64_t> word{0};  // pack(0, kWsBot).
        /// The writer parks here when the group's handshake is pending;
        /// sharing the signal's line is intentional -- spot and word are
        /// touched by the same handshake parties, and a per-Signal futex
        /// word is what makes wakeups targeted (no herd across groups).
        ParkingSpot spot;
    };
    static_assert(sizeof(Signal) == 64 && alignof(Signal) == 64,
                  "one WSIG per cache line: adjacent groups' signals are "
                  "written by the writer and CASed by different readers");

    /// The per-id state, padded to a full line. Both flags are touched on
    /// every attempt, and only by the thread that holds the id, so they
    /// share a line with each other but never with another id's: packing
    /// ids per line would bounce that line across every core.
    struct alignas(64) IdLine {
#if RWR_AF_MISUSE_CHECKS
        /// Set while the id is in an acquisition or a passage.
        std::atomic<std::uint8_t> busy{0};
#endif
#if RWR_TELEMETRY
        /// "Last attempt aborted", behind the *_abort_retries counters: an
        /// attempt that finds it set is a retry (it is cleared on every
        /// attempt and re-set on every abort, so the counts are exact).
        std::atomic<std::uint8_t> retry{0};
#endif
    };
    static_assert(sizeof(IdLine) == 64 && alignof(IdLine) == 64,
                  "per-id guards must not share cache lines");

    /// Whether IdLine holds anything; ids_ stays null if not.
    static constexpr bool kIdLines = RWR_AF_MISUSE_CHECKS || RWR_TELEMETRY;

    IdLine& writer_line(std::uint32_t writer_id) {
        return ids_[std::size_t{n_} + writer_id];
    }

    /// Views of group g's trees in trees_.
    [[nodiscard]] FArrayTree c(std::uint32_t g) const {
        return {&trees_[std::size_t{g} * tree_nodes_], k_};
    }
    [[nodiscard]] FArrayTree w(std::uint32_t g) const {
        return {&trees_[(std::size_t{groups_} + g) * tree_nodes_], k_};
    }

    // Opcode encodings (see core/signals.hpp for the simulated twin).
    static constexpr std::uint64_t kRsNop = 0, kRsPreEntry = 1, kRsWait = 2;
    static constexpr std::uint64_t kWsBot = 0, kWsProceed = 1, kWsWait = 2,
                                   kWsCs = 3;

    static constexpr std::uint64_t pack(std::uint64_t seq, std::uint64_t op) {
        return (seq << 8) | op;
    }
    static constexpr std::uint64_t sig_seq(std::uint64_t w) { return w >> 8; }
    static constexpr std::uint64_t rs_op(std::uint64_t w) { return w & 0xff; }

    /// Exit section, lines 40-48: shared by unlock_shared and the reader
    /// abort path (which must discharge the same signalling obligations).
    void shared_exit_section(std::uint32_t g, std::uint32_t slot) {
        c(g).add(slot, -1);                      // Line 40.
        const std::uint64_t sig = rsig_.load();  // Line 41.
        const std::uint64_t seq = sig_seq(sig);
        if (rs_op(sig) == kRsPreEntry) {         // Line 42.
            if (c(g).read() == 0) {              // Line 43.
                std::uint64_t expected = pack(seq, kWsBot);
                if (wsig_[g].word.compare_exchange_strong(
                        expected, pack(seq, kWsProceed))) {  // Line 45.
                    wsig_[g].spot.wake_all(RWR_TELEM_PTR(telemetry_));
                }
            }
        } else if (rs_op(sig) == kRsWait) {  // Line 47.
            help_wcs(g, seq);                // Line 48.
        }
    }

    /// Exit section, lines 25-27: shared by unlock and the writer abort
    /// path. Advancing WSEQ invalidates every seq-stamped WSIG handshake of
    /// the aborted passage, and the RSIG store releases any reader parked
    /// on line 36.
    void writer_exit_section(std::uint32_t writer_id, std::uint64_t seq) {
        wseq_.store(seq + 1);                      // Line 25.
        rsig_.store(pack(seq + 1, kRsNop));        // Line 26.
        rsig_spot_.wake_all(RWR_TELEM_PTR(telemetry_));
        note_wl_released();
        wl_.unlock(writer_id);                     // Line 27.
    }

    void abort_writer_entry(std::uint32_t writer_id, std::uint64_t seq) {
        writer_exit_section(writer_id, seq);
        writer_release_guard(writer_id);
    }

    /// Lines 14 and 21: parks until `sig` holds `awaited`. On timeout it
    /// aborts the entry (lines 25-27) and returns false.
    bool await_wsig(Signal& sig, std::uint64_t awaited,
                    std::uint32_t writer_id, std::uint64_t seq,
                    Deadline& deadline, TelemetryStopwatch& sw) {
        Backoff backoff;
        const bool ok =
            wait_until(sig.spot, deadline, RWR_TELEM_PTR(telemetry_), backoff,
                       [&sig, awaited] { return sig.word.load() == awaited; });
        RWR_TELEM(if (telemetry_) telemetry_->note_backoff(backoff);)
        if (ok) {
            return true;
        }
        RWR_TELEM(if (telemetry_) {
            telemetry_->count(TelemetryCounter::kWriterAbort);
            writer_line(writer_id).retry.store(1, std::memory_order_relaxed);
            sw.stop_into(TelemetryHisto::kAbortLatency);
        })
        (void)sw;
        abort_writer_entry(writer_id, seq);
        return false;
    }

    /// Lines 50-54. W is read before C. While RSIG is <seq, WAIT>, every
    /// reader in W is also in C and stays in W until the writer exits, so
    /// W only grows; C equal to the earlier W then means C equalled W at
    /// the C read, with no reader in the CS. Read C-first, a reader that
    /// arrives between the two reads adds to both and hides a reader still
    /// in the CS (the stress test at n = 4, f = 1 caught such overlaps).
    /// A timed reader that aborts between the reads shrinks W and can
    /// still hide one; see DESIGN.md §7.
    void help_wcs(std::uint32_t g, std::uint64_t seq) {
        const std::int64_t w_sum = w(g).read();
        const std::int64_t c_sum = c(g).read();
        if (c_sum == w_sum) {
            std::uint64_t expected = pack(seq, kWsWait);
            if (wsig_[g].word.compare_exchange_strong(expected,
                                                      pack(seq, kWsCs))) {
                wsig_[g].spot.wake_all(RWR_TELEM_PTR(telemetry_));
            }
        }
    }

    static std::uint32_t validated_f(std::uint32_t n, std::uint32_t m,
                                     std::uint32_t f) {
        if (n == 0 || m == 0 || f == 0 || f > n) {
            throw std::invalid_argument("AfLock: need n,m >= 1, 1 <= f <= n");
        }
        return f;
    }

    void check_reader(std::uint32_t id) const {
        if (id >= n_) {
            throw std::invalid_argument("AfLock: reader id out of range");
        }
    }
    void check_writer(std::uint32_t id) const {
        if (id >= m_) {
            throw std::invalid_argument("AfLock: writer id out of range");
        }
    }

    // ---- Misuse detection (compiled out with RWR_AF_MISUSE_CHECKS=0) ----
#if RWR_AF_MISUSE_CHECKS
    void reader_acquire_guard(std::uint32_t id) {
        if (ids_[id].busy.exchange(1) != 0) {
            throw std::logic_error(
                "AfLock: reader id already in an acquisition or passage "
                "(concurrent id reuse or recursive lock_shared)");
        }
    }
    void reader_release_guard(std::uint32_t id) {
        if (ids_[id].busy.exchange(0) == 0) {
            throw std::logic_error(
                "AfLock: unlock_shared without matching lock_shared "
                "(double release would drive C[i] negative)");
        }
    }
    void writer_acquire_guard(std::uint32_t id) {
        if (writer_line(id).busy.exchange(1) != 0) {
            throw std::logic_error(
                "AfLock: writer id already in an acquisition or passage "
                "(concurrent id reuse or recursive lock)");
        }
    }
    void writer_release_guard(std::uint32_t id) {
        if (writer_line(id).busy.exchange(0) == 0) {
            throw std::logic_error(
                "AfLock: unlock without matching lock");
        }
    }
    void note_wl_held(std::uint32_t id) { wl_holder_.store(id); }
    void note_wl_released() { wl_holder_.store(kNoHolder); }
    void check_wl_held(std::uint32_t id) const {
        if (wl_holder_.load() != id) {
            throw std::logic_error(
                "AfLock: unlock by a writer that does not hold WL");
        }
    }
#else
    void reader_acquire_guard(std::uint32_t) {}
    void reader_release_guard(std::uint32_t) {}
    void writer_acquire_guard(std::uint32_t) {}
    void writer_release_guard(std::uint32_t) {}
    void note_wl_held(std::uint32_t) {}
    void note_wl_released() {}
    void check_wl_held(std::uint32_t) const {}
#endif

    std::uint32_t n_, m_, f_, k_, groups_;
    std::uint32_t tree_nodes_;  // farray_nodes(k_): the stride of trees_.
    TournamentMutex wl_;
    // All 2·groups f-array trees in one block, one node per line: C[g] is
    // tree g and W[g] is tree groups + g, so node i of tree t sits at
    // t·tree_nodes_ + i and every root is one indexed load.
    std::unique_ptr<FArrayNode[]> trees_;
    std::unique_ptr<Signal[]> wsig_;
    alignas(64) std::atomic<std::uint64_t> wseq_{0};
    alignas(64) std::atomic<std::uint64_t> rsig_{0};  // pack(0, kRsNop).
    /// Readers parked at line 36 wait here; every rsig_ store wakes it.
    alignas(64) ParkingSpot rsig_spot_;
#if RWR_TELEMETRY
    LockTelemetry* telemetry_ = nullptr;
#endif
    /// One IdLine per reader id, then one per writer id (writer w at
    /// n_ + w).
    std::unique_ptr<IdLine[]> ids_;
#if RWR_AF_MISUSE_CHECKS
    static constexpr std::uint32_t kNoHolder = 0xffffffffu;
    alignas(64) mutable std::atomic<std::uint32_t> wl_holder_{kNoHolder};
#endif
};

}  // namespace rwr::native
