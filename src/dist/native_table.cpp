#include "dist/native_table.hpp"

namespace rwr::dist {

std::uint64_t NativeTable::writer_acquire(Session& s, std::uint32_t lock) {
    const bool homed = lay_.config().homed;
    const GlobalAddr ticket_a = lay_.lock_word(lock, LockField::WTicket);
    const GlobalAddr grant_a = lay_.lock_word(lock, LockField::WGrant);

    const Word t = vfaa(s, ticket_a, 1);
    Word g = vread(s, grant_a);
    if (g != t) {
        if (homed) {
            const GlobalAddr slot_a = lay_.wslot_word(lock, t);
            const std::atomic<Word>& gw = at(lay_.gate_word(s.id));
            for (;;) {
                const Word epoch = gw.load();
                vwrite(s, slot_a, TableLayout::encode_wslot(t, s.id));
                g = vread(s, grant_a);
                if (g == t) {
                    break;
                }
                wait_gate(s, epoch);
            }
            vwrite(s, slot_a, 0);
        } else {
            native::Backoff bo;
            while (g != t) {
                bo.pause();
                g = vread(s, grant_a);
            }
        }
    }

    const GlobalAddr wflag_a = lay_.lock_word(lock, LockField::WFlag);
    const GlobalAddr rcount_a = lay_.lock_word(lock, LockField::RCount);
    vwrite(s, wflag_a, s.id + 1);
    if (homed) {
        const std::atomic<Word>& gw = at(lay_.gate_word(s.id));
        for (;;) {
            Word rc = vread(s, rcount_a);
            if (rc == 0) {
                break;
            }
            const Word epoch = gw.load();
            rc = vread(s, rcount_a);
            if (rc == 0) {
                break;
            }
            wait_gate(s, epoch);
        }
    } else {
        native::Backoff bo;
        while (vread(s, rcount_a) != 0) {
            bo.pause();
        }
    }

    const Word w =
        vcas(s, lay_.lock_word(lock, LockField::WWitness), 0, s.id + 1);
    if (w != 0) {
        note_violation(s);
    }
    return t;
}

void NativeTable::writer_release(Session& s, std::uint32_t lock,
                                 std::uint64_t ticket) {
    const bool homed = lay_.config().homed;
    const Word w = vcas(s, lay_.lock_word(lock, LockField::WWitness),
                        s.id + 1, 0);
    if (w != s.id + 1) {
        note_violation(s);
    }

    vwrite(s, lay_.lock_word(lock, LockField::WFlag), 0);
    vwrite(s, lay_.lock_word(lock, LockField::WGrant), ticket + 1);
    if (!homed) {
        return;  // Waiters poll WGrant / WFlag remotely.
    }

    const Word sv = vread(s, lay_.wslot_word(lock, ticket + 1));
    if (TableLayout::wslot_matches(sv, ticket + 1)) {
        bump_gate(s, TableLayout::wslot_session(sv));
    }

    const Word rw = vread(s, lay_.lock_word(lock, LockField::RWaiters));
    if (rw != 0) {
        for (std::uint32_t bw = 0; bw < lay_.bitmap_words(); ++bw) {
            const Word bits = vread(s, lay_.rbitmap_word(lock, bw));
            for (std::uint32_t b = 0; b < 64; ++b) {
                if ((bits >> b) & 1) {
                    bump_gate(s, bw * 64 + b);
                }
            }
        }
    }
}

void NativeTable::reader_acquire(Session& s, std::uint32_t lock) {
    const bool homed = lay_.config().homed;
    const GlobalAddr wflag_a = lay_.lock_word(lock, LockField::WFlag);
    const GlobalAddr rcount_a = lay_.lock_word(lock, LockField::RCount);

    for (;;) {
        Word f = vread(s, wflag_a);
        if (f == 0) {
            vfaa(s, rcount_a, 1);
            f = vread(s, wflag_a);
            if (f == 0) {
                const Word w =
                    vread(s, lay_.lock_word(lock, LockField::WWitness));
                if (w != 0) {
                    note_violation(s);
                }
                return;  // Entered.
            }
            // Backing out as the last counted reader: wake the writer
            // draining now (re-read after the decrement, as reader_release
            // does), not the one seen before it -- that one may be gone.
            const Word prev = vfaa(s, rcount_a, ~Word{0});
            if (prev == 1 && homed) {
                const Word drainer = vread(s, wflag_a);
                if (drainer != 0) {
                    bump_gate(s, static_cast<std::uint32_t>(drainer) - 1);
                }
            }
        }
        if (homed) {
            const GlobalAddr bit_a =
                lay_.rbitmap_word(lock, lay_.rbit_word_of(s.id));
            const Word mask = TableLayout::rbit_mask(s.id);
            const GlobalAddr rwait_a =
                lay_.lock_word(lock, LockField::RWaiters);
            const Word epoch = at(lay_.gate_word(s.id)).load();
            vfaa(s, bit_a, mask);
            vfaa(s, rwait_a, 1);
            const Word f2 = vread(s, wflag_a);
            if (f2 != 0) {
                wait_gate(s, epoch);
            }
            vfaa(s, bit_a, Word{0} - mask);
            vfaa(s, rwait_a, ~Word{0});
        } else {
            native::Backoff bo;
            while (vread(s, wflag_a) != 0) {
                bo.pause();
            }
        }
    }
}

void NativeTable::reader_release(Session& s, std::uint32_t lock) {
    const bool homed = lay_.config().homed;
    const Word w = vread(s, lay_.lock_word(lock, LockField::WWitness));
    if (w != 0) {
        note_violation(s);
    }
    const Word prev =
        vfaa(s, lay_.lock_word(lock, LockField::RCount), ~Word{0});
    if (prev == 1 && homed) {
        const Word f = vread(s, lay_.lock_word(lock, LockField::WFlag));
        if (f != 0) {
            bump_gate(s, static_cast<std::uint32_t>(f) - 1);
        }
    }
}

}  // namespace rwr::dist
