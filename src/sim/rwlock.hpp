// Abstract interface for simulated reader-writer locks, plus its episode
// adapter and the standard passage driver built on it.
//
// A lock implementation allocates its shared variables from the System's
// Memory at construction and expresses its entry/exit sections as SimTask
// coroutines; each shared access inside them is a scheduling point.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "sim/episode.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"

namespace rwr::sim {

class SimRWLock {
   public:
    virtual ~SimRWLock() = default;

    virtual SimTask<void> reader_entry(Process& p) = 0;
    virtual SimTask<void> reader_exit(Process& p) = 0;
    virtual SimTask<void> writer_entry(Process& p) = 0;
    virtual SimTask<void> writer_exit(Process& p) = 0;

    [[nodiscard]] virtual std::string name() const = 0;
};

/// The RW lock adapter: each process enters and exits by its role.
class RwLockEpisodes final : public EpisodeAdapter {
   public:
    explicit RwLockEpisodes(SimRWLock& lock) : lock_(lock) {}
    explicit RwLockEpisodes(std::unique_ptr<SimRWLock> lock)
        : owned_(std::move(lock)), lock_(*owned_) {}

    SimTask<EnterResult> enter(Process& p) override {
        if (p.is_reader()) {
            co_await lock_.reader_entry(p);
        } else {
            co_await lock_.writer_entry(p);
        }
        co_return EnterResult::Acquired;
    }
    SimTask<void> exit(Process& p) override {
        return p.is_reader() ? lock_.reader_exit(p) : lock_.writer_exit(p);
    }

   private:
    std::unique_ptr<SimRWLock> owned_;
    SimRWLock& lock_;
};

/// Standard passage driver: runs `cfg.passages` more passages of `p`
/// through `lock` on the episode loop, maintaining section markers and
/// optional per-passage records.
inline SimTask<void> drive_passages(SimRWLock& lock, Process& p,
                                    DriveConfig cfg) {
    RwLockEpisodes episodes(lock);
    cfg.passages += p.completed_passages();
    co_await run_episodes(episodes, p, cfg);
}

}  // namespace rwr::sim
