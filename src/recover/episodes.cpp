#include "recover/episodes.hpp"

#include <memory>
#include <optional>

#include "recover/recoverable_jjj_mutex.hpp"
#include "recover/recoverable_mutex.hpp"
#include "recover/recoverable_rwlock.hpp"

namespace rwr::recover {

std::string to_string(RecoverLockKind k) {
    switch (k) {
        case RecoverLockKind::Mutex: return "rmx";
        case RecoverLockKind::JJJMutex: return "rjjj";
        case RecoverLockKind::RwLock: return "rrw";
        case RecoverLockKind::RwLockJJJ: return "rrwj";
    }
    return "?";
}

bool is_mutex_kind(RecoverLockKind k) {
    return k == RecoverLockKind::Mutex || k == RecoverLockKind::JJJMutex;
}

std::uint32_t num_processes(const RecoverSpec& spec) {
    return is_mutex_kind(spec.lock) ? spec.m : spec.n + spec.m;
}

namespace {

class RecoverableEpisodes final : public sim::EpisodeAdapter {
   public:
    explicit RecoverableEpisodes(std::unique_ptr<RecoverableLock> lock)
        : lock_(std::move(lock)) {}

    sim::SimTask<sim::EnterResult> enter(sim::Process& p) override {
        co_await lock_->entry(p);
        co_return sim::EnterResult::Acquired;
    }
    sim::SimTask<void> exit(sim::Process& p) override {
        return lock_->exit(p);
    }
    [[nodiscard]] bool recoverable() const override { return true; }
    sim::SimTask<sim::RecoveryOutcome> recover(sim::Process& p) override {
        RecoveryOutcome out = RecoveryOutcome::None;
        co_await lock_->recover(p, out);
        co_return out;
    }

   private:
    std::unique_ptr<RecoverableLock> lock_;
};

std::unique_ptr<RecoverableLock> make_lock(const RecoverSpec& spec,
                                           Memory& mem) {
    switch (spec.lock) {
        case RecoverLockKind::Mutex:
            return std::make_unique<RecoverableTournamentMutex>(mem, "rmx",
                                                                spec.m);
        case RecoverLockKind::JJJMutex:
            return std::make_unique<RecoverableJJJMutex>(
                mem, "rjjj", spec.m, spec.delta,
                spec.dsm_home ? std::optional<ProcId>{ProcId{0}}
                              : std::nullopt);
        case RecoverLockKind::RwLock:
            return std::make_unique<RecoverableRWLock>(mem, "rrw", spec.n,
                                                       spec.m, spec.f);
        case RecoverLockKind::RwLockJJJ:
            return std::make_unique<RecoverableRWLock>(
                mem, "rrwj", spec.n, spec.m, spec.f, WriterLockKind::JJJ);
    }
    return nullptr;
}

}  // namespace

sim::EpisodeBuilder recover_episodes(const RecoverSpec& spec) {
    return [spec](sim::System& sys, const sim::DriverConfig&)
               -> std::unique_ptr<sim::EpisodeAdapter> {
        auto lock = make_lock(spec, sys.memory());
        const std::uint32_t readers = is_mutex_kind(spec.lock) ? 0 : spec.n;
        for (std::uint32_t r = 0; r < readers; ++r) {
            sys.add_process(sim::Role::Reader);
        }
        for (std::uint32_t w = 0; w < spec.m; ++w) {
            sys.add_process(sim::Role::Writer);
        }
        return std::make_unique<RecoverableEpisodes>(std::move(lock));
    };
}

}  // namespace rwr::recover
