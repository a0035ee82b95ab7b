#include "mutex/episodes.hpp"

#include <cmath>
#include <vector>

#include "sim/por.hpp"

namespace rwr::mutex {

namespace {

/// Any SimMutex, slot = pid.
class MutexEpisodes : public sim::EpisodeAdapter {
   public:
    explicit MutexEpisodes(std::unique_ptr<SimMutex> mx) : mx_(std::move(mx)) {}

    sim::SimTask<sim::EnterResult> enter(sim::Process& p) override {
        co_await mx_->enter(p, p.id());
        co_return sim::EnterResult::Acquired;
    }
    sim::SimTask<void> exit(sim::Process& p) override {
        return mx_->exit(p, p.id());
    }

   protected:
    std::unique_ptr<SimMutex> mx_;
};

/// Uniform double in [0, 1) from a SplitMix64 state, advancing it.
double u01(std::uint64_t& state) {
    state = sim::splitmix64(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
}

/// An AbortableSimMutex under the seeded abort mix; each slot draws its
/// attempt's coin before Entry from its own stream.
class AbortableEpisodes final : public MutexEpisodes {
   public:
    AbortableEpisodes(std::unique_ptr<SimMutex> mx, AbortableSimMutex& amx,
                      std::uint32_t m, AbortWorkload aborts,
                      std::uint64_t seed)
        : MutexEpisodes(std::move(mx)),
          amx_(amx),
          aborts_(std::move(aborts)),
          first_(m, true) {
        for (std::uint32_t s = 0; s < m; ++s) {
            streams_.push_back(sim::stream_seed(seed, s));
        }
    }

    sim::SimTask<sim::EnterResult> enter(sim::Process& p) override {
        const std::uint32_t slot = p.id();
        AbortControl ctl = AbortControl::never();
        if (aborts_.abort_rate > 0.0) {
            std::uint64_t& stream = streams_[slot];
            const double coin = u01(stream);
            if (coin < aborts_.abort_rate) {
                stream = sim::splitmix64(stream);
                const std::uint64_t span =
                    aborts_.patience_hi - aborts_.patience_lo + 1;
                ctl = AbortControl::after(aborts_.patience_lo +
                                          stream % span);
            }
        }
        if (first_[slot] && slot == aborts_.aborter &&
            aborts_.first_patience != AbortControl::kNever) {
            ctl = AbortControl::after(aborts_.first_patience);
        }
        first_[slot] = false;
        const sim::EnterResult r = co_await amx_.enter_abortable(p, slot, ctl);
        if (r == sim::EnterResult::Aborted && aborts_.fired) {
            aborts_.fired->fetch_add(1, std::memory_order_relaxed);
        }
        co_return r;
    }

   private:
    AbortableSimMutex& amx_;
    AbortWorkload aborts_;
    std::vector<std::uint64_t> streams_;
    std::vector<bool> first_;
};

}  // namespace

sim::EpisodeBuilder mutex_episodes(MutexBuilder builder, std::uint32_t m,
                                   AbortWorkload aborts) {
    return [builder = std::move(builder), m, aborts = std::move(aborts)](
               sim::System& sys, const sim::DriverConfig& cfg)
               -> std::unique_ptr<sim::EpisodeAdapter> {
        std::unique_ptr<SimMutex> mx = builder(sys.memory());
        for (std::uint32_t s = 0; s < m; ++s) {
            sys.add_process(sim::Role::Writer);
        }
        if (auto* amx = dynamic_cast<AbortableSimMutex*>(mx.get())) {
            return std::make_unique<AbortableEpisodes>(std::move(mx), *amx, m,
                                                       aborts, cfg.seed);
        }
        return std::make_unique<MutexEpisodes>(std::move(mx));
    };
}

TrialStats estimate_expected_amortized(
    const std::function<sim::DriverConfig(std::uint64_t)>& make_cfg,
    std::uint64_t trials, std::uint64_t seed) {
    TrialStats out;
    out.trials = trials;
    if (trials == 0) {
        return out;
    }
    std::vector<double> xs;
    xs.reserve(trials);
    for (std::uint64_t i = 0; i < trials; ++i) {
        const sim::DriverResult r =
            sim::run_driver(make_cfg(sim::stream_seed(seed, i)));
        xs.push_back(r.amortized.amortized_rmrs_per_passage());
    }
    double sum = 0.0;
    for (std::uint64_t i = 0; i < trials; ++i) {
        sum += xs[i];
        // Strict argmax, ties to the lowest index: any parallel re-ordering
        // of the trials would still reduce to the same (worst, worst_trial).
        if (xs[i] > out.worst) {
            out.worst = xs[i];
            out.worst_trial = i;
        }
    }
    out.mean = sum / static_cast<double>(trials);
    if (trials > 1) {
        double ss = 0.0;
        for (const double x : xs) {
            ss += (x - out.mean) * (x - out.mean);
        }
        out.stddev = std::sqrt(ss / static_cast<double>(trials - 1));
        out.ci95 = 1.96 * out.stddev / std::sqrt(static_cast<double>(trials));
    }
    return out;
}

}  // namespace rwr::mutex
