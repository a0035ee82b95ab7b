#include "sim/driver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "harness/pool.hpp"
#include "sim/checker.hpp"
#include "sim/rme_checker.hpp"
#include "sim/scheduler.hpp"

namespace rwr::sim {

const char* to_string(SchedKind s) {
    switch (s) {
        case SchedKind::RoundRobin: return "round-robin";
        case SchedKind::Random: return "oblivious";
        case SchedKind::AdaptiveRmr: return "adaptive";
    }
    return "?";
}

SimTask<RecoveryOutcome> EpisodeAdapter::recover(Process& p) {
    (void)p;
    throw std::logic_error("EpisodeAdapter::recover: adapter not recoverable");
}

SimTask<void> run_episodes(EpisodeAdapter& ep, Process& p, DriveConfig cfg,
                           bool recovering) {
    SectionStats before = p.stats();
    const auto record = [&](EpisodeKind kind) {
        if (cfg.records != nullptr) {
            cfg.records->push_back(PassageRecord{p.stats() - before, kind});
        }
    };
    bool in_cs = false;
    if (recovering) {
        // Section is already Recover here (Process::complete_step set it).
        const RecoveryOutcome out = co_await ep.recover(p);
        record(EpisodeKind::Recovery);
        in_cs = out == RecoveryOutcome::InCriticalSection;
        if (!in_cs) {
            p.set_section(Section::Remainder);
        }
        if (out == RecoveryOutcome::LockReleased) {
            p.note_passage_complete();
            record(EpisodeKind::Passage);
        }
    }
    while (in_cs || p.completed_passages() < cfg.passages) {
        if (!in_cs) {
            before = p.stats();
            p.set_section(Section::Entry);
            const EnterResult r = co_await ep.enter(p);
            if (r == EnterResult::Aborted) {
                p.set_section(Section::Remainder);
                record(EpisodeKind::Aborted);
                // One remainder beat between attempts, so consecutive
                // attempts are distinct scheduling epochs (and the checker
                // sees the process leave the entry section).
                co_await p.local_step();
                continue;
            }
        }
        in_cs = false;
        p.set_section(Section::Critical);
        const std::uint64_t cs_steps = ep.cs_steps(p, cfg.cs_steps);
        for (std::uint64_t s = 0; s < cs_steps; ++s) {
            co_await p.local_step();
        }
        p.set_section(Section::Exit);
        co_await ep.exit(p);
        p.set_section(Section::Remainder);
        p.note_passage_complete();
        record(EpisodeKind::Passage);
        for (std::uint64_t s = 0; s < cfg.remainder_steps; ++s) {
            co_await p.local_step();
        }
    }
}

EpisodeBuilder rw_episodes(
    std::function<std::unique_ptr<SimRWLock>(Memory&)> make, std::uint32_t n,
    std::uint32_t m) {
    return [make = std::move(make), n, m](System& sys, const DriverConfig&)
               -> std::unique_ptr<EpisodeAdapter> {
        auto lock = make(sys.memory());
        for (std::uint32_t r = 0; r < n; ++r) {
            sys.add_process(Role::Reader);
        }
        for (std::uint32_t w = 0; w < m; ++w) {
            sys.add_process(Role::Writer);
        }
        return std::make_unique<RwLockEpisodes>(std::move(lock));
    };
}

namespace {

/// Everything one run owns; the explorer keeps it alive via
/// Scenario::extra.
struct Built {
    std::unique_ptr<System> sys;
    std::unique_ptr<EpisodeAdapter> episodes;
    std::vector<std::vector<PassageRecord>> records;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<MutualExclusionChecker> me;
    std::unique_ptr<RmeChecker> rme;
};

std::unique_ptr<Built> build(const DriverConfig& cfg, bool throwing) {
    if (!cfg.episodes) {
        throw std::invalid_argument("DriverConfig: no episode builder");
    }
    auto b = std::make_unique<Built>();
    b->sys = std::make_unique<System>(cfg.protocol);
    b->episodes = cfg.episodes(*b->sys, cfg);
    EpisodeAdapter* ep = b->episodes.get();
    const bool recoverable = ep->recoverable();
    b->records.resize(b->sys->num_processes());
    for (ProcId id = 0; id < b->sys->num_processes(); ++id) {
        Process& p = b->sys->process(id);
        DriveConfig dc;
        dc.passages = cfg.passages;
        dc.cs_steps = cfg.cs_steps;
        dc.records = &b->records[id];
        p.set_task(run_episodes(*ep, p, dc));
        if (recoverable) {
            p.set_restart_factory([ep, dc](Process& q) {
                return run_episodes(*ep, q, dc, /*recovering=*/true);
            });
        }
    }

    // Observer order is part of each tier's bit-identity: a recoverable run
    // latches faults before either checker looks; the others check ME
    // first.
    if (!cfg.faults.empty()) {
        b->injector = std::make_unique<FaultInjector>(*b->sys, cfg.faults);
    }
    if (recoverable && b->injector) {
        b->sys->add_observer(b->injector.get());
    }
    if (cfg.check_mutual_exclusion && ep->shares_one_cs()) {
        b->me = std::make_unique<MutualExclusionChecker>(throwing);
        b->sys->add_observer(b->me.get());
    }
    if (!recoverable && b->injector) {
        b->sys->add_observer(b->injector.get());
    }
    if (recoverable) {
        RmeChecker::Options opts;
        opts.throw_on_violation = throwing;
        opts.recovery_step_bound = cfg.recovery_step_bound;
        opts.chain_recovery_step_bound = cfg.chain_recovery_step_bound;
        b->rme = std::make_unique<RmeChecker>(opts);
        b->sys->add_observer(b->rme.get());
    }
    return b;
}

void add_passage(RoleStats& rs, const SectionStats& d) {
    ++rs.num_passages;
    for (int s = 0; s < kNumSections; ++s) {
        rs.mean_rmrs[s] += static_cast<double>(d.rmrs[s]);
        rs.max_rmrs[s] = std::max(rs.max_rmrs[s], d.rmrs[s]);
        rs.mean_steps[s] += static_cast<double>(d.steps[s]);
        rs.max_steps[s] = std::max(rs.max_steps[s], d.steps[s]);
    }
    const auto prmrs = d.passage_rmrs();
    rs.mean_passage_rmrs += static_cast<double>(prmrs);
    rs.max_passage_rmrs = std::max(rs.max_passage_rmrs, prmrs);
}

void finish_means(RoleStats& rs) {
    if (rs.num_passages == 0) {
        return;
    }
    const auto denom = static_cast<double>(rs.num_passages);
    for (int s = 0; s < kNumSections; ++s) {
        rs.mean_rmrs[s] /= denom;
        rs.mean_steps[s] /= denom;
    }
    rs.mean_passage_rmrs /= denom;
}

/// Folds the episode ledger into the role, amortized and recovery groups.
void aggregate(const System& sys, DriverResult& res) {
    AmortizedStats& am = res.amortized;
    RecoverySummary& rec = res.rme.recovery;
    constexpr auto kRec = static_cast<std::size_t>(Section::Recover);
    for (ProcId id = 0; id < sys.num_processes(); ++id) {
        RoleStats& rs =
            sys.process(id).is_reader() ? res.readers : res.writers;
        for (const PassageRecord& r : res.records[id]) {
            const std::uint64_t rmrs = r.delta.total_rmrs();
            switch (r.kind) {
                case EpisodeKind::Passage:
                    add_passage(rs, r.delta);
                    ++am.episodes;
                    ++am.passages;
                    am.episode_rmrs += rmrs;
                    break;
                case EpisodeKind::Aborted:
                    ++am.episodes;
                    ++am.aborted_episodes;
                    am.episode_rmrs += rmrs;
                    am.abort_rmrs += rmrs;
                    am.abort_rmr_max = std::max(am.abort_rmr_max, rmrs);
                    break;
                case EpisodeKind::Recovery:
                    ++rec.episodes;
                    rec.mean_rmrs += static_cast<double>(r.delta.rmrs[kRec]);
                    rec.max_rmrs = std::max(rec.max_rmrs, r.delta.rmrs[kRec]);
                    rec.mean_steps +=
                        static_cast<double>(r.delta.steps[kRec]);
                    rec.max_steps =
                        std::max(rec.max_steps, r.delta.steps[kRec]);
                    break;
            }
        }
    }
    finish_means(res.readers);
    finish_means(res.writers);
    if (rec.episodes > 0) {
        rec.mean_rmrs /= static_cast<double>(rec.episodes);
        rec.mean_steps /= static_cast<double>(rec.episodes);
    }
}

std::unique_ptr<Scheduler> make_scheduler(const DriverConfig& cfg) {
    if (!cfg.replay.empty()) {
        return std::make_unique<ReplayScheduler>(cfg.replay);
    }
    switch (cfg.sched) {
        case SchedKind::RoundRobin:
            return std::make_unique<RoundRobinScheduler>();
        case SchedKind::Random:
            return std::make_unique<RandomScheduler>(cfg.seed);
        case SchedKind::AdaptiveRmr:
            return std::make_unique<AdaptiveRmrScheduler>(cfg.seed);
    }
    throw std::invalid_argument("DriverConfig: unknown scheduler");
}

}  // namespace

DriverResult run_driver(const DriverConfig& cfg) {
    std::unique_ptr<Built> b = build(cfg, /*throwing=*/false);
    System& sys = *b->sys;
    DriverResult res;

    std::unique_ptr<ProgressChecker> progress;
    if (cfg.progress_window > 0) {
        progress = std::make_unique<ProgressChecker>(
            cfg.progress_window, /*throw_on_violation=*/false);
        sys.add_observer(progress.get());
    }
    std::unique_ptr<Scheduler> sched = make_scheduler(cfg);
    std::unique_ptr<RecordingScheduler> recorder;
    Scheduler* active = sched.get();
    if (cfg.record_schedule) {
        recorder = std::make_unique<RecordingScheduler>(*sched);
        active = recorder.get();
    }

    // Run in bounded chunks so a livelocked simulation honours the wall
    // deadline instead of spinning through all of max_steps. Chunking is
    // invisible to the schedulers (they are stateful per pick), so recorded
    // schedules replay identically regardless of chunk boundaries.
    const auto wall_deadline =
        cfg.wall_deadline_ms > 0
            ? std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(cfg.wall_deadline_ms)
            : std::chrono::steady_clock::time_point::max();
    constexpr std::uint64_t kChunk = 65536;
    std::uint64_t remaining = cfg.max_steps;
    const auto sim_start = std::chrono::steady_clock::now();
    while (remaining > 0) {
        const std::uint64_t chunk = std::min(remaining, kChunk);
        const RunResult rr = run(sys, *active, chunk);
        res.steps += rr.steps;
        remaining -= rr.steps;
        res.finished = rr.all_finished;
        if (res.finished || rr.steps < chunk) {
            break;  // Done, or no process is runnable.
        }
        if (std::chrono::steady_clock::now() >= wall_deadline) {
            res.deadline_expired = true;
            res.progress_diagnosis +=
                "wall deadline (" + std::to_string(cfg.wall_deadline_ms) +
                " ms) expired after " + std::to_string(res.steps) +
                " steps\n" + ProgressChecker::describe(sys);
            break;
        }
    }
    res.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - sim_start)
                      .count();
    sys.check_failures();
    if (b->injector) {
        // Hard error (with per-fault diagnostics) when the plan demands
        // every fault land and some never did -- the run just measured a
        // healthier execution than the one configured.
        b->injector->assert_all_fired();
        res.faults_fired = b->injector->num_fired();
    }

    res.all_surviving_finished = sys.all_surviving_finished();
    res.crashed = sys.num_crashed();
    res.stalled_at_exit = sys.num_stalled();
    if (b->me) {
        res.max_concurrent_readers = b->me->max_concurrent_readers();
        res.me_violations = b->me->violations();
        res.first_violation = b->me->first_violation();
    }
    if (b->rme) {
        res.rme.violations = b->rme->violations();
        res.rme.restarts = b->rme->total_restarts();
        res.rme.max_recovery_steps = b->rme->max_recovery_steps();
        res.rme.max_chain_recovery_steps =
            b->rme->max_chain_recovery_steps();
        if (!b->rme->first_violation().empty()) {
            res.first_violation = b->rme->first_violation();
        }
    }
    if (progress) {
        res.livelock = progress->livelock_detected();
        res.starvation = progress->starvation_detected();
        res.progress_diagnosis += progress->diagnosis();
    }
    if (recorder) {
        res.schedule = recorder->choices();
    }
    res.records = std::move(b->records);
    aggregate(sys, res);
    res.memory_rmrs = sys.memory().total_rmrs();
    res.proc_rmrs = sys.memory().proc_rmrs();
    res.proc_rmrs.resize(sys.num_processes(), 0);
    b->episodes->report(res);
    return res;
}

std::vector<DriverResult> run_drivers(const std::vector<DriverConfig>& cfgs,
                                      unsigned jobs) {
    std::vector<DriverResult> results(cfgs.size());
    harness::parallel_for(cfgs.size(), jobs, [&](std::size_t i) {
        results[i] = run_driver(cfgs[i]);
    });
    return results;
}

ScenarioFactory driver_factory(DriverConfig cfg) {
    return [cfg = std::move(cfg)]() {
        std::shared_ptr<Built> b = build(cfg, /*throwing=*/true);
        Scenario sc;
        sc.sys = std::move(b->sys);
        sc.extra = std::move(b);
        // Crash / crash-restart faults fire on victim-local per-section
        // step counts, which commute with independent steps, so reduction
        // stays sound. Stall faults resume on a *global* step-count
        // deadline: reordering independent steps moves the deadline
        // relative to the victim, so the explorer must not prune.
        for (const FaultSpec& f : cfg.faults.faults) {
            if (f.kind == FaultKind::Stall) {
                sc.reduction_safe = false;
            }
        }
        return sc;
    };
}

}  // namespace rwr::sim
