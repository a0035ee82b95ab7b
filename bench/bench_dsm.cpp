// E11 -- the CC/DSM separation (paper Discussion, Danek-Hadzilacos [9]).
//
// "A lower bound of Danek and Hadzilacos implies an Ω(n) RMRs lower bound
// on Distributed Shared Memory (DSM) reader-writer locks. This linear
// bound does not apply to the CC model, however."
//
// We run the same A_f workloads under cache-coherent write-back and under
// DSM accounting (counter leaves homed at their owners, everything else
// remote). In CC, reader RMRs are Θ(log(n/f)); in DSM, busy-wait re-reads
// and every access to group-shared variables (counter internal nodes,
// RSIG, WSIG) are remote, so reader costs blow past logarithmic -- the
// algorithm is a CC algorithm, exactly as the theory says it must be.
//
// Bonus observation: Lemma 1 ("every expanding step incurs an RMR") is
// itself CC-specific. Under DSM a variable's *owner* reads newly-written
// values locally, so expanding-but-free steps occur; the table counts them.
//
// Flags:
//   --json <path>  emit the E11a grid and E11b waiting costs as
//                  "rwr-bench-v1" rows (sim-exact, deterministic), so the
//                  DSM numbers reach bench_compare gating like every other
//                  experiment. E11b rows disambiguate the hold duration
//                  via the "workload" key field ("holdN").
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "harness/bench_json.hpp"
#include "harness/locks.hpp"
#include "harness/table.hpp"
#include "knowledge/awareness.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace rwr;
using namespace rwr::harness;

struct DsmPoint {
    double rd = 0, wr = 0;
    std::uint64_t lemma1_free_expansions = 0;
    std::vector<std::uint64_t> proc_rmrs;
};

DsmPoint measure(Protocol proto, std::uint32_t n, std::uint32_t f) {
    sim::System sys(proto);
    auto lock = make_sim_lock(LockKind::Af, sys.memory(), n, 1, f);
    std::vector<std::vector<sim::PassageRecord>> records(n + 1);
    for (std::uint32_t r = 0; r < n; ++r) {
        sim::Process& p = sys.add_process(sim::Role::Reader);
        sim::DriveConfig dc;
        dc.passages = 2;
        dc.records = &records[p.id()];
        p.set_task(sim::drive_passages(*lock, p, dc));
    }
    sim::Process& w = sys.add_process(sim::Role::Writer);
    sim::DriveConfig dcw;
    dcw.passages = 2;
    dcw.records = &records[w.id()];
    w.set_task(sim::drive_passages(*lock, w, dcw));

    knowledge::AwarenessTracker tracker(n + 1, sys.memory().num_variables());
    sys.add_observer(&tracker);

    sim::RoundRobinScheduler rr;
    sim::run(sys, rr, 100'000'000);

    DsmPoint out;
    std::uint64_t rd_passages = 0, wr_passages = 0;
    for (ProcId id = 0; id <= n; ++id) {
        for (const auto& rec : records[id]) {
            if (sys.process(id).is_reader()) {
                out.rd += static_cast<double>(rec.delta.passage_rmrs());
                ++rd_passages;
            } else {
                out.wr += static_cast<double>(rec.delta.passage_rmrs());
                ++wr_passages;
            }
        }
    }
    out.rd /= std::max<std::uint64_t>(1, rd_passages);
    out.wr /= std::max<std::uint64_t>(1, wr_passages);
    out.lemma1_free_expansions = tracker.lemma1_violations();
    out.proc_rmrs = sys.memory().proc_rmrs();
    out.proc_rmrs.resize(n + 1, 0);
    return out;
}

void e11a_row(json::Value* results, Protocol proto, std::uint32_t n,
              std::uint32_t f, const DsmPoint& pt) {
    if (results == nullptr) {
        return;
    }
    auto row = json::Value::object();
    row.set("lock", "e11-af");
    row.set("protocol", to_string(proto));
    row.set("n", n);
    row.set("m", 1);
    row.set("f", f);
    row.set("threads", n + 1);
    auto rmr = json::Value::object();
    rmr.set("reader_mean_passage", pt.rd);
    rmr.set("writer_mean_passage", pt.wr);
    row.set("sim_rmr", std::move(rmr));
    row.set("proc_rmr", bench::proc_rmr_to_json(pt.proc_rmrs, n));
    results->push_back(std::move(row));
}

}  // namespace

/// Reader RMRs accrued while *waiting* for a writer that occupies the CS
/// for `cs_hold` steps: CC write-back charges O(1) for the whole wait (the
/// spin variable is cached until the writer's single release write); DSM
/// charges every re-read.
std::pair<std::uint64_t, std::uint64_t> waiting_cost(Protocol proto,
                                                     std::uint64_t cs_hold) {
    sim::System sys(proto);
    auto lock = make_sim_lock(LockKind::Af, sys.memory(), 1, 1, 1);
    sim::Process& r = sys.add_process(sim::Role::Reader);
    sim::Process& w = sys.add_process(sim::Role::Writer);
    sim::DriveConfig rc;
    rc.passages = 1;
    r.set_task(sim::drive_passages(*lock, r, rc));
    sim::DriveConfig wc;
    wc.passages = 1;
    wc.cs_steps = cs_hold;
    w.set_task(sim::drive_passages(*lock, w, wc));
    sys.start_all();

    // Writer through its entry and into the CS...
    sim::run_solo(sys, w.id(), 100'000,
                  [](const sim::Process& p) { return p.in_cs(); });
    // ...now the reader arrives, observes WAIT, and spins. Interleave one
    // reader step per writer (CS) step so the spin lasts cs_hold steps.
    while (w.in_cs() && w.runnable()) {
        sys.step(r.id());
        sys.step(w.id());
    }
    // Let both finish.
    sim::RoundRobinScheduler rr;
    sim::run(sys, rr, 100'000);
    return {r.stats().rmrs_in(Section::Entry), cs_hold};
}

int main(int argc, char** argv) {
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        }
    }
    auto doc = rwr::harness::bench::make_doc("dsm");
    rwr::harness::json::Value* results = nullptr;
    if (!json_path.empty()) {
        results =
            &doc.set("results", rwr::harness::json::Value::array());
    }

    std::cout << "bench_dsm: A_f under cache-coherent write-back vs DSM "
                 "accounting (E11)\n";

    std::cout << "\n--- E11a: per-passage RMRs, light contention (constant-"
                 "factor inflation) ---\n";
    Table t({"n", "f", "rd CC", "rd DSM", "DSM/CC", "wr CC", "wr DSM"});
    for (const std::uint32_t n : {8u, 16u, 32u, 64u, 128u}) {
        std::uint32_t f = 1;
        while (f * f < n) {
            ++f;
        }
        const auto cc = measure(Protocol::WriteBack, n, f);
        const auto dsm = measure(Protocol::Dsm, n, f);
        e11a_row(results, Protocol::WriteBack, n, f, cc);
        e11a_row(results, Protocol::Dsm, n, f, dsm);
        t.row({fmt(n), fmt(f), fmt(cc.rd), fmt(dsm.rd),
               fmt(dsm.rd / std::max(1.0, cc.rd), 1), fmt(cc.wr),
               fmt(dsm.wr)});
    }
    t.print();

    std::cout << "\n--- E11b: the real separation -- RMRs a reader pays "
                 "while WAITING for a writer holding the CS ---\n";
    Table t2({"writer CS steps", "reader entry RMRs (CC)",
              "reader entry RMRs (DSM)"});
    for (const std::uint64_t hold : {4u, 16u, 64u, 256u, 1024u}) {
        const auto cc = waiting_cost(Protocol::WriteBack, hold);
        const auto dsm = waiting_cost(Protocol::Dsm, hold);
        if (results != nullptr) {
            for (const auto& [proto, cost] :
                 {std::pair{Protocol::WriteBack, cc.first},
                  std::pair{Protocol::Dsm, dsm.first}}) {
                auto row = rwr::harness::json::Value::object();
                row.set("lock", "e11b-wait");
                row.set("protocol", to_string(proto));
                row.set("n", 1);
                row.set("m", 1);
                row.set("f", 1);
                row.set("threads", 2);
                // The hold duration is part of the bench_diff row key.
                row.set("workload", "hold" + std::to_string(hold));
                auto rmr = rwr::harness::json::Value::object();
                // Entry RMRs of the single waiting reader for the whole
                // (one-passage) wait -- the E11b separation metric.
                rmr.set("reader_mean_passage", cost);
                rmr.set("writer_mean_passage", 0);
                row.set("sim_rmr", std::move(rmr));
                results->push_back(std::move(row));
            }
        }
        t2.row({fmt(hold), fmt(cc.first), fmt(dsm.first)});
    }
    t2.print();
    std::cout << "(CC: the line-36 spin is LOCAL -- O(1) RMRs no matter how "
                 "long the writer holds the CS, the heart of Lemma 17. "
                 "DSM: every re-read of RSIG is remote, so waiting cost "
                 "grows linearly -- A_f is a CC algorithm, and the "
                 "Danek-Hadzilacos Ω(n) DSM bound does not contradict it.)\n";

    std::cout << "\n--- E11c: Lemma 1 is CC-specific (micro-demo) ---\n";
    {
        sim::System sys(Protocol::Dsm);
        const VarId v = sys.memory().allocate("v", 0, /*owner=*/0);
        sim::Process& owner = sys.add_process(sim::Role::Reader);
        sim::Process& remote = sys.add_process(sim::Role::Reader);
        struct Progs {
            static sim::SimTask<void> write_once(sim::Process& p, VarId var) {
                co_await p.write(var, 42);
            }
            static sim::SimTask<void> read_once(sim::Process& p, VarId var) {
                co_await p.read(var);
            }
        };
        remote.set_task(Progs::write_once(remote, v));
        owner.set_task(Progs::read_once(owner, v));
        knowledge::AwarenessTracker tr(2, sys.memory().num_variables());
        sys.add_observer(&tr);
        sys.start_all();
        sys.step(remote.id());  // Remote write: RMR, F(v) = {remote}.
        sys.step(owner.id());   // Owner read: EXPANDING but local (no RMR).
        std::cout << "owner's read of its own variable after a remote "
                     "write: expanding steps="
                  << tr.expanding_steps(owner.id())
                  << ", RMR-free expansions=" << tr.lemma1_violations()
                  << "  (in CC this is impossible -- Lemma 1)\n";
    }
    if (results != nullptr) {
        try {
            rwr::harness::bench::write_file(json_path, doc);
            std::cerr << "wrote " << json_path << "\n";
        } catch (const std::exception& e) {
            std::cerr << "bench_dsm --json failed: " << e.what() << "\n";
            return 1;
        }
    }
    return 0;
}
