// Push schedules measured and ASSERTED: the dense FIFO loops, the sparse
// FIFO repair of DynamicForwardPush, and the kFast engine
// (PushEngine::kFast) — the perf contract of docs/performance.md.
//
// Two workloads on a medium synthetic Amazon graph:
//   static  — full pushes (forward from users, reverse toward items) at a
//             sweep of epsilons. The dense `ForwardPush`/`ReversePush` are
//             the default engine's static pushes; kFast races them with
//             residual-priority forward scheduling and, on the reverse
//             rows, ONE batched multi-target push producing all target
//             columns in a shared traversal.
//   repair  — the candidate-TEST cycle the dynamic-push tester runs:
//             remove / re-add a user edge and repair the push state, swept
//             over epsilons. The dense reference refine pays an O(n) seed
//             scan plus a dense queued array PER CANDIDATE; the sparse
//             refine (the default engine) seeds from the repaired row only,
//             so where repairs are local it must win outright.
//
// The guarantees are checked, not just reported — any violation exits 1:
//   1. Correctness: sparse repair states equal the dense refine's bit for
//      bit (same schedule, same float-op order). kFast states pass the
//      Eq. 3/4 invariant validators and are deterministic across repeated
//      runs.
//   2. Zero O(n) work after warm-up: no dense reset once the workspace
//      reached graph size, and the touched-node counter stays far below
//      begins * n.
//   3. The sparse repair is strictly faster than the dense refine on the
//      local-repair rows and their aggregate, and never beyond noise of it
//      on push-bound rows. kFast is strictly faster than the dense loops
//      where its schedule freedom pays on graphs this size: the batched
//      reverse row at the tightest epsilon and the local-repair rows. On
//      the remaining static rows kFast does fewer pushes (asserted below)
//      but the rows are memory-bound, so they carry a bounded-overhead
//      guard instead of a win claim. Swapping kKernel for kFast changes no
//      explanation output.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "common.h"
#include "eval/scenario.h"
#include "explain/emigre.h"
#include "obs/metrics.h"
#include "ppr/dynamic.h"
#include "ppr/forward_push.h"
#include "ppr/kernels.h"
#include "ppr/options.h"
#include "ppr/reverse_push.h"
#include "ppr/workspace.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace emigre;

struct SweepRow {
  std::string label;
  bool has_kernel = false;  ///< repair rows: the sparse FIFO refine
  double dense_seconds = 0.0;
  double kernel_seconds = 0.0;
  double fast_seconds = 0.0;
  size_t work = 0;       ///< FIFO pushes (static rows) or repairs
  size_t fast_work = 0;  ///< kFast pushes (column pushes on reverse rows)

  double Speedup() const {
    return kernel_seconds > 0.0 ? dense_seconds / kernel_seconds : 1.0;
  }
  double FastSpeedup() const {
    return fast_seconds > 0.0 ? dense_seconds / fast_seconds : 1.0;
  }
};

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

bool BitwiseEqual(const ppr::PushResult& a, const ppr::PushResult& b) {
  return a.estimate == b.estimate && a.residual == b.residual;
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::MakeBenchConfig();
  // A medium graph regardless of scale: the repair claim is about per-push
  // locality (touched nodes k well below |V|), which a few-hundred-node
  // smoke graph cannot exhibit. Generation stays fast; only rep counts
  // scale.
  if (config.scale == 0) {
    config.gen.num_users = 250;
    config.gen.num_items = 12000;
    config.gen.num_categories = 64;
  } else {
    config.gen.num_users = 400;
    config.gen.num_items = 24000;
    config.gen.num_categories = 96;
  }
  bench::PrintBenchHeader("Push schedules: dense, sparse repair, kFast",
                          config);

  auto lite = bench::BuildBenchGraph(config);
  lite.status().CheckOK();
  const graph::HinGraph& g = lite->graph;
  const size_t n = g.NumNodes();

  // Sampled endpoints: the evaluation users as forward sources, a stride of
  // the item nodes as reverse targets.
  std::vector<graph::NodeId> sources = lite->eval_users;
  if (sources.size() > 8) sources.resize(8);
  std::vector<graph::NodeId> items = g.NodesOfType(lite->item_type);
  std::vector<graph::NodeId> targets;
  for (size_t i = 0; i < items.size() && targets.size() < 8;
       i += std::max<size_t>(1, items.size() / 8)) {
    targets.push_back(items[i]);
  }

  const std::vector<double> epsilons = {1e-4, 1e-5, 1e-6};
  const size_t reps = config.scale == 0 ? 2 : 6;
  // Interleaved best-of-N: each workload is raced `rounds` times per engine
  // and the minimum is kept, filtering scheduler noise out of the CI
  // assertion.
  const size_t rounds = 3;
  bool ok = true;

  ppr::PushWorkspace ws;
  ppr::PprOptions base_ppr;

  // kFast correctness (also warms the workspace up to graph size): no
  // bitwise claim against the FIFO schedule — the schedule-independent
  // Eq. 3/4 validators are the oracle — plus determinism (two runs of the
  // same push export identical states).
  for (double eps : epsilons) {
    ppr::PprOptions opts = base_ppr;
    opts.epsilon = eps;
    for (graph::NodeId s : sources) {
      ppr::KernelResult kr = ppr::ForwardPushKernelFast(g, s, opts, ws);
      ppr::PushResult state = ppr::ExportDensePush(ws, n, kr.residual_mass);
      Status st = check::ValidateForwardPushInvariant(g, s, state, opts);
      if (!st.ok()) {
        std::fprintf(stderr,
                     "INVARIANT VIOLATION: kFast forward push (source %u, "
                     "eps %g): %s\n", s, eps, st.ToString().c_str());
        ok = false;
      }
      ppr::KernelResult kr2 = ppr::ForwardPushKernelFast(g, s, opts, ws);
      if (!BitwiseEqual(state, ppr::ExportDensePush(ws, n,
                                                    kr2.residual_mass))) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: kFast forward push not "
                     "reproducible (source %u, eps %g)\n", s, eps);
        ok = false;
      }
    }
    for (graph::NodeId t : targets) {
      ppr::KernelResult kr = ppr::ReversePushKernelFast(g, t, opts, ws);
      Status st = check::ValidateReversePushInvariant(
          g, t, ppr::ExportDensePush(ws, n, kr.residual_mass), opts);
      if (!st.ok()) {
        std::fprintf(stderr,
                     "INVARIANT VIOLATION: kFast reverse push (target %u, "
                     "eps %g): %s\n", t, eps, st.ToString().c_str());
        ok = false;
      }
    }
    // Batched columns: every column must independently satisfy Eq. 4, and
    // the batch must be deterministic across runs.
    std::vector<ppr::PushResult> dense_a, dense_b;
    ppr::ReversePushBatchKernel(g, targets, opts, ws, nullptr, &dense_a);
    ppr::ReversePushBatchKernel(g, targets, opts, ws, nullptr, &dense_b);
    for (size_t c = 0; c < targets.size(); ++c) {
      Status st = check::ValidateReversePushInvariant(g, targets[c],
                                                      dense_a[c], opts);
      if (!st.ok()) {
        std::fprintf(stderr,
                     "INVARIANT VIOLATION: batched reverse column (target "
                     "%u, eps %g): %s\n", targets[c], eps,
                     st.ToString().c_str());
        ok = false;
      }
      if (!BitwiseEqual(dense_a[c], dense_b[c])) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: batched reverse column not "
                     "reproducible (target %u, eps %g)\n", targets[c], eps);
        ok = false;
      }
    }
  }

  // Timed sweeps. The workspace is warm: from here on a single dense reset
  // or a touched count anywhere near begins * n is a regression.
  const size_t resets_after_warmup = ws.stats().dense_resets;
  const size_t begins_before = ws.stats().begins;
  const size_t touched_before = ws.stats().touched_total;

  std::vector<SweepRow> rows;
  double dense_total = 0.0, fast_total = 0.0;
  for (double eps : epsilons) {
    ppr::PprOptions opts = base_ppr;
    opts.epsilon = eps;

    SweepRow fwd{StrFormat("forward eps=%g", eps)};
    SweepRow rev{StrFormat("reverse eps=%g", eps)};
    WallTimer timer;
    for (size_t round = 0; round < rounds; ++round) {
      const uint64_t flp_before = CounterValue("ppr.flp.pushes");
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId s : sources) ppr::ForwardPush(g, s, opts);
      }
      fwd.dense_seconds = round == 0
                              ? timer.ElapsedSeconds()
                              : std::min(fwd.dense_seconds,
                                         timer.ElapsedSeconds());
      if (round == 0) fwd.work = CounterValue("ppr.flp.pushes") - flp_before;
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId s : sources) {
          size_t pushes = ppr::ForwardPushKernelFast(g, s, opts, ws).pushes;
          if (round == 0) fwd.fast_work += pushes;
        }
      }
      fwd.fast_seconds = round == 0
                             ? timer.ElapsedSeconds()
                             : std::min(fwd.fast_seconds,
                                        timer.ElapsedSeconds());

      const uint64_t rlp_before = CounterValue("ppr.rlp.pushes");
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId t : targets) ppr::ReversePush(g, t, opts);
      }
      rev.dense_seconds = round == 0
                              ? timer.ElapsedSeconds()
                              : std::min(rev.dense_seconds,
                                         timer.ElapsedSeconds());
      if (round == 0) rev.work = CounterValue("ppr.rlp.pushes") - rlp_before;
      // The kFast reverse leg produces the same per-target columns as the
      // 8 independent pushes above, but through one batched traversal —
      // the amortization the TEST pipeline's repeated PPR(·, t) fetches
      // exploit via ReversePushCache::GetBatch.
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        ppr::BatchPushStats stats;
        ppr::ReversePushBatchKernel(g, targets, opts, ws, &stats);
        if (round == 0) rev.fast_work += stats.column_pushes;
      }
      rev.fast_seconds = round == 0
                             ? timer.ElapsedSeconds()
                             : std::min(rev.fast_seconds,
                                        timer.ElapsedSeconds());
    }

    // kFast perf contract on the static rows. The win claim lives where
    // the schedule freedom pays at this graph size: the batched reverse
    // row at the tightest swept epsilon, where ONE shared traversal
    // produces every target column and the push volume dwarfs the
    // per-batch setup — strictly faster than the 8 dense pushes it
    // replaces. The other static rows are memory-bound (the dense loops
    // are cache-resident here), so they carry a bounded-overhead guard
    // plus a work assertion: the priority schedule must still do strictly
    // fewer pushes than FIFO wherever the row is push-heavy enough for the
    // order to matter (the scheduling claim, independent of constant
    // factors).
    const bool tightest = eps == epsilons.back();
    if (tightest && rev.fast_seconds >= rev.dense_seconds) {
      std::fprintf(stderr,
                   "PERF VIOLATION: kFast batched reverse (%.4fs) not "
                   "faster than dense (%.4fs) at eps %g\n",
                   rev.fast_seconds, rev.dense_seconds, eps);
      ok = false;
    }
    if (fwd.fast_seconds > fwd.dense_seconds * 2.0) {
      std::fprintf(stderr,
                   "PERF VIOLATION: kFast forward overhead beyond bound "
                   "(%.4fs vs dense %.4fs at eps %g)\n",
                   fwd.fast_seconds, fwd.dense_seconds, eps);
      ok = false;
    }
    if (rev.fast_seconds > rev.dense_seconds * 2.0) {
      std::fprintf(stderr,
                   "PERF VIOLATION: kFast batched reverse overhead beyond "
                   "bound (%.4fs vs dense %.4fs at eps %g)\n",
                   rev.fast_seconds, rev.dense_seconds, eps);
      ok = false;
    }
    if (eps <= 1e-5 && fwd.fast_work >= fwd.work) {
      std::fprintf(stderr,
                   "WORK VIOLATION: kFast forward pushes (%zu) not below "
                   "FIFO pushes (%zu) at eps %g\n",
                   fwd.fast_work, fwd.work, eps);
      ok = false;
    }
    if (eps <= 1e-5 && rev.fast_work >= rev.work) {
      std::fprintf(stderr,
                   "WORK VIOLATION: kFast batched column pushes (%zu) not "
                   "below per-target FIFO pushes (%zu) at eps %g\n",
                   rev.fast_work, rev.work, eps);
      ok = false;
    }

    dense_total += fwd.dense_seconds + rev.dense_seconds;
    fast_total += fwd.fast_seconds + rev.fast_seconds;
    rows.push_back(fwd);
    rows.push_back(rev);
  }

  // The candidate-TEST repair cycle, on separate mutable copies so every
  // engine sees identical adjacency orders (HinGraph re-adds append).
  //
  // Swept over epsilons because the refines differ in the O(n) part, not
  // the push part. At moderate epsilon a repair is LOCAL — a handful of
  // pushes — so the dense refine's O(n) seed scan and per-repair dense
  // `queued` allocation dominate its cost, and the sparse refine (seeded
  // from the repaired row on the reusable ring) must win outright. Those
  // rows carry the strict perf assertion; this is exactly the
  // per-candidate O(n) the workspace deletes. At the tight eval epsilon
  // the repair is re-push-bound (both refines execute the bitwise-identical
  // schedule), so that row is context only, guarded against gross
  // regression.
  double repair_dense_asserted = 0.0, repair_kernel_asserted = 0.0;
  {
    // Rows 1e-4/1e-5 are the local-repair regime (strict assertion); tighter
    // rows are push-bound on graphs this size and only noise-guarded.
    std::vector<double> repair_eps = {1e-4, 1e-5, 1e-6};
    if (std::find(repair_eps.begin(), repair_eps.end(), config.epsilon) ==
        repair_eps.end()) {
      repair_eps.push_back(config.epsilon);
    }
    const size_t num_dyn_sources = std::min<size_t>(3, sources.size());
    for (double eps : repair_eps) {
      const bool asserted = eps >= 1e-5;
      const size_t repair_reps = config.scale == 0 ? (asserted ? 12 : 1)
                                                   : (asserted ? 24 : 2);
      ppr::PprOptions opts = base_ppr;
      opts.epsilon = eps;

      SweepRow rep{StrFormat("repair eps=%g", eps), /*has_kernel=*/true};
      std::vector<std::vector<double>> final_dense, final_kernel;
      for (size_t round = 0; round < rounds; ++round) {
        for (int engine = 0; engine < 3; ++engine) {
          bool kernel = engine == 1;
          bool fast = engine == 2;
          ppr::PprOptions dyn_opts = opts;
          if (fast) dyn_opts.engine = ppr::PushEngine::kFast;
          graph::HinGraph mg = g;
          WallTimer timer;
          double seconds = 0.0;
          for (size_t si = 0; si < num_dyn_sources; ++si) {
            graph::NodeId u = sources[si];
            // Snapshot the out-edges to cycle; each remove is paired with a
            // re-add, so the graph returns to (an append-permuted copy of)
            // the base row after every cycle.
            auto row_view = mg.OutEdges(u);
            std::vector<graph::Edge> row(row_view.begin(), row_view.end());
            if (row.size() > 8) row.resize(8);
            timer.Reset();
            ppr::DynamicForwardPush<graph::HinGraph> dyn(
                mg, u, dyn_opts, engine > 0 ? &ws : nullptr);
            for (size_t r = 0; r < repair_reps; ++r) {
              for (const graph::Edge& e : row) {
                dyn.BeforeOutEdgeChange(u);
                mg.RemoveEdge(u, e.node, e.type).CheckOK();
                dyn.AfterOutEdgeChange(u);
                if (kernel && round == 0) rep.work += 1;
                dyn.BeforeOutEdgeChange(u);
                mg.AddEdge(u, e.node, e.type, e.weight).CheckOK();
                dyn.AfterOutEdgeChange(u);
                if (kernel && round == 0) rep.work += 1;
              }
            }
            seconds += timer.ElapsedSeconds();
            if (round == 0) {
              if (fast) {
                // kFast repairs carry no bitwise claim; the Eq. 3 validator
                // is the oracle on the repaired-to-convergence state.
                Status st = check::ValidateForwardPushInvariant(
                    mg, u, dyn.State(), dyn_opts);
                if (!st.ok()) {
                  std::fprintf(stderr,
                               "INVARIANT VIOLATION: kFast repair state "
                               "(source %u, eps %g): %s\n", u, eps,
                               st.ToString().c_str());
                  ok = false;
                }
              } else {
                (kernel ? final_kernel : final_dense)
                    .push_back(dyn.Estimates());
              }
            }
          }
          double& best = fast ? rep.fast_seconds
                              : kernel ? rep.kernel_seconds
                                       : rep.dense_seconds;
          best = round == 0 ? seconds : std::min(best, seconds);
        }
      }
      if (final_dense != final_kernel) {
        std::fprintf(stderr,
                     "EQUIVALENCE VIOLATION: sparse repair states diverged "
                     "from the dense refine (eps %g)\n", eps);
        ok = false;
      }
      if (asserted) {
        repair_dense_asserted += rep.dense_seconds;
        repair_kernel_asserted += rep.kernel_seconds;
        if (rep.kernel_seconds >= rep.dense_seconds) {
          std::fprintf(stderr,
                       "PERF VIOLATION: sparse repair (%.4fs) not faster "
                       "than the dense O(n) refine (%.4fs) at eps %g\n",
                       rep.kernel_seconds, rep.dense_seconds, eps);
          ok = false;
        }
        if (rep.fast_seconds >= rep.dense_seconds) {
          // Same O(row + pushes)-vs-O(n) claim as the sparse refine: the
          // priority frontier must not give the per-candidate win back.
          std::fprintf(stderr,
                       "PERF VIOLATION: kFast repair (%.4fs) not faster "
                       "than the dense O(n) refine (%.4fs) at eps %g\n",
                       rep.fast_seconds, rep.dense_seconds, eps);
          ok = false;
        }
      } else {
        if (rep.kernel_seconds > rep.dense_seconds * 1.25) {
          // Push-bound row: identical schedules, so anything beyond noise
          // is workspace bookkeeping overhead creeping into the per-edge
          // path.
          std::fprintf(stderr,
                       "PERF VIOLATION: push-bound repair regressed beyond "
                       "noise (sparse %.4fs vs dense %.4fs at eps %g)\n",
                       rep.kernel_seconds, rep.dense_seconds, eps);
          ok = false;
        }
        if (rep.fast_seconds > rep.dense_seconds * 1.5) {
          // kFast re-push cascades pay the priority frontier's per-edge
          // constants where repairs are re-push-bound; bounded, slightly
          // wider than the sparse refine's noise guard.
          std::fprintf(stderr,
                       "PERF VIOLATION: push-bound repair regressed beyond "
                       "bound (kFast %.4fs vs dense %.4fs at eps %g)\n",
                       rep.fast_seconds, rep.dense_seconds, eps);
          ok = false;
        }
      }
      dense_total += rep.dense_seconds;
      fast_total += rep.fast_seconds;
      rows.push_back(rep);
    }
  }

  if (ws.stats().dense_resets != resets_after_warmup) {
    std::fprintf(stderr,
                 "WORKSPACE VIOLATION: %zu dense reset(s) after warm-up\n",
                 ws.stats().dense_resets - resets_after_warmup);
    ok = false;
  }
  // Touched-node accounting: the sparse reset must have paid O(k) per push,
  // with k well below n on this graph.
  const size_t begins = ws.stats().begins - begins_before;
  const size_t touched = ws.stats().touched_total - touched_before;
  if (touched >= begins * n) {
    std::fprintf(stderr,
                 "WORKSPACE VIOLATION: touched %zu nodes over %zu pushes — "
                 "no better than %zu-node dense resets\n",
                 touched, begins, n);
    ok = false;
  }

  TextTable table(
      {"workload", "dense", "sparse", "fast", "speedup", "fast-spd", "work",
       "fast-work"});
  for (size_t c = 1; c < 8; ++c) table.SetAlign(c, Align::kRight);
  for (const SweepRow& row : rows) {
    std::string tag = row.label;
    std::replace(tag.begin(), tag.end(), ' ', '.');
    obs::Registry& reg = obs::Registry::Global();
    const std::string prefix = "bench.ppr_kernels." + tag;
    reg.GetGauge(prefix + ".dense_seconds").Set(row.dense_seconds);
    reg.GetGauge(prefix + ".fast_seconds").Set(row.fast_seconds);
    reg.GetGauge(prefix + ".fast_speedup").Set(row.FastSpeedup());
    if (row.has_kernel) {
      reg.GetGauge(prefix + ".kernel_seconds").Set(row.kernel_seconds);
      reg.GetGauge(prefix + ".speedup").Set(row.Speedup());
    }
    table.AddRow({row.label, FormatDuration(row.dense_seconds),
                  row.has_kernel ? FormatDuration(row.kernel_seconds) : "-",
                  FormatDuration(row.fast_seconds),
                  row.has_kernel ? FormatDouble(row.Speedup(), 2) + "x" : "-",
                  FormatDouble(row.FastSpeedup(), 2) + "x",
                  std::to_string(row.work), std::to_string(row.fast_work)});
  }
  std::printf("%s\n", table.ToString().c_str());

  double fast_overall = fast_total > 0.0 ? dense_total / fast_total : 1.0;
  double repair_speedup = repair_kernel_asserted > 0.0
                              ? repair_dense_asserted / repair_kernel_asserted
                              : 1.0;
  obs::Registry::Global()
      .GetGauge("bench.ppr_kernels.fast_overall_speedup")
      .Set(fast_overall);
  obs::Registry::Global()
      .GetGauge("bench.ppr_kernels.repair_speedup")
      .Set(repair_speedup);
  std::printf("overall: dense %s, fast %s (%.2fx); candidate-TEST repair "
              "%.2fx; %zu nodes touched across %zu workspace pushes on a "
              "%zu-node graph\n",
              FormatDuration(dense_total).c_str(),
              FormatDuration(fast_total).c_str(), fast_overall,
              repair_speedup, touched, begins, n);
  // The asserted aggregate is the candidate-TEST repair workload (the rows
  // where the refines differ by an O(n) term).
  if (repair_kernel_asserted >= repair_dense_asserted) {
    std::fprintf(stderr,
                 "PERF VIOLATION: sparse repair aggregate (%.4fs) not "
                 "faster than dense (%.4fs)\n",
                 repair_kernel_asserted, repair_dense_asserted);
    ok = false;
  }

  // Engine swap must be invisible in explanation outputs: same candidates
  // accepted, same edges, same failure reasons.
  auto scenarios = eval::GenerateScenarios(
      g, lite->eval_users, bench::MakeEmigreOptions(config, *lite),
      config.top_k, config.max_per_user);
  scenarios.status().CheckOK();
  explain::EmigreOptions kernel_opts = bench::MakeEmigreOptions(config, *lite);
  kernel_opts.rec.ppr.engine = ppr::PushEngine::kKernel;
  kernel_opts.deadline_seconds = 0.0;  // deterministic: no wall-clock cutoffs
  // With the deadline off the search needs a deterministic bound instead —
  // identical for both engines, so a capped attempt fails identically too.
  // The exact tester keeps the comparison exact: every TEST re-runs the
  // recommender on the same pristine-ordered overlay under either engine.
  kernel_opts.max_tests = 60;
  kernel_opts.max_add_candidates = 32;
  kernel_opts.tester = explain::TesterKind::kExact;
  // kFast reorders float ops inside the ε-approximate candidate derivation,
  // but the exact tester's verdicts (power iteration on the same graph
  // state) and the deterministic candidate ordering keep the explanation
  // outputs engine-invariant.
  explain::EmigreOptions fast_opts = kernel_opts;
  fast_opts.rec.ppr.engine = ppr::PushEngine::kFast;
  explain::Emigre kernel_engine(g, kernel_opts);
  explain::Emigre fast_engine(g, fast_opts);
  size_t compared = 0;
  for (const eval::Scenario& sc : scenarios.value()) {
    if (compared >= (config.scale == 0 ? 4u : 8u)) break;
    ++compared;
    explain::WhyNotQuestion q{sc.user, sc.wni};
    for (explain::Mode mode : {explain::Mode::kRemove, explain::Mode::kAdd}) {
      auto a = kernel_engine.Explain(q, mode, explain::Heuristic::kExhaustive);
      auto b = fast_engine.Explain(q, mode, explain::Heuristic::kExhaustive);
      bool differs = a.ok() != b.ok() ||
                     (a.ok() && (a->found != b->found || a->edges != b->edges ||
                                 a->new_rec != b->new_rec ||
                                 a->failure != b->failure));
      if (differs) {
        std::fprintf(stderr,
                     "EXPLANATION VIOLATION: engines disagree (user %u, "
                     "wni %u, mode %d)\n", sc.user, sc.wni,
                     static_cast<int>(mode));
        ok = false;
      }
    }
  }
  std::printf("explanation equality: kernel == fast on %zu scenarios x 2 "
              "modes\n", compared);
  obs::Registry::Global()
      .GetGauge("bench.ppr_kernels.scenarios_compared")
      .Set(static_cast<double>(compared));

  bench::WriteBenchMetrics("ppr_kernels");
  if (!ok) return 1;
  std::printf("all push-schedule invariants held\n");
  return 0;
}
