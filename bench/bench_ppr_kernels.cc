// Push schedules measured and ASSERTED: the dense FIFO loops and the
// sparse FIFO repair of DynamicForwardPush — the perf contract of
// docs/performance.md.
//
// Two workloads on a medium synthetic Amazon graph:
//   static  — full dense pushes (forward from users, reverse toward items)
//             at a sweep of epsilons, reported with their push counts as
//             context for the repair rows.
//   repair  — the candidate-TEST cycle the dynamic-push tester runs:
//             remove / re-add a user edge and repair the push state, swept
//             over epsilons. The dense reference refine pays an O(n) seed
//             scan plus a dense queued array PER CANDIDATE; the sparse
//             refine seeds from the repaired row only, so where repairs are
//             local it must win outright.
//
// The guarantees are checked, not just reported — any violation exits 1:
//   1. Correctness: sparse repair states equal the dense refine's bit for
//      bit (same schedule, same float-op order).
//   2. Zero O(n) work after warm-up: no dense reset once the workspace
//      reached graph size.
//   3. The sparse repair is strictly faster than the dense refine on the
//      local-repair rows and their aggregate, and never beyond noise of it
//      on push-bound rows.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "ppr/dynamic.h"
#include "ppr/forward_push.h"
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
  size_t work = 0;  ///< FIFO pushes (static rows) or repairs

  double Speedup() const {
    return kernel_seconds > 0.0 ? dense_seconds / kernel_seconds : 1.0;
  }
};

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
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
  bench::PrintBenchHeader("Push schedules: dense, sparse repair", config);

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
  // Interleaved best-of-N: each workload is raced `rounds` times per refine
  // and the minimum is kept, filtering scheduler noise out of the CI
  // assertion.
  const size_t rounds = 3;
  bool ok = true;

  ppr::PushWorkspace ws;
  ppr::PprOptions base_ppr;

  // Timed sweeps on a warm workspace: from here on a single dense reset is
  // a regression.
  ws.Begin(n);
  const size_t resets_after_warmup = ws.stats().dense_resets;
  const size_t begins_after_warmup = ws.stats().begins;
  std::vector<SweepRow> rows;
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
    }
    rows.push_back(fwd);
    rows.push_back(rev);
  }

  // The candidate-TEST repair cycle, on separate mutable copies so both
  // refines see identical adjacency orders (HinGraph re-adds append).
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
        for (bool kernel : {false, true}) {
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
                mg, u, opts, kernel ? &ws : nullptr);
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
              (kernel ? final_kernel : final_dense).push_back(dyn.Estimates());
            }
          }
          double& best = kernel ? rep.kernel_seconds : rep.dense_seconds;
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
      }
      rows.push_back(rep);
    }
  }

  if (ws.stats().dense_resets != resets_after_warmup) {
    std::fprintf(stderr,
                 "WORKSPACE VIOLATION: %zu dense reset(s) after warm-up\n",
                 ws.stats().dense_resets - resets_after_warmup);
    ok = false;
  }

  TextTable table({"workload", "dense", "sparse", "speedup", "work"});
  for (size_t c = 1; c < 5; ++c) table.SetAlign(c, Align::kRight);
  for (const SweepRow& row : rows) {
    std::string tag = row.label;
    std::replace(tag.begin(), tag.end(), ' ', '.');
    obs::Registry& reg = obs::Registry::Global();
    const std::string prefix = "bench.ppr_kernels." + tag;
    reg.GetGauge(prefix + ".dense_seconds").Set(row.dense_seconds);
    if (row.has_kernel) {
      reg.GetGauge(prefix + ".kernel_seconds").Set(row.kernel_seconds);
      reg.GetGauge(prefix + ".speedup").Set(row.Speedup());
    }
    table.AddRow({row.label, FormatDuration(row.dense_seconds),
                  row.has_kernel ? FormatDuration(row.kernel_seconds) : "-",
                  row.has_kernel ? FormatDouble(row.Speedup(), 2) + "x" : "-",
                  std::to_string(row.work)});
  }
  std::printf("%s\n", table.ToString().c_str());

  double repair_speedup = repair_kernel_asserted > 0.0
                              ? repair_dense_asserted / repair_kernel_asserted
                              : 1.0;
  obs::Registry::Global()
      .GetGauge("bench.ppr_kernels.repair_speedup")
      .Set(repair_speedup);
  std::printf("candidate-TEST repair %.2fx; %zu workspace refines on a "
              "%zu-node graph\n",
              repair_speedup, ws.stats().begins - begins_after_warmup, n);
  // The asserted aggregate is the candidate-TEST repair workload (the rows
  // where the refines differ by an O(n) term).
  if (repair_kernel_asserted >= repair_dense_asserted) {
    std::fprintf(stderr,
                 "PERF VIOLATION: sparse repair aggregate (%.4fs) not "
                 "faster than dense (%.4fs)\n",
                 repair_kernel_asserted, repair_dense_asserted);
    ok = false;
  }

  bench::WriteBenchMetrics("ppr_kernels");
  if (!ok) return 1;
  std::printf("all push-schedule invariants held\n");
  return 0;
}
