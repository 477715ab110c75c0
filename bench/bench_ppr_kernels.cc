// Push schedules measured and ASSERTED: the dense FIFO static pushes and
// the seeded repair of DynamicForwardPush — the perf contract of
// docs/performance.md.
//
// Two workloads on a medium synthetic Amazon graph:
//   static  — full dense pushes (forward from users, reverse toward items)
//             at a sweep of epsilons, reported with their push counts as
//             context for the repair rows.
//   repair  — the candidate-TEST cycle the dynamic-push tester runs:
//             remove / re-add a user edge and bring the push state up to
//             date, swept over epsilons. One leg repairs the state in place
//             (the refine is seeded from the repaired row); the other
//             recomputes ForwardPush from scratch after every edit.
//
// The guarantees are checked, not just reported — any violation exits 1:
//   1. Correctness: the final state of every source, in both legs,
//      satisfies Eq. 3 on the edited graph and is terminated (no residual
//      at or above its push threshold).
//   2. The repair is strictly faster than recomputing on the local-repair
//      rows and their aggregate, and never beyond noise of it on push-bound
//      rows.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "common.h"
#include "obs/metrics.h"
#include "ppr/dynamic.h"
#include "ppr/forward_push.h"
#include "ppr/options.h"
#include "ppr/reverse_push.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace emigre;

struct SweepRow {
  std::string label;
  bool is_repair = false;
  /// Static rows: the dense push. Repair rows: recomputing ForwardPush from
  /// scratch after every edit.
  double full_seconds = 0.0;
  double repair_seconds = 0.0;  ///< repair rows: the seeded refine
  size_t work = 0;  ///< FIFO pushes (static rows) or repairs

  double Speedup() const {
    return repair_seconds > 0.0 ? full_seconds / repair_seconds : 1.0;
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
  bench::PrintBenchHeader("Push schedules: dense, seeded repair", config);

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

  ppr::PprOptions base_ppr;
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
      fwd.full_seconds = round == 0
                             ? timer.ElapsedSeconds()
                             : std::min(fwd.full_seconds,
                                        timer.ElapsedSeconds());
      if (round == 0) fwd.work = CounterValue("ppr.flp.pushes") - flp_before;

      const uint64_t rlp_before = CounterValue("ppr.rlp.pushes");
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId t : targets) ppr::ReversePush(g, t, opts);
      }
      rev.full_seconds = round == 0
                             ? timer.ElapsedSeconds()
                             : std::min(rev.full_seconds,
                                        timer.ElapsedSeconds());
      if (round == 0) rev.work = CounterValue("ppr.rlp.pushes") - rlp_before;
    }
    rows.push_back(fwd);
    rows.push_back(rev);
  }

  // The candidate-TEST repair cycle, on separate mutable copies so both
  // legs see identical adjacency orders (HinGraph re-adds append). Both legs
  // construct the DynamicForwardPush (its initial push is part of a
  // tester's cost); then one repairs after every edit and the other
  // recomputes ForwardPush from scratch.
  //
  // Swept over epsilons. At moderate epsilon a repair is LOCAL — a handful
  // of pushes from the repaired row — while a recomputation redoes the
  // whole push, so the repair must win outright: those rows carry the
  // strict assertion. At the tight eval epsilon a repair cascades through
  // much of the graph; that row is context only, guarded against gross
  // regression.
  double recompute_asserted = 0.0, repair_asserted = 0.0;
  size_t num_repairs = 0;
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

      SweepRow rep{StrFormat("repair eps=%g", eps), /*is_repair=*/true};
      for (size_t round = 0; round < rounds; ++round) {
        for (bool repair : {false, true}) {
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
            ppr::DynamicForwardPush<graph::HinGraph> dyn(mg, u, opts);
            ppr::PushResult recomputed;
            auto edit = [&](auto&& mutate) {
              if (repair) dyn.BeforeOutEdgeChange(u);
              mutate();
              if (repair) {
                dyn.AfterOutEdgeChange(u);
                if (round == 0) rep.work += 1;
              } else {
                recomputed = ppr::ForwardPush(mg, u, opts);
              }
            };
            for (size_t r = 0; r < repair_reps; ++r) {
              for (const graph::Edge& e : row) {
                edit([&] { mg.RemoveEdge(u, e.node, e.type).CheckOK(); });
                edit([&] {
                  mg.AddEdge(u, e.node, e.type, e.weight).CheckOK();
                });
              }
            }
            seconds += timer.ElapsedSeconds();
            if (round == 0) {
              const ppr::PushResult& final_state =
                  repair || row.empty() ? dyn.State() : recomputed;
              Status st = check::ValidateForwardPushInvariant(
                  mg, u, final_state, opts);
              if (st.ok()) {
                st = check::ValidateForwardPushTerminated(mg, final_state,
                                                          opts);
              }
              if (!st.ok()) {
                std::fprintf(stderr,
                             "CORRECTNESS VIOLATION: %s state of source %u "
                             "(eps %g): %s\n",
                             repair ? "repaired" : "recomputed", u, eps,
                             st.ToString().c_str());
                ok = false;
              }
            }
          }
          double& best = repair ? rep.repair_seconds : rep.full_seconds;
          best = round == 0 ? seconds : std::min(best, seconds);
        }
      }
      num_repairs += rep.work;
      if (asserted) {
        recompute_asserted += rep.full_seconds;
        repair_asserted += rep.repair_seconds;
        if (rep.repair_seconds >= rep.full_seconds) {
          std::fprintf(stderr,
                       "PERF VIOLATION: repair (%.4fs) not faster than "
                       "recomputing from scratch (%.4fs) at eps %g\n",
                       rep.repair_seconds, rep.full_seconds, eps);
          ok = false;
        }
      } else if (rep.repair_seconds > rep.full_seconds * 1.25) {
        // Push-bound row: anything beyond noise of a full recomputation
        // means the repair stopped being local.
        std::fprintf(stderr,
                     "PERF VIOLATION: push-bound repair regressed beyond "
                     "noise (repair %.4fs vs recompute %.4fs at eps %g)\n",
                     rep.repair_seconds, rep.full_seconds, eps);
        ok = false;
      }
      rows.push_back(rep);
    }
  }

  TextTable table({"workload", "full push", "repair", "speedup", "work"});
  for (size_t c = 1; c < 5; ++c) table.SetAlign(c, Align::kRight);
  for (const SweepRow& row : rows) {
    std::string tag = row.label;
    std::replace(tag.begin(), tag.end(), ' ', '.');
    obs::Registry& reg = obs::Registry::Global();
    const std::string prefix = "bench.ppr_kernels." + tag;
    if (row.is_repair) {
      reg.GetGauge(prefix + ".recompute_seconds").Set(row.full_seconds);
      reg.GetGauge(prefix + ".repair_seconds").Set(row.repair_seconds);
      reg.GetGauge(prefix + ".speedup").Set(row.Speedup());
    } else {
      reg.GetGauge(prefix + ".dense_seconds").Set(row.full_seconds);
    }
    table.AddRow({row.label, FormatDuration(row.full_seconds),
                  row.is_repair ? FormatDuration(row.repair_seconds) : "-",
                  row.is_repair ? FormatDouble(row.Speedup(), 2) + "x" : "-",
                  std::to_string(row.work)});
  }
  std::printf("%s\n", table.ToString().c_str());

  double repair_speedup = repair_asserted > 0.0
                              ? recompute_asserted / repair_asserted
                              : 1.0;
  obs::Registry::Global()
      .GetGauge("bench.ppr_kernels.repair_speedup")
      .Set(repair_speedup);
  std::printf("candidate-TEST repair %.2fx over recompute; %zu repairs on a "
              "%zu-node graph\n",
              repair_speedup, num_repairs, n);
  // The asserted aggregate is the candidate-TEST repair workload (the rows
  // where a repair stays local).
  if (repair_asserted >= recompute_asserted) {
    std::fprintf(stderr,
                 "PERF VIOLATION: repair aggregate (%.4fs) not faster than "
                 "recomputing (%.4fs)\n",
                 repair_asserted, recompute_asserted);
    ok = false;
  }

  bench::WriteBenchMetrics("ppr_kernels");
  if (!ok) return 1;
  std::printf("all push-schedule invariants held\n");
  return 0;
}
