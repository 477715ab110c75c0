// The dense FIFO pushes measured and ASSERTED — the push contract of
// docs/performance.md.
//
// Full dense pushes on a medium synthetic Amazon graph, forward from users
// and reverse toward items, at a sweep of epsilons, reported with their
// push counts.
//
// The forward guarantee is checked, not just reported — any violation
// exits 1: the final state of every forward source satisfies Eq. 3 and is
// terminated (no residual at or above its push threshold).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "common.h"
#include "obs/metrics.h"
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
  double seconds = 0.0;  ///< best round of the dense push
  size_t pushes = 0;     ///< FIFO pushes of one round
};

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::MakeBenchConfig();
  // A medium graph regardless of scale: pushes at these epsilons touch a
  // few thousand nodes, which a few-hundred-node smoke graph cannot
  // exhibit. Generation stays fast; only rep counts scale.
  if (config.scale == 0) {
    config.gen.num_users = 250;
    config.gen.num_items = 12000;
    config.gen.num_categories = 64;
  } else {
    config.gen.num_users = 400;
    config.gen.num_items = 24000;
    config.gen.num_categories = 96;
  }
  bench::PrintBenchHeader("Push schedules: dense FIFO pushes", config);

  auto lite = bench::BuildBenchGraph(config);
  lite.status().CheckOK();
  const graph::HinGraph& g = lite->graph;

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
  // Interleaved best-of-N: each workload is raced `rounds` times and the
  // minimum is kept, filtering scheduler noise out of the reported times.
  const size_t rounds = 3;
  bool ok = true;

  std::vector<SweepRow> rows;
  for (double eps : epsilons) {
    ppr::PprOptions opts;
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
      fwd.seconds = round == 0 ? timer.ElapsedSeconds()
                               : std::min(fwd.seconds, timer.ElapsedSeconds());
      if (round == 0) fwd.pushes = CounterValue("ppr.flp.pushes") - flp_before;

      const uint64_t rlp_before = CounterValue("ppr.rlp.pushes");
      timer.Reset();
      for (size_t r = 0; r < reps; ++r) {
        for (graph::NodeId t : targets) ppr::ReversePush(g, t, opts);
      }
      rev.seconds = round == 0 ? timer.ElapsedSeconds()
                               : std::min(rev.seconds, timer.ElapsedSeconds());
      if (round == 0) rev.pushes = CounterValue("ppr.rlp.pushes") - rlp_before;
    }
    rows.push_back(fwd);
    rows.push_back(rev);

    // Untimed: each source's push state against the math.
    for (graph::NodeId s : sources) {
      ppr::PushResult state = ppr::ForwardPush(g, s, opts);
      Status st = check::ValidateForwardPushInvariant(g, s, state, opts);
      if (st.ok()) st = check::ValidateForwardPushTerminated(g, state, opts);
      if (!st.ok()) {
        std::fprintf(stderr,
                     "CORRECTNESS VIOLATION: forward state of source %u "
                     "(eps %g): %s\n",
                     s, eps, st.ToString().c_str());
        ok = false;
      }
    }
  }

  TextTable table({"workload", "dense push", "pushes"});
  for (size_t c = 1; c < 3; ++c) table.SetAlign(c, Align::kRight);
  for (const SweepRow& row : rows) {
    std::string tag = row.label;
    std::replace(tag.begin(), tag.end(), ' ', '.');
    obs::Registry::Global()
        .GetGauge("bench.ppr_kernels." + tag + ".dense_seconds")
        .Set(row.seconds);
    table.AddRow({row.label, FormatDuration(row.seconds),
                  std::to_string(row.pushes)});
  }
  std::printf("%s\n", table.ToString().c_str());

  bench::WriteBenchMetrics("ppr_kernels");
  if (!ok) return 1;
  std::printf("all push invariants held\n");
  return 0;
}
