#ifndef EMIGRE_PPR_FORWARD_PUSH_H_
#define EMIGRE_PPR_FORWARD_PUSH_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <vector>

#include "fault/fault.h"
#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/options.h"
#include "util/timer.h"

namespace emigre::ppr {

/// \brief Output of a local-push computation: estimates and residuals.
///
/// For Forward Local Push from source s the invariant is the paper's Eq. 3:
///   PPR(s,t) = P(s,t) + Σ_x R(s,x)·PPR(x,t)   for every t,
/// i.e. `estimate` underestimates the true PPR vector and `residual` bounds
/// the unexplored probability mass. Both are dense over nodes.
struct PushResult {
  std::vector<double> estimate;
  std::vector<double> residual;

  /// Signed residual sum, maintained incrementally by the push engines.
  /// Reading it is O(1); the old O(n) scan survives only as the
  /// DCHECK-level cross-check below.
  double residual_mass = 0.0;

  /// Total residual mass still unpushed (error upper bound on the L1 sum).
  double ResidualMass() const {
#ifdef EMIGRE_DCHECK_INVARIANTS
    // Cross-check the incremental accounting against the direct scan. The
    // two accumulate in different orders, so compare under a small
    // float-rounding tolerance rather than exactly.
    double total = 0.0;
    for (double r : residual) total += r;
    if (std::abs(total - residual_mass) >
        1e-9 * std::max(1.0, std::abs(total))) {
      std::fprintf(stderr,
                   "PushResult::ResidualMass: incremental %.17g != scan "
                   "%.17g\n",
                   residual_mass, total);
      std::abort();
    }
#endif
    return residual_mass;
  }
};

/// \brief Forward Local Push [39], the FLP of paper §3.2.
///
/// Starts from `source` and repeatedly converts residual at a node into
/// estimate (an α fraction) while spreading the remaining (1−α) fraction
/// over the node's outgoing transitions. A node is pushed while its residual
/// exceeds ε·max(out_degree, 1); with ε→0 the estimate converges to the
/// exact PPR(source, ·).
///
/// The push work is O(Σ pushes) for fixed ε — the reason the paper adopts
/// it for repeated counterfactual evaluations. The state is dense (an O(n)
/// zero-fill per call): static pushes at the CLI's ε touch most of the
/// graph, where dense arrays measured faster than epoch-stamped sparse
/// state (docs/performance.md). This FIFO loop and `ReversePush` are the
/// only static pushes.
template <graph::GraphLike G>
PushResult ForwardPush(const G& g, graph::NodeId source,
                       const PprOptions& opts = {}) {
  EMIGRE_SPAN("flp");
  EMIGRE_FAULT_POINT("ppr.flp");
  const size_t n = g.NumNodes();
  PushResult out;
  out.estimate.assign(n, 0.0);  // NOLINT(dense-reset): dense static push
  out.residual.assign(n, 0.0);  // NOLINT(dense-reset): dense static push
  if (source >= n) return out;

  out.residual[source] = 1.0;
  out.residual_mass = 1.0;
  std::deque<graph::NodeId> queue;
  std::vector<char> queued(n, 0);
  queue.push_back(source);
  queued[source] = 1;

  auto threshold = [&](graph::NodeId u) {
    size_t deg = g.OutDegree(u);
    return opts.epsilon * static_cast<double>(deg > 0 ? deg : 1);
  };

  // Hot loop: accumulate locally, publish to the registry once per call.
  size_t pushes = 0;
  size_t max_queue = queue.size();

  while (!queue.empty()) {
    // Cooperative deadline: no-op unless the caller armed one.
    if (DeadlineExpired(opts, pushes)) throw DeadlineExceededError();
    graph::NodeId u = queue.front();
    queue.pop_front();
    queued[u] = 0;
    double r = out.residual[u];
    if (r < threshold(u)) continue;
    out.residual[u] = 0.0;
    out.residual_mass -= r;
    ++pushes;

    double out_w = g.OutWeight(u);
    if (out_w <= 0.0) {
      // Dangling node: the walk stays here forever, so the whole residual
      // eventually converts to estimate (geometric series sums to r).
      out.estimate[u] += r;
      continue;
    }
    out.estimate[u] += opts.alpha * r;
    double spread = (1.0 - opts.alpha) * r / out_w;
    g.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
      out.residual[v] += spread * w;
      out.residual_mass += spread * w;
      if (!queued[v] && out.residual[v] >= threshold(v)) {
        queued[v] = 1;
        queue.push_back(v);
      }
    });
    if (queue.size() > max_queue) max_queue = queue.size();
  }

  EMIGRE_COUNTER("ppr.flp.calls").Increment();
  EMIGRE_COUNTER("ppr.flp.pushes").Increment(pushes);
  EMIGRE_GAUGE("ppr.flp.max_queue").SetMax(static_cast<double>(max_queue));
  return out;
}

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_FORWARD_PUSH_H_
