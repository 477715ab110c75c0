#ifndef EMIGRE_PPR_FORWARD_PUSH_H_
#define EMIGRE_PPR_FORWARD_PUSH_H_

#include <cmath>
#include <deque>
#include <span>
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

  /// Total residual mass still unpushed (error upper bound on the L1 sum).
  /// An O(n) scan of the residuals.
  double ResidualMass() const {
    double total = 0.0;
    for (double r : residual) total += r;
    return total;
  }
};

namespace detail {

/// Work done by one `ForwardPushLoop` run; each caller publishes its own
/// metrics from it.
struct PushLoopStats {
  size_t pushes = 0;
  size_t max_queue = 0;
};

/// \brief The FIFO Forward Local Push loop, shared by the static
/// `ForwardPush` and the repairs of `DynamicForwardPush`.
///
/// A node v is above threshold while |r(v)| ≥ ε·max(out_degree(v), 1).
/// Enqueues, in the given order, every seed above threshold, then pops
/// nodes first in, first out: a popped node still above threshold converts
/// an α fraction of its residual into estimate and spreads the remaining
/// (1−α) fraction over its outgoing transitions, enqueueing each neighbor
/// that is above threshold and not yet queued. Residuals are signed
/// (repairs after deletions leave negative ones) and pushed symmetrically;
/// a static push from one source never sees a negative residual.
///
/// `state` is sized to the graph; `queued` holds one clear flag per node.
/// On return no residual is above threshold (the property
/// `check::ValidateForwardPushTerminated` checks) and every flag is clear
/// again. A `DeadlineExceededError` unwinds mid-loop and leaves both
/// `state` and `queued` unusable.
template <graph::GraphLike G>
PushLoopStats ForwardPushLoop(const G& g, const PprOptions& opts,
                              std::span<const graph::NodeId> seeds,
                              PushResult& state, std::vector<char>& queued) {
  auto threshold = [&](graph::NodeId u) {
    size_t deg = g.OutDegree(u);
    return opts.epsilon * static_cast<double>(deg > 0 ? deg : 1);
  };
  std::deque<graph::NodeId> queue;
  for (graph::NodeId v : seeds) {
    if (!queued[v] && std::abs(state.residual[v]) >= threshold(v)) {
      queued[v] = 1;
      queue.push_back(v);
    }
  }

  // Hot loop: count locally; the caller publishes once per call.
  PushLoopStats stats;
  stats.max_queue = queue.size();
  while (!queue.empty()) {
    // Cooperative deadline: no-op unless the caller armed one.
    if (DeadlineExpired(opts, stats.pushes)) throw DeadlineExceededError();
    graph::NodeId u = queue.front();
    queue.pop_front();
    queued[u] = 0;
    double r = state.residual[u];
    if (std::abs(r) < threshold(u)) continue;
    state.residual[u] = 0.0;
    ++stats.pushes;

    double out_w = g.OutWeight(u);
    if (out_w <= 0.0) {
      // Dangling node: the walk stays here forever, so the whole residual
      // eventually converts to estimate (geometric series sums to r).
      state.estimate[u] += r;
      continue;
    }
    state.estimate[u] += opts.alpha * r;
    double spread = (1.0 - opts.alpha) * r / out_w;
    g.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
      state.residual[v] += spread * w;
      if (!queued[v] && std::abs(state.residual[v]) >= threshold(v)) {
        queued[v] = 1;
        queue.push_back(v);
      }
    });
    if (queue.size() > stats.max_queue) stats.max_queue = queue.size();
  }
  return stats;
}

}  // namespace detail

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
/// state (docs/performance.md). The loop is `detail::ForwardPushLoop`,
/// seeded with the source; `DynamicForwardPush` repairs run the same loop.
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
  std::vector<char> queued(n, 0);
  detail::PushLoopStats stats = detail::ForwardPushLoop(
      g, opts, std::span<const graph::NodeId>(&source, 1), out, queued);

  EMIGRE_COUNTER("ppr.flp.calls").Increment();
  EMIGRE_COUNTER("ppr.flp.pushes").Increment(stats.pushes);
  EMIGRE_GAUGE("ppr.flp.max_queue")
      .SetMax(static_cast<double>(stats.max_queue));
  return out;
}

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_FORWARD_PUSH_H_
