#ifndef EMIGRE_PPR_REVERSE_PUSH_H_
#define EMIGRE_PPR_REVERSE_PUSH_H_

#include <deque>
#include <vector>

#include "fault/fault.h"
#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/forward_push.h"
#include "ppr/options.h"
#include "util/timer.h"

namespace emigre::ppr {

/// \brief Reverse Local Push [39], the RLP of paper §3.2.
///
/// Computes, in a single local exploration rooted at `target`, estimates of
/// PPR(s, target) for *every* source s simultaneously — the quantity EMiGRe
/// needs to score candidate neighbors (Eq. 5/6) and that Algorithm 2 uses to
/// enumerate the Add-mode search space (`PPR_WNI`).
///
/// Maintains the invariant of the paper's Eq. 4:
///   PPR(s,t) = P(s,t) + Σ_x PPR(s,x)·R(x,t)   for every s.
/// A node v with residual above ε converts α·r(v) into its estimate and
/// propagates (1−α)·r(v), split by each in-neighbor's transition probability
/// *into* v, backwards along in-edges.
///
/// Dangling nodes (implicit self-loop, see `kDanglingSelfLoop`) are handled
/// in closed form: the geometric series of self-pushes sums to r/α.
///
/// `result.estimate[s]` ≈ PPR(s, target); `result.residual` carries R(·, t).
/// Dense state, like `ForwardPush` (see there).
template <graph::GraphLike G>
PushResult ReversePush(const G& g, graph::NodeId target,
                       const PprOptions& opts = {}) {
  EMIGRE_SPAN("rlp");
  EMIGRE_FAULT_POINT("ppr.rlp");
  const size_t n = g.NumNodes();
  PushResult out;
  out.estimate.assign(n, 0.0);
  out.residual.assign(n, 0.0);
  if (target >= n) return out;

  out.residual[target] = 1.0;
  std::deque<graph::NodeId> queue;
  std::vector<char> queued(n, 0);
  queue.push_back(target);
  queued[target] = 1;

  size_t pushes = 0;
  size_t max_queue = queue.size();

  while (!queue.empty()) {
    // Cooperative deadline: no-op unless the caller armed one.
    if (DeadlineExpired(opts, pushes)) throw DeadlineExceededError();
    graph::NodeId v = queue.front();
    queue.pop_front();
    queued[v] = 0;
    double r = out.residual[v];
    if (r < opts.epsilon) continue;
    out.residual[v] = 0.0;
    ++pushes;

    bool dangling = g.OutWeight(v) <= 0.0;
    if (dangling) {
      // Walks at v never leave: every restart-free continuation stays here,
      // so the full residual converts (Σ_k α(1−α)^k·r = r) and in-neighbors
      // receive the series-amplified share r/α.
      out.estimate[v] += r;
      r /= opts.alpha;
    } else {
      out.estimate[v] += opts.alpha * r;
    }

    double spread = (1.0 - opts.alpha) * r;
    g.ForEachInEdge(v, [&](graph::NodeId u, graph::EdgeTypeId, double w) {
      double out_w = g.OutWeight(u);
      if (out_w <= 0.0) return;  // u unreachable as a walk step into v
      out.residual[u] += spread * w / out_w;
      if (!queued[u] && out.residual[u] >= opts.epsilon) {
        queued[u] = 1;
        queue.push_back(u);
      }
    });
    if (queue.size() > max_queue) max_queue = queue.size();
  }

  EMIGRE_COUNTER("ppr.rlp.calls").Increment();
  EMIGRE_COUNTER("ppr.rlp.pushes").Increment(pushes);
  EMIGRE_GAUGE("ppr.rlp.max_queue").SetMax(static_cast<double>(max_queue));
  return out;
}

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_REVERSE_PUSH_H_
