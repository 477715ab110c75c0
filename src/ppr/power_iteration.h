#ifndef EMIGRE_PPR_POWER_ITERATION_H_
#define EMIGRE_PPR_POWER_ITERATION_H_

#include <cmath>
#include <vector>

#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/options.h"
#include "util/timer.h"

namespace emigre::ppr {

/// \brief Exact (to tolerance) Personalized PageRank by power iteration.
///
/// Solves Eq. 1 of the paper,
///   PPR(s,·) = α·e_s + (1−α)·PPR(s,·)·W,
/// where W is the out-weight-normalized transition matrix of `g`. Dangling
/// nodes hold their probability mass in place (see `kDanglingSelfLoop`).
///
/// This is the reference scorer: the recommender's Eq. 2 argmax and the
/// EMiGRe TEST verifier both use it, and the local-push estimators are
/// property-tested against it.
///
/// Returns a dense distribution over all nodes (sums to 1).
template <graph::GraphLike G>
std::vector<double> PowerIterationPpr(const G& g, graph::NodeId seed,
                                      const PprOptions& opts = {}) {
  EMIGRE_SPAN("power");
  const size_t n = g.NumNodes();
  std::vector<double> p(n, 0.0);
  if (seed >= n) return p;
  std::vector<double> next(n, 0.0);
  p[seed] = 1.0;

  size_t iterations = 0;
  for (size_t iter = 0; iter < opts.max_power_iterations; ++iter) {
    // One iteration is an O(edges) sweep, so check the deadline per
    // iteration rather than per push.
    if (opts.deadline != nullptr && opts.deadline->Expired()) {
      throw DeadlineExceededError();
    }
    ++iterations;
    std::fill(next.begin(), next.end(), 0.0);
    next[seed] += opts.alpha;
    for (graph::NodeId u = 0; u < n; ++u) {
      double mass = p[u];
      if (mass == 0.0) continue;
      double out_w = g.OutWeight(u);
      if (out_w <= 0.0) {
        // Dangling: the walk stays at u (implicit self-loop).
        next[u] += (1.0 - opts.alpha) * mass;
        continue;
      }
      double scaled = (1.0 - opts.alpha) * mass / out_w;
      g.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId,
                              double w) { next[v] += scaled * w; });
    }
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) delta += std::abs(next[i] - p[i]);
    p.swap(next);
    if (delta < opts.power_tolerance) break;
  }

  EMIGRE_COUNTER("ppr.power.calls").Increment();
  EMIGRE_COUNTER("ppr.power.iterations").Increment(iterations);
  return p;
}

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_POWER_ITERATION_H_
