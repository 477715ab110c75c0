#ifndef EMIGRE_RECSYS_RECOMMENDER_H_
#define EMIGRE_RECSYS_RECOMMENDER_H_

#include <vector>

#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/options.h"
#include "ppr/power_iteration.h"
#include "recsys/rec_list.h"

namespace emigre::recsys {

/// \brief Parameters of the PPR recommender (paper Eq. 2).
struct RecommenderOptions {
  /// PPR parameters (α, tolerances).
  ppr::PprOptions ppr;

  /// Node type of recommendable items. Candidates are all nodes of this
  /// type except those the user already points an edge to (the paper's
  /// `I \ N_out(u)`), and except the user itself.
  graph::NodeTypeId item_type = graph::kInvalidNodeType;
};

/// \brief True if `user` has any out-edge to `node` in the view `g`.
///
/// Implemented via traversal so it works uniformly over `HinGraph`,
/// `GraphOverlay` and `CsrGraph` (the latter has no HasEdge lookup).
template <graph::GraphLike G>
bool HasOutEdgeTo(const G& g, graph::NodeId user, graph::NodeId node) {
  bool found = false;
  g.ForEachOutEdge(user, [&](graph::NodeId dst, graph::EdgeTypeId, double) {
    if (dst == node) found = true;
  });
  return found;
}

/// \brief True if `item` is a recommendation candidate for `user` in `g`:
/// an item-typed node the user has no outgoing edge to.
template <graph::GraphLike G>
bool IsCandidateItem(const G& g, graph::NodeId user, graph::NodeId item,
                     graph::NodeTypeId item_type) {
  if (item == user) return false;
  if (g.NodeType(item) != item_type) return false;
  return !HasOutEdgeTo(g, user, item);
}

namespace detail {

/// Scores `user`'s row with exact PPR (power iteration) and calls
/// `visit(item, score)` for every Eq. 2 candidate, in ascending id order.
template <graph::GraphLike G, typename F>
void ForEachCandidateScore(const G& g, graph::NodeId user,
                           const RecommenderOptions& opts, F&& visit) {
  std::vector<double> scores = ppr::PowerIterationPpr(g, user, opts.ppr);

  // Collect the user's current out-neighborhood once (O(deg)) instead of
  // probing per item.
  std::vector<char> interacted(g.NumNodes(), 0);
  g.ForEachOutEdge(user, [&](graph::NodeId dst, graph::EdgeTypeId, double) {
    interacted[dst] = 1;
  });

  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    if (n == user || interacted[n]) continue;
    if (g.NodeType(n) != opts.item_type) continue;
    visit(n, scores[n]);
  }
}

}  // namespace detail

/// \brief Scores every candidate item for `user` with exact PPR (power
/// iteration) and returns the full ranking (descending score, id-ascending
/// tie-break).
///
/// This is the recommender of paper §3.2: relevance p(u, t) = PPR(u, t),
/// candidates restricted to items the user has not interacted with, and the
/// top-1 of the ranking being `rec`.
template <graph::GraphLike G>
RecommendationList RankItems(const G& g, graph::NodeId user,
                             const RecommenderOptions& opts) {
  EMIGRE_SPAN("rank");
  EMIGRE_COUNTER("recsys.rank.calls").Increment();
  std::vector<ScoredItem> scored;
  detail::ForEachCandidateScore(g, user, opts, [&](graph::NodeId n, double s) {
    scored.push_back(ScoredItem{n, s});
  });
  return RecommendationList(std::move(scored));
}

/// \brief The top-1 recommendation `rec` for `user` (Eq. 2), or
/// kInvalidNode when no candidate exists.
///
/// Equal to `RankItems(g, user, opts).Top()`, but an argmax in ranking
/// order instead of a sort of every candidate: the exact TEST asks only
/// for the top-1.
template <graph::GraphLike G>
graph::NodeId Recommend(const G& g, graph::NodeId user,
                        const RecommenderOptions& opts) {
  EMIGRE_SPAN("rank");
  EMIGRE_COUNTER("recsys.rank.calls").Increment();
  ScoredItem best;
  detail::ForEachCandidateScore(g, user, opts, [&](graph::NodeId n, double s) {
    ScoredItem item{n, s};
    if (best.item == graph::kInvalidNode || RanksBefore(item, best)) {
      best = item;
    }
  });
  return best.item;
}

}  // namespace emigre::recsys

#endif  // EMIGRE_RECSYS_RECOMMENDER_H_
