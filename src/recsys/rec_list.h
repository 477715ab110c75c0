#ifndef EMIGRE_RECSYS_REC_LIST_H_
#define EMIGRE_RECSYS_REC_LIST_H_

#include <cstddef>
#include <vector>

#include "graph/types.h"

namespace emigre::recsys {

/// \brief One candidate item with its relevance score p(u, t).
struct ScoredItem {
  graph::NodeId item = graph::kInvalidNode;
  double score = 0.0;

  friend bool operator==(const ScoredItem&, const ScoredItem&) = default;
};

/// \brief The ranking order: descending score, ascending id on ties.
inline bool RanksBefore(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// \brief A descending-score ranking of candidate items for one user.
///
/// Ties are broken by ascending node id so rankings are deterministic —
/// the explanation algorithms compare rankings before/after counterfactual
/// edits and must not be confused by arbitrary tie order.
class RecommendationList {
 public:
  RecommendationList() = default;

  /// Takes unordered scored items and sorts them into ranking order.
  explicit RecommendationList(std::vector<ScoredItem> items);

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

  const ScoredItem& at(size_t rank) const { return items_.at(rank); }
  const std::vector<ScoredItem>& items() const { return items_; }

  /// The top-1 recommendation (`rec` of paper Eq. 2), or kInvalidNode if
  /// the candidate set is empty.
  graph::NodeId Top() const {
    return items_.empty() ? graph::kInvalidNode : items_.front().item;
  }

  /// 0-based rank of `item`, or `size()` when absent.
  size_t RankOf(graph::NodeId item) const;

  bool Contains(graph::NodeId item) const { return RankOf(item) < size(); }

  /// Score of `item`, or 0.0 when absent.
  double ScoreOf(graph::NodeId item) const;

  /// A copy truncated to the best `n` entries.
  RecommendationList TopN(size_t n) const;

 private:
  std::vector<ScoredItem> items_;
};

}  // namespace emigre::recsys

#endif  // EMIGRE_RECSYS_REC_LIST_H_
