#include "recsys/rec_list.h"

#include <algorithm>

namespace emigre::recsys {

RecommendationList::RecommendationList(std::vector<ScoredItem> items)
    : items_(std::move(items)) {
  std::sort(items_.begin(), items_.end(), RanksBefore);
}

size_t RecommendationList::RankOf(graph::NodeId item) const {
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].item == item) return i;
  }
  return items_.size();
}

double RecommendationList::ScoreOf(graph::NodeId item) const {
  size_t rank = RankOf(item);
  return rank < items_.size() ? items_[rank].score : 0.0;
}

RecommendationList RecommendationList::TopN(size_t n) const {
  RecommendationList out;
  out.items_.assign(items_.begin(),
                    items_.begin() + std::min(n, items_.size()));
  return out;
}

}  // namespace emigre::recsys
