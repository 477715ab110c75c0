#ifndef EMIGRE_PPR_DYNAMIC_H_
#define EMIGRE_PPR_DYNAMIC_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "graph/traits.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ppr/forward_push.h"
#include "ppr/options.h"

namespace emigre::ppr {

/// \brief Incrementally maintained Forward Push state under edge updates.
///
/// Implements the dynamic-graph PPR maintenance of Zhang, Lofgren & Goel
/// (KDD'16) — the paper's reference [38] — for a fixed source: instead of
/// recomputing PPR(s,·) from scratch after each graph edit, repair the
/// push invariant locally and re-push.
///
/// A valid forward-push state satisfies (in vector form)
///   r = e_s − p/α + (1−α)/α · (p·W).
/// When the out-edge set of a single node u changes, only the row W(u,·)
/// changes, so the repair touches exactly u's old and new out-neighbors:
///   r(v) += (1−α)/α · p(u) · (W′(u,v) − W(u,v)).
/// Residuals may turn negative after deletions; the refine pushes signed
/// residuals symmetrically.
///
/// The refine is `ForwardPush`'s own loop (`detail::ForwardPushLoop`),
/// seeded with only the nodes the repair wrote ({u} ∪ old row ∪ new row,
/// ascending) and run on `queued` flags this instance allocates once, so a
/// repair costs O(row + pushes) instead of O(n). The seed set is complete
/// because every refine runs to termination (no residual above threshold,
/// `check::ValidateForwardPushTerminated`): after a repair only the written
/// nodes can be above threshold — u's threshold moves with its degree —
/// and, seeded ascending, they enqueue in the order a full scan would.
///
/// Usage: construct over a mutable graph view, then for each edit call
/// `BeforeOutEdgeChange(u)`, mutate the graph, call `AfterOutEdgeChange(u)`.
/// The node set must not change. After a `DeadlineExceededError` the state
/// is unusable: rebuild the instance (the dynamic tester does, through its
/// stale flag).
template <graph::GraphLike G>
class DynamicForwardPush {
 public:
  /// Runs the initial push from `source` over the current state of `g`.
  /// The referenced graph must outlive this object.
  DynamicForwardPush(const G& g, graph::NodeId source,
                     const PprOptions& opts = {})
      : g_(&g),
        opts_(opts),
        state_(ForwardPush(g, source, opts)),
        queued_(g.NumNodes(), 0) {}

  /// Snapshots the transition row of `u` ahead of an out-edge mutation.
  void BeforeOutEdgeChange(graph::NodeId u) {
    pending_row_ = TransitionRow(u);
  }

  /// Repairs the invariant after the out-edges of the node passed to
  /// `BeforeOutEdgeChange` were mutated, then re-pushes to termination.
  /// Throws `DeadlineExceededError` when `opts.deadline` expires mid-refine,
  /// after which the instance must be rebuilt.
  void AfterOutEdgeChange(graph::NodeId u) {
    EMIGRE_SPAN("dyn.repair");
    EMIGRE_FAULT_POINT("ppr.dyn.refine");
    EMIGRE_COUNTER("ppr.dyn.repairs").Increment();
    std::unordered_map<graph::NodeId, double> new_row = TransitionRow(u);
    double scale = (1.0 - opts_.alpha) / opts_.alpha * state_.estimate[u];
    if (scale != 0.0) {
      for (const auto& [v, w_new] : new_row) {
        double w_old = 0.0;
        if (auto it = pending_row_.find(v); it != pending_row_.end()) {
          w_old = it->second;
        }
        state_.residual[v] += scale * (w_new - w_old);
      }
      for (const auto& [v, w_old] : pending_row_) {
        if (new_row.count(v) == 0) state_.residual[v] -= scale * w_old;
      }
    }
    std::vector<graph::NodeId> seeds;
    seeds.reserve(1 + pending_row_.size() + new_row.size());
    seeds.push_back(u);
    for (const auto& [v, w] : pending_row_) seeds.push_back(v);
    for (const auto& [v, w] : new_row) seeds.push_back(v);
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    pending_row_.clear();
    detail::PushLoopStats stats =
        detail::ForwardPushLoop(*g_, opts_, seeds, state_, queued_);
    EMIGRE_COUNTER("ppr.dyn.refine_pushes").Increment(stats.pushes);
  }

  /// Current estimate of PPR(source, t).
  double Estimate(graph::NodeId t) const { return state_.estimate[t]; }
  const std::vector<double>& Estimates() const { return state_.estimate; }
  const std::vector<double>& Residuals() const { return state_.residual; }

  /// The full state (for the Eq. 3 and termination validators).
  const PushResult& State() const { return state_; }

 private:
  /// Transition probabilities out of u, with the implicit dangling
  /// self-loop materialized.
  std::unordered_map<graph::NodeId, double> TransitionRow(
      graph::NodeId u) const {
    std::unordered_map<graph::NodeId, double> row;
    double out_w = g_->OutWeight(u);
    if (out_w <= 0.0) {
      row[u] = 1.0;
      return row;
    }
    g_->ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
      row[v] += w / out_w;
    });
    return row;
  }

  const G* g_;
  PprOptions opts_;
  PushResult state_;
  /// The refine's queued flags: all clear between repairs.
  std::vector<char> queued_;
  std::unordered_map<graph::NodeId, double> pending_row_;
};

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_DYNAMIC_H_
