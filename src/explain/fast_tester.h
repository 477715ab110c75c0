#ifndef EMIGRE_EXPLAIN_FAST_TESTER_H_
#define EMIGRE_EXPLAIN_FAST_TESTER_H_

#include <memory>
#include <vector>

#include "explain/tester.h"
#include "graph/csr.h"
#include "graph/hin_graph.h"
#include "graph/overlay.h"
#include "ppr/dynamic.h"

namespace emigre::explain {

namespace detail {

/// Deterministic argmax: score descending, id ascending on ties, with
/// sub-noise scores floored to zero.
///
/// Signed-residual repairs can leave O(ε)-sized positive estimates on nodes
/// whose true score is exactly zero; the exact tester breaks such all-zero
/// ties by node id. Flooring restores that tie-break: anything below the
/// push noise level counts as unreachable.
///
/// The `item < best` comparison is the enforced index-ascending tie-break
/// of the class contract: on exactly equal scores the lowest item id wins
/// no matter what order `items` arrives in, by construction rather than by
/// touch order.
template <typename Eligible, typename Score>
graph::NodeId BestItem(const std::vector<graph::NodeId>& items,
                       graph::NodeId user, double floor, Eligible&& eligible,
                       Score&& score_of) {
  graph::NodeId best = graph::kInvalidNode;
  double best_score = -1.0;
  for (graph::NodeId item : items) {
    if (item == user || !eligible(item)) continue;
    double score = score_of(item);
    if (score < floor) score = 0.0;
    // Same deterministic ordering as RecommendationList: score descending,
    // id ascending on ties.
    if (score > best_score || (score == best_score && item < best)) {
      best = item;
      best_score = score;
    }
  }
  return best;
}

}  // namespace detail

/// \brief Approximate TEST built on incrementally maintained PPR.
///
/// The paper notes that "EMiGRe depends on the complexity of the
/// Personalised Page Rank computation, and can benefit from optimisation on
/// graph-update computation results" (§5.3, citing Zhang–Lofgren–Goel).
/// This tester realizes that optimization: instead of re-running power
/// iteration per candidate, it keeps a counterfactual graph view with a
/// `DynamicForwardPush` state for the user and, per TEST, (1) edits the
/// user's out-edges, (2) locally repairs the push invariant, (3) reads the
/// counterfactual ranking off the maintained estimates, (4) reverts. Every
/// candidate's edits are rooted at the user, so each TEST costs two
/// single-row repairs instead of a full recomputation.
///
/// The graph view is a `BasicGraphOverlay` over a CSR snapshot (shared from
/// the facade or built once here); each repair costs O(row + pushes) per
/// TEST (see `ppr::DynamicForwardPush`), and the eligible-item filter flags
/// the user's out-neighbors in a reused per-node array. `Clear()`-based
/// reverts keep the adjacency iteration order fixed across candidates.
///
/// The estimates are ε-accurate rather than exact: two items whose true
/// scores differ by less than ~ε may be mis-ordered, so a verification can
/// differ from the exact `ExplanationTester` on near-ties. Use a tight
/// `PprOptions::epsilon` (default 2.7e-8 already is) and re-verify with the
/// exact tester where a guarantee is required (the evaluation runner does).
///
/// Tie-breaking contract: `CurrentTop` ranks by (score descending, node id
/// ascending) with sub-noise scores floored to zero, so EXACT ties resolve
/// to the lowest item id — the ordering never depends on touch order or
/// adjacency order (see explain_fast_tester_test.cc).
template <typename G>
class FastExplanationTesterT : public TesterInterface {
  using Overlay = graph::BasicGraphOverlay<graph::CsrGraph>;

 public:
  /// Snapshots `base` to CSR (or reuses `csr` when the caller already holds
  /// a snapshot of the same graph) and runs the initial push.
  FastExplanationTesterT(const G& base, graph::NodeId user,
                         graph::NodeId why_not_item, const EmigreOptions& opts,
                         const graph::CsrGraph* csr = nullptr)
      : user_(user),
        wni_(why_not_item),
        opts_(opts),
        items_(base.NodesOfType(opts.rec.item_type)) {
    if (csr == nullptr) {
      owned_csr_ = std::make_unique<graph::CsrGraph>(base, 0);
      csr = owned_csr_.get();
    }
    overlay_ = std::make_unique<Overlay>(*csr);
    neighbors_.assign(csr->NumNodes(), 0);
    dyn_ = std::make_unique<ppr::DynamicForwardPush<Overlay>>(
        *overlay_, user, opts_.rec.ppr);
  }

  bool Test(const std::vector<graph::EdgeRef>& edits, Mode mode,
            graph::NodeId* new_rec = nullptr) override {
    std::vector<ModedEdit> moded;
    moded.reserve(edits.size());
    for (const graph::EdgeRef& e : edits) moded.push_back(ModedEdit{e, mode});
    return RunOnce(moded, new_rec);
  }

  bool TestMixed(const std::vector<ModedEdit>& edits,
                 graph::NodeId* new_rec = nullptr) override {
    return RunOnce(edits, new_rec);
  }

  size_t num_tests() const override { return num_tests_; }
  bool IsExact() const override { return false; }

 private:
  /// Applies the edits, reads the top item, reverts. Returns false for
  /// malformed candidates.
  bool RunOnce(const std::vector<ModedEdit>& edits, graph::NodeId* new_rec) {
    EMIGRE_SPAN("test.dynamic");
    EMIGRE_COUNTER("explain.tests.dynamic").Increment();
    ++num_tests_;
    try {
      if (stale_) Rebuild();
      return TestAndRevert(edits, new_rec);
    } catch (const DeadlineExceededError&) {
      // The query deadline fired inside a repair push, unwinding
      // mid-protocol; a `DynamicForwardPush` that threw must be rebuilt.
      // Mark the state stale so the next TEST (if any — the search budget
      // normally exits first) rebuilds from the base graph.
      // While the deadline stays expired the rebuild itself throws
      // immediately, keeping post-deadline TESTs O(1).
      EMIGRE_COUNTER("explain.tests.dynamic.deadline").Increment();
      stale_ = true;
      if (new_rec != nullptr) *new_rec = graph::kInvalidNode;
      return false;
    }
  }

  bool TestAndRevert(const std::vector<ModedEdit>& edits,
                     graph::NodeId* new_rec) {
    // All explanation edits are rooted at the user (Definition 4.2), so a
    // single Before/After pair around the whole batch repairs the one
    // affected transition row. Reverting is a Clear(), which also restores
    // the base adjacency order.
    dyn_->BeforeOutEdgeChange(user_);
    bool ok = true;
    for (const ModedEdit& e : edits) {
      if (e.edge.src != user_) {
        ok = false;  // foreign-rooted edit: not supported by the fast path
        break;
      }
      Status st;
      if (e.mode == Mode::kAdd) {
        st = overlay_->AddEdge(e.edge.src, e.edge.dst, e.edge.type,
                               opts_.add_edge_weight);
      } else {
        st = overlay_->RemoveEdge(e.edge.src, e.edge.dst, e.edge.type);
      }
      if (!st.ok()) {
        ok = false;
        break;
      }
    }

    graph::NodeId top = graph::kInvalidNode;
    if (ok) {
      dyn_->AfterOutEdgeChange(user_);
      top = CurrentTop();
      // Revert, repairing the invariant again.
      dyn_->BeforeOutEdgeChange(user_);
    }
    overlay_->Clear();
    dyn_->AfterOutEdgeChange(user_);

    if (new_rec != nullptr) *new_rec = ok ? top : graph::kInvalidNode;
    return ok && top == wni_;
  }

  /// Reconstructs the dynamic-push state from the base graph after a
  /// deadline unwind left it mid-repair (stale_): dropping the overlay edits
  /// restores the base view, and a fresh instance replaces the
  /// half-repaired state and its refine flags. Throws
  /// `DeadlineExceededError` itself while the deadline stays expired,
  /// leaving stale_ set for the next attempt.
  void Rebuild() {
    overlay_->Clear();
    dyn_ = std::make_unique<ppr::DynamicForwardPush<Overlay>>(
        *overlay_, user_, opts_.rec.ppr);
    stale_ = false;
  }

  /// Argmax of the maintained estimates over eligible items.
  graph::NodeId CurrentTop() {
    // O(deg) flags over the user's effective out-neighborhood replace
    // per-item HasEdge probes; they are set here and cleared before return.
    auto flag_neighbors = [&](char value) {
      overlay_->ForEachOutEdge(
          user_, [&](graph::NodeId dst, graph::EdgeTypeId, double) {
            neighbors_[dst] = value;
          });
    };
    flag_neighbors(1);
    const double floor = opts_.rec.ppr.epsilon * 100.0;
    graph::NodeId top = detail::BestItem(
        items_, user_, floor,
        [&](graph::NodeId item) { return !neighbors_[item]; },
        [&](graph::NodeId item) { return dyn_->Estimate(item); });
    flag_neighbors(0);
    return top;
  }

  graph::NodeId user_;
  graph::NodeId wni_;
  EmigreOptions opts_;
  std::vector<graph::NodeId> items_;  ///< all item-typed nodes
  size_t num_tests_ = 0;
  /// A deadline unwound a TEST mid-repair: the dynamic-push state no longer
  /// satisfies the invariant and must be rebuilt before the next TEST.
  bool stale_ = false;

  std::unique_ptr<graph::CsrGraph> owned_csr_;
  std::unique_ptr<Overlay> overlay_;
  /// Per-node flags of the user's out-neighbors; all clear outside
  /// `CurrentTop`.
  std::vector<char> neighbors_;
  std::unique_ptr<ppr::DynamicForwardPush<Overlay>> dyn_;
};

/// The classic approximate tester over the in-memory graph.
using FastExplanationTester = FastExplanationTesterT<graph::HinGraph>;

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_FAST_TESTER_H_
