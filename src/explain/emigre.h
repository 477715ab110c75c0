#ifndef EMIGRE_EXPLAIN_EMIGRE_H_
#define EMIGRE_EXPLAIN_EMIGRE_H_

#include <memory>
#include <utility>

#include "explain/explanation.h"
#include "explain/options.h"
#include "graph/csr.h"
#include "graph/hin_graph.h"
#include "ppr/cache.h"
#include "recsys/rec_list.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace emigre::explain {

/// \brief The last (user → ranking) pair an engine computed.
///
/// An engine's ranking of a user is a pure function of its graph and
/// options, neither of which changes, so a stored ranking stays exact. One
/// slot serves the common repeats: ExplainAuto's Add-mode attempt after
/// Remove, a user's next question and the next method on one question all
/// rank the user the previous call ranked. Thread-safe; concurrent callers
/// with different users take turns in the slot.
class RankingSlot {
 public:
  /// The stored ranking when it belongs to `user`, else null.
  std::shared_ptr<const recsys::RecommendationList> Find(
      graph::NodeId user) const;

  /// Makes `ranking` the stored ranking, belonging to `user`.
  void Store(graph::NodeId user, recsys::RecommendationList ranking);

 private:
  mutable util::Mutex mutex_;
  graph::NodeId user_ GUARDED_BY(mutex_) = graph::kInvalidNode;
  std::shared_ptr<const recsys::RecommendationList> ranking_
      GUARDED_BY(mutex_);
};

/// \brief The EMiGRe framework facade (paper Fig. 3).
///
/// Wires the full pipeline for one Why-Not question: validate the question
/// (Definition 4.1) → run the recommender → build the mode's search space
/// (Algorithm 1 or 2) → compute the explanation with the selected heuristic
/// (Algorithms 3/4/5 or a baseline) → return the explanation with
/// diagnostics.
///
/// Generic over the base graph `G`: the classic in-memory `HinGraph` (the
/// `Emigre` alias) or an mmap-backed `graph::CsrSnapshotView`, which serves
/// the same pipeline straight off a snapshot file without materializing a
/// mutable graph. Explicitly instantiated for both in emigre.cc.
///
/// Thread-safety: the engine's options and CSR snapshot are immutable after
/// construction, and it holds only a reference to the graph; its PPR cache
/// and ranking slot are internally synchronized. Concurrent `Explain` calls
/// are safe as long as the graph is not mutated.
///
/// ```
/// explain::EmigreOptions opts;
/// opts.rec.item_type = g.FindNodeType("item");
/// opts.add_edge_type = g.FindEdgeType("rated");
/// opts.allowed_edge_types = {g.FindEdgeType("rated")};
/// explain::Emigre engine(g, opts);
/// auto result = engine.Explain({user, missing_item}, explain::Mode::kAdd,
///                              explain::Heuristic::kIncremental);
/// ```
template <typename G>
class EmigreT {
 public:
  /// `g` must outlive the engine — and must not be mutated while the
  /// engine exists (the engine caches PPR vectors computed on it and keeps
  /// a CSR snapshot of it).
  EmigreT(const G& g, EmigreOptions opts)
      : g_(&g),
        opts_(std::move(opts)),
        csr_(MakeCsr(g)),
        ppr_cache_(std::make_unique<ppr::ReversePushCache<graph::CsrGraph>>(
            csr_, opts_.rec.ppr)) {}

  /// Computes a Why-Not explanation for `q` using the given mode and
  /// heuristic. Fails with InvalidArgument when `q` violates Definition 4.1
  /// (WNI not an item, already interacted with, or already the top
  /// recommendation). A valid question that admits no explanation returns
  /// an Explanation with `found == false` and a `FailureReason`.
  ///
  /// This is also the pipeline's exception boundary: infrastructure
  /// failures below it (a `StatusError` from a worker task, any stray
  /// exception) come back as an error Status, never as a thrown exception;
  /// a query-deadline unwind comes back as a `kBudgetExceeded` Explanation.
  /// With `EmigreOptions::anytime` set, budget expiry returns the
  /// best-so-far candidate flagged `degraded` (docs/robustness.md).
  [[nodiscard]] Result<Explanation> Explain(const WhyNotQuestion& q, Mode mode,
                              Heuristic heuristic) const;

  /// Paper §5.4 "Choice of the Method": runs Remove mode first when the
  /// user has existing actions to reason about, then falls back to Add
  /// mode (whose search space is independent of the user's history).
  [[nodiscard]] Result<Explanation> ExplainAuto(
      const WhyNotQuestion& q,
      Heuristic heuristic = Heuristic::kIncremental) const;

  /// The recommender's current full ranking for `user` (Eq. 2 candidates).
  /// Repeats the previous call's ranking when it was for the same user,
  /// without recomputing it (counted by `explain.ranking.reused`).
  recsys::RecommendationList CurrentRanking(graph::NodeId user) const;

  const EmigreOptions& options() const { return opts_; }
  const G& graph() const { return *g_; }

  /// Checks Definition 4.1 for (user, wni): wni is an item node, has no
  /// edge from the user, and differs from the current recommendation `rec`.
  [[nodiscard]]
  Status ValidateQuestion(const WhyNotQuestion& q, graph::NodeId rec) const;

  /// Cache statistics (diagnostics; shared across Explain calls).
  const ppr::ReversePushCache<graph::CsrGraph>& ppr_cache() const {
    return *ppr_cache_;
  }

  /// The engine's CSR snapshot of the graph (shared with the testers).
  const graph::CsrGraph& csr() const { return csr_; }

 private:
  /// The engine's CSR form of `g`: an mmap-backed view already carries one
  /// (`g.csr()` — sharing it aliases the mapping, no copy of the columns);
  /// any other GraphLike is snapshotted once here.
  static graph::CsrGraph MakeCsr(const G& g) {
    if constexpr (requires { g.csr(); }) {
      return g.csr();
    } else {
      return graph::CsrGraph(g, 0);
    }
  }

  /// The pipeline body; may throw (deadline unwinds, worker-task errors).
  /// `Explain` wraps it in the exception boundary. `record`, when non-null,
  /// collects per-phase wall times for the audit log.
  [[nodiscard]] Result<Explanation> ExplainImpl(const WhyNotQuestion& q,
                                                Mode mode, Heuristic heuristic,
                                                obs::QueryRecord* record) const;

  const G* g_;
  EmigreOptions opts_;
  // CSR snapshot of *g_, built (or aliased) once per engine: the PPR cache
  // pushes over it and every tester lays its overlay on it, so no Explain
  // call pays the O(V+E) snapshot cost.
  graph::CsrGraph csr_;
  // Reverse-push vectors are pure functions of (graph, target); shared
  // across questions and across the per-question phases. The cache is
  // internally synchronized, keeping concurrent Explain calls safe.
  std::unique_ptr<ppr::ReversePushCache<graph::CsrGraph>> ppr_cache_;
  // The last ranking CurrentRanking computed; mutable because
  // CurrentRanking is const, and the slot synchronizes itself.
  mutable RankingSlot last_ranking_;
};

/// The classic facade over the in-memory graph.
using Emigre = EmigreT<graph::HinGraph>;

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_EMIGRE_H_
