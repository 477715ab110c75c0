#ifndef EMIGRE_EXPLAIN_OPTIONS_H_
#define EMIGRE_EXPLAIN_OPTIONS_H_

#include <cstddef>
#include <vector>

#include "check/check_level.h"
#include "graph/types.h"
#include "obs/query_log.h"
#include "recsys/recommender.h"

namespace emigre::explain {

/// \brief The TEST implementation: one value, selecting nothing.
///
/// Every candidate is verified by the exact `ExplanationTesterT`, a full
/// recommender re-run per candidate (tester.h). The enum and
/// `EmigreOptions::tester` remain only because the end-to-end benchmark
/// (e2ebench/e2e_bench.cc) still assigns the field; both go once it stops.
enum class TesterKind {
  kExact,
};

/// \brief Configuration of the EMiGRe framework.
///
/// Groups (i) the recommender being explained, (ii) the action vocabulary
/// T_e — which edge types may appear in explanations (the paper restricts to
/// user–item edges for privacy, §6.1) — and (iii) resource caps that bound
/// the exponential searches. Caps default generously; the paper's
/// neighborhood sizes (10–100 actions) stay within them, and hitting one is
/// reported as `FailureReason::kBudgetExceeded` rather than silently
/// truncating.
struct EmigreOptions {
  /// The recommender whose output is being explained (PPR parameters and
  /// the item node type).
  recsys::RecommenderOptions rec;

  /// Allowed edge types for explanation actions (the paper's T_e). Empty
  /// means "all edge types".
  std::vector<graph::EdgeTypeId> allowed_edge_types;

  /// Edge type and weight used for Add-mode counterfactual edges. The paper
  /// notes rated/reviewed are interchangeable (§6.2); pick one.
  graph::EdgeTypeId add_edge_type = graph::kInvalidEdgeType;
  double add_edge_weight = 1.0;

  /// Add-mode candidate cap: keep the strongest `max_add_candidates` nodes
  /// from the Reverse-Local-Push frontier (0 = unlimited).
  size_t max_add_candidates = 256;

  /// Maximum explanation size considered by subset-enumerating searches
  /// (Powerset, Exhaustive, BruteForce). 0 = unlimited.
  size_t max_explanation_size = 5;

  /// Powerset/Exhaustive pruned-H cap: only the `max_subset_nodes` highest-
  /// contribution nodes participate in subset enumeration (0 = unlimited).
  /// Guards the 2^|H| worst case the paper acknowledges in §5.3.
  size_t max_subset_nodes = 18;

  /// Cap on TEST invocations per explanation attempt (0 = unlimited).
  size_t max_tests = 20000;

  /// Wall-clock budget per explanation attempt in seconds (0 = unlimited).
  /// The deadline is propagated cooperatively into the TEST path's PPR
  /// loops (docs/robustness.md), so a single long push cannot overshoot it
  /// by more than a polling interval.
  double deadline_seconds = 0.0;

  /// Anytime mode: when the budget (tests or deadline) expires mid-search,
  /// return the best-so-far candidate as a `degraded` Explanation (smallest
  /// remaining score gap) instead of a bare kBudgetExceeded failure. Off by
  /// default — the default pipeline output is bitwise identical to builds
  /// without this feature. Degraded results are never marked `verified` and
  /// are rejected by `ValidateExplanation`; see docs/robustness.md.
  bool anytime = false;

  /// Number of top-ranked items (beyond WNI) used as the target set T of
  /// the Exhaustive Comparison (paper uses the top-10 recommendation list).
  size_t exhaustive_targets = 10;

  /// Selects nothing; see `TesterKind`.
  TesterKind tester = TesterKind::kExact;

  /// Worker threads for candidate verification (the TEST fan-out;
  /// docs/parallelism.md). 1 = serial in the calling thread (default),
  /// 0 = hardware concurrency, N = N workers, each owning a private tester.
  /// Results are deterministic at any setting: batches accept the
  /// lowest-index success, exactly like the serial scan.
  size_t test_threads = 1;

  /// Optional per-query audit sink (docs/observability.md). When set,
  /// every `Explain` call appends one emigre.query.v1 record — question,
  /// budgets, phase durations, faults fired, resulting edge set. Not owned;
  /// must outlive the engine. The sink is internally synchronized, so
  /// engines running on multiple threads may share one log.
  obs::QueryLog* query_log = nullptr;

  /// Invariant-validation level of the debug hooks (docs/invariants.md).
  /// Only consulted in builds configured with
  /// `-DEMIGRE_DCHECK_INVARIANTS=ON`; release builds compile the hooks away
  /// regardless of this value.
  check::CheckLevel check_level = check::CheckLevel::kFull;

  /// Margin tolerance of the Exhaustive Comparison's threshold test. The
  /// paper requires strictly positive margins, but the contribution matrix
  /// is built from Reverse-Local-Push estimates carrying O(ε) error, and a
  /// target tied with WNI (margin exactly 0) can still lose the
  /// deterministic id tie-break; candidates within the slack are kept and
  /// left to the TEST step to adjudicate.
  double exhaustive_margin_slack = 1e-7;

  /// Returns true if `type` is allowed in explanations.
  bool IsAllowedEdgeType(graph::EdgeTypeId type) const {
    if (allowed_edge_types.empty()) return true;
    for (graph::EdgeTypeId t : allowed_edge_types) {
      if (t == type) return true;
    }
    return false;
  }
};

}  // namespace emigre::explain

#endif  // EMIGRE_EXPLAIN_OPTIONS_H_
