#ifndef EMIGRE_CHECK_INVARIANTS_H_
#define EMIGRE_CHECK_INVARIANTS_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <tuple>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/check_level.h"
#include "explain/explanation.h"
#include "explain/options.h"
#include "explain/search_space.h"
#include "graph/csr.h"
#include "graph/hin_graph.h"
#include "graph/overlay.h"
#include "graph/traits.h"
#include "graph/types.h"
#include "graph/validate.h"
#include "obs/metrics.h"
#include "ppr/forward_push.h"
#include "ppr/options.h"
#include "recsys/recommender.h"
#include "util/status.h"
#include "util/string_util.h"

namespace emigre::check {

/// \file
/// Debug invariant validators (docs/invariants.md).
///
/// Each validator re-derives a property the algorithms rely on but never
/// restate — adjacency mirror symmetry, the Eq. 3/4 local-push residual
/// identities, overlay-vs-materialized equivalence, explanation replay — and
/// returns the first violation as a Status whose message names the offending
/// node/edge and the observed-vs-expected values. They are header-only
/// templates so tests can drive them with corrupting adapter views, and so
/// call sites in `src/explain/` need no extra link dependency.
///
/// Every validator records `check.<name>.pass` / `check.<name>.fail`
/// counters in the global obs registry; `selfcheck` surfaces them via
/// `--metrics-out`.

namespace internal {

/// Counter names vary at runtime, so this bypasses the per-call-site cache
/// of EMIGRE_COUNTER and pays the registry lookup — validators are debug
/// paths, never hot.
inline void RecordOutcome(const char* validator, bool ok) {
  obs::Registry::Global()
      .GetCounter(std::string("check.") + validator + (ok ? ".pass" : ".fail"))
      .Increment();
}

inline std::string FormatEdge(graph::NodeId src, graph::NodeId dst,
                              graph::EdgeTypeId type) {
  std::ostringstream os;
  os << "(" << src << " -> " << dst << ", type " << type << ")";
  return os.str();
}

}  // namespace internal

// --- Graph structure --------------------------------------------------------

/// Validates structural invariants of any GraphLike view `g`:
///  - every out-edge (u, v, t, w) has exactly one mirroring in-edge and
///    vice versa (multiset equality, so multigraph edges count),
///  - all edge weights are positive and finite,
///  - `OutWeight(u)` equals the sum of u's out-edge weights,
///  - a `CsrGraph` snapshot of `g` reproduces the same adjacency
///    (degree, destination, type, weight, node type) — CSR fidelity.
/// Returns the first violation, or OK.
template <graph::GraphLike G>
[[nodiscard]] Status ValidateGraphView(const G& g) {
  const size_t n = g.NumNodes();
  using Key = std::tuple<graph::NodeId, graph::NodeId, graph::EdgeTypeId,
                         double>;

  // Mirror symmetry: collect the out-edge and in-edge multisets and diff.
  std::map<Key, long> balance;
  for (graph::NodeId u = 0; u < n; ++u) {
    double out_sum = 0.0;
    bool bad_weight = false;
    graph::NodeId bad_dst = 0;
    graph::EdgeTypeId bad_type = 0;
    double bad_w = 0.0;
    g.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId t, double w) {
      if (!(w > 0.0) || !std::isfinite(w)) {
        bad_weight = true;
        bad_dst = v;
        bad_type = t;
        bad_w = w;
      }
      out_sum += w;
      ++balance[Key{u, v, t, w}];
    });
    if (bad_weight) {
      internal::RecordOutcome("graph", false);
      return Status::Internal(
          "graph invariant violated: edge " +
          internal::FormatEdge(u, bad_dst, bad_type) +
          " has non-positive or non-finite weight " + std::to_string(bad_w));
    }
    double cached = g.OutWeight(u);
    if (std::abs(cached - out_sum) >
        1e-9 * std::max(1.0, std::abs(out_sum))) {
      internal::RecordOutcome("graph", false);
      return Status::Internal(
          "graph invariant violated: node " + std::to_string(u) +
          " cached OutWeight " + std::to_string(cached) +
          " != sum of out-edge weights " + std::to_string(out_sum));
    }
    g.ForEachInEdge(u, [&](graph::NodeId v, graph::EdgeTypeId t, double w) {
      --balance[Key{v, u, t, w}];
    });
  }
  for (const auto& [key, count] : balance) {
    if (count == 0) continue;
    const auto& [src, dst, type, w] = key;
    internal::RecordOutcome("graph", false);
    return Status::Internal(
        "graph invariant violated: edge " +
        internal::FormatEdge(src, dst, type) + " with weight " +
        std::to_string(w) +
        (count > 0 ? " appears in an out-list without a mirroring in-edge"
                   : " appears in an in-list without a mirroring out-edge"));
  }

  // CSR fidelity: the packed snapshot must reproduce the adjacency exactly.
  graph::CsrGraph csr(g, 0);
  if (csr.NumNodes() != n) {
    internal::RecordOutcome("graph", false);
    return Status::Internal("graph invariant violated: CSR snapshot has " +
                            std::to_string(csr.NumNodes()) + " nodes, view has " +
                            std::to_string(n));
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    if (csr.NodeType(u) != g.NodeType(u)) {
      internal::RecordOutcome("graph", false);
      return Status::Internal(
          "graph invariant violated: CSR node type of " + std::to_string(u) +
          " diverges from the view");
    }
    std::vector<std::tuple<graph::NodeId, graph::EdgeTypeId, double>> a;
    std::vector<std::tuple<graph::NodeId, graph::EdgeTypeId, double>> b;
    g.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId t, double w) {
      a.emplace_back(v, t, w);
    });
    csr.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId t, double w) {
      b.emplace_back(v, t, w);
    });
    if (a != b) {
      internal::RecordOutcome("graph", false);
      return Status::Internal(
          "graph invariant violated: CSR out-adjacency of node " +
          std::to_string(u) + " diverges from the view (degree " +
          std::to_string(a.size()) + " vs " + std::to_string(b.size()) + ")");
    }
  }
  internal::RecordOutcome("graph", true);
  return Status::OK();
}

/// Full validation of a concrete `HinGraph`: the structural checks of
/// `ValidateGraphView` plus the type-registry consistency checks of
/// `graph::ValidateGraph` (every node/edge type registered).
[[nodiscard]] inline Status ValidateGraph(const graph::HinGraph& g) {
  Status registry = graph::ValidateGraph(g);
  if (!registry.ok()) {
    internal::RecordOutcome("graph", false);
    return Status::Internal("graph invariant violated: " + registry.message());
  }
  return ValidateGraphView(g);
}

// --- PPR residual identities (paper Eq. 3 / Eq. 4) ---------------------------

/// Validates the Forward Local Push invariant for a push state rooted at
/// `source` (paper Eq. 3, [39]). In vector form, with p = estimate,
/// r = residual, and W the out-transition matrix (dangling nodes carry the
/// implicit self-loop W(u,u) = 1, see `ppr::kDanglingSelfLoop`):
///
///   r = e_source − p/α + (1−α)/α · (p·W)
///
/// Pushes preserve this identity exactly, so `tol` only has to absorb
/// floating-point accumulation.
template <graph::GraphLike G>
[[nodiscard]] Status ValidateForwardPushInvariant(
    const G& g, graph::NodeId source, const ppr::PushResult& state,
    const ppr::PprOptions& opts = {}, double tol = 1e-8) {
  const size_t n = g.NumNodes();
  if (state.estimate.size() != n || state.residual.size() != n) {
    internal::RecordOutcome("flp", false);
    return Status::Internal(
        "flp invariant violated: state sized for " +
        std::to_string(state.estimate.size()) + " nodes, graph has " +
        std::to_string(n));
  }
  // acc[v] = Σ_u p(u)·W(u,v); dangling u contributes its mass to itself.
  std::vector<double> acc(n, 0.0);
  for (graph::NodeId u = 0; u < n; ++u) {
    double p = state.estimate[u];
    if (p == 0.0) continue;
    double out_w = g.OutWeight(u);
    if (out_w <= 0.0) {
      acc[u] += p;
      continue;
    }
    g.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
      acc[v] += p * w / out_w;
    });
  }
  const double alpha = opts.alpha;
  for (graph::NodeId v = 0; v < n; ++v) {
    double expected = (v == source ? 1.0 : 0.0) - state.estimate[v] / alpha +
                      (1.0 - alpha) / alpha * acc[v];
    double got = state.residual[v];
    if (std::abs(got - expected) > tol) {
      internal::RecordOutcome("flp", false);
      return Status::Internal(
          "flp invariant (Eq. 3) violated at node " + std::to_string(v) +
          " for source " + std::to_string(source) + ": residual " +
          std::to_string(got) + ", identity requires " +
          std::to_string(expected) + " (|diff| " +
          std::to_string(std::abs(got - expected)) + " > tol " +
          std::to_string(tol) + ")");
    }
  }
  internal::RecordOutcome("flp", true);
  return Status::OK();
}

/// Validates that a forward-push state is terminated: no node v carries a
/// residual with |r(v)| ≥ ε·max(out_degree(v), 1), the threshold at which
/// `ForwardPush` pushes a node. Every push must end this way; Eq. 3 alone
/// does not show it, since the identity holds after any number of pushes.
/// Exact, no tolerance: the loop compares the same quantities.
template <graph::GraphLike G>
[[nodiscard]] Status ValidateForwardPushTerminated(
    const G& g, const ppr::PushResult& state,
    const ppr::PprOptions& opts = {}) {
  const size_t n = g.NumNodes();
  if (state.residual.size() != n) {
    internal::RecordOutcome("flp_terminated", false);
    return Status::Internal(
        "flp termination violated: state sized for " +
        std::to_string(state.residual.size()) + " nodes, graph has " +
        std::to_string(n));
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    size_t deg = g.OutDegree(v);
    double threshold = opts.epsilon * static_cast<double>(deg > 0 ? deg : 1);
    if (std::abs(state.residual[v]) >= threshold) {
      internal::RecordOutcome("flp_terminated", false);
      return Status::Internal(StrFormat(
          "flp termination violated at node %u: |residual| %.17g >= "
          "threshold %.17g (epsilon %g x max(degree %zu, 1))",
          v, std::abs(state.residual[v]), threshold, opts.epsilon, deg));
    }
  }
  internal::RecordOutcome("flp_terminated", true);
  return Status::OK();
}

/// Validates the Reverse Local Push invariant for a push state rooted at
/// `target` (paper Eq. 4). Column form of the same identity: with
/// p(s) = estimate[s] ≈ PPR(s, target) and r the reverse residual,
///
///   r(s) = e_target(s) − p(s)/α + (1−α)/α · Σ_v W(s,v)·p(v)
///
/// where the row sum runs over s's out-transitions (a dangling s has the
/// self-loop row W(s,s) = 1, so its row sum is p(s)).
template <graph::GraphLike G>
[[nodiscard]] Status ValidateReversePushInvariant(
    const G& g, graph::NodeId target, const ppr::PushResult& state,
    const ppr::PprOptions& opts = {}, double tol = 1e-8) {
  const size_t n = g.NumNodes();
  if (state.estimate.size() != n || state.residual.size() != n) {
    internal::RecordOutcome("rlp", false);
    return Status::Internal(
        "rlp invariant violated: state sized for " +
        std::to_string(state.estimate.size()) + " nodes, graph has " +
        std::to_string(n));
  }
  const double alpha = opts.alpha;
  for (graph::NodeId s = 0; s < n; ++s) {
    double row_sum = 0.0;
    double out_w = g.OutWeight(s);
    if (out_w <= 0.0) {
      row_sum = state.estimate[s];
    } else {
      g.ForEachOutEdge(s, [&](graph::NodeId v, graph::EdgeTypeId, double w) {
        row_sum += w / out_w * state.estimate[v];
      });
    }
    double expected = (s == target ? 1.0 : 0.0) - state.estimate[s] / alpha +
                      (1.0 - alpha) / alpha * row_sum;
    double got = state.residual[s];
    if (std::abs(got - expected) > tol) {
      internal::RecordOutcome("rlp", false);
      return Status::Internal(
          "rlp invariant (Eq. 4) violated at node " + std::to_string(s) +
          " for target " + std::to_string(target) + ": residual " +
          std::to_string(got) + ", identity requires " +
          std::to_string(expected) + " (|diff| " +
          std::to_string(std::abs(got - expected)) + " > tol " +
          std::to_string(tol) + ")");
    }
  }
  internal::RecordOutcome("rlp", true);
  return Status::OK();
}

// --- Overlay-vs-materialized equivalence -------------------------------------

/// Validates that `overlay` behaves identically to a materialized edit of
/// its base graph. Builds a `HinGraph` copy, replays the overlay's effective
/// per-node edge diff onto it (removals, additions, and weight overrides as
/// remove+add), then checks
///  (a) structural equality: per-node effective out-edge multisets,
///      in-edge multisets (out/in desync is the classic overlay bug), and
///      cached out-weights all match,
///  (b) behavioural equality: `ForwardPush` from each node in `sources`
///      produces estimates within `massA + massB + tol` per node, the bound
///      both lower-bound estimates obey relative to the shared true PPR.
/// Templated over the overlay type so tests can drive it with corrupting
/// wrappers; `OverlayT` must expose `base()` plus the GraphLike traversal
/// surface (`graph::GraphOverlay` does).
template <typename OverlayT>
[[nodiscard]] Status ValidateOverlayEquivalence(
    const OverlayT& overlay, const std::vector<graph::NodeId>& sources,
    const ppr::PprOptions& opts = {}, double tol = 1e-9) {
  const graph::HinGraph& base = overlay.base();
  graph::HinGraph copy = base;
  const size_t n = base.NumNodes();

  using EdgeKey = std::pair<graph::NodeId, graph::EdgeTypeId>;
  for (graph::NodeId u = 0; u < n; ++u) {
    // Effective (dst, type) -> weight maps for base and overlay. The graph
    // rejects duplicate (src, dst, type) triples, so the maps are faithful.
    std::map<EdgeKey, double> base_edges;
    std::map<EdgeKey, double> eff_edges;
    base.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId t,
                               double w) { base_edges[{v, t}] = w; });
    overlay.ForEachOutEdge(u, [&](graph::NodeId v, graph::EdgeTypeId t,
                                  double w) { eff_edges[{v, t}] = w; });
    for (const auto& [key, w] : base_edges) {
      auto it = eff_edges.find(key);
      if (it == eff_edges.end()) {
        Status st = copy.RemoveEdge(u, key.first, key.second);
        if (!st.ok()) {
          internal::RecordOutcome("overlay", false);
          return Status::Internal(
              "overlay invariant violated: materializing removal of " +
              internal::FormatEdge(u, key.first, key.second) +
              " failed: " + st.message());
        }
      } else if (it->second != w) {
        // Weight override: realize as remove + re-add at the new weight.
        Status st = copy.RemoveEdge(u, key.first, key.second);
        if (st.ok()) st = copy.AddEdge(u, key.first, key.second, it->second);
        if (!st.ok()) {
          internal::RecordOutcome("overlay", false);
          return Status::Internal(
              "overlay invariant violated: materializing reweight of " +
              internal::FormatEdge(u, key.first, key.second) +
              " failed: " + st.message());
        }
      }
    }
    for (const auto& [key, w] : eff_edges) {
      if (base_edges.count(key)) continue;
      Status st = copy.AddEdge(u, key.first, key.second, w);
      if (!st.ok()) {
        internal::RecordOutcome("overlay", false);
        return Status::Internal(
            "overlay invariant violated: materializing addition of " +
            internal::FormatEdge(u, key.first, key.second) +
            " failed: " + st.message());
      }
    }
  }

  // (a) Structural equality of effective adjacency (multisets; removal and
  // re-addition may reorder edges relative to the overlay's view). The
  // in-edge comparison is the load-bearing one: the copy's in-lists are
  // rebuilt from the out-diff, so an overlay whose in-view desynced from
  // its out-view shows up here.
  for (graph::NodeId u = 0; u < n; ++u) {
    for (bool out_side : {true, false}) {
      std::map<std::tuple<graph::NodeId, graph::EdgeTypeId, double>, long>
          diff;
      auto add = [&](graph::NodeId v, graph::EdgeTypeId t, double w) {
        ++diff[{v, t, w}];
      };
      auto sub = [&](graph::NodeId v, graph::EdgeTypeId t, double w) {
        --diff[{v, t, w}];
      };
      if (out_side) {
        overlay.ForEachOutEdge(u, add);
        copy.ForEachOutEdge(u, sub);
      } else {
        overlay.ForEachInEdge(u, add);
        copy.ForEachInEdge(u, sub);
      }
      for (const auto& [key, count] : diff) {
        if (count == 0) continue;
        internal::RecordOutcome("overlay", false);
        return Status::Internal(
            "overlay invariant violated: node " + std::to_string(u) +
            " effective " + (out_side ? "out" : "in") + "-edge " +
            (out_side ? "to " : "from ") +
            std::to_string(std::get<0>(key)) + " (type " +
            std::to_string(std::get<1>(key)) + ", weight " +
            std::to_string(std::get<2>(key)) +
            (count > 0
                 ? ") present in the overlay but not the materialized copy"
                 : ") present in the materialized copy but not the "
                   "overlay"));
      }
    }
    double ow = overlay.OutWeight(u);
    double cw = copy.OutWeight(u);
    if (std::abs(ow - cw) > 1e-9 * std::max(1.0, std::abs(cw))) {
      internal::RecordOutcome("overlay", false);
      return Status::Internal(
          "overlay invariant violated: node " + std::to_string(u) +
          " effective OutWeight " + std::to_string(ow) +
          " != materialized OutWeight " + std::to_string(cw));
    }
  }

  // (b) Behavioural equality through the PPR engine on sampled sources.
  for (graph::NodeId s : sources) {
    if (s >= n) continue;
    ppr::PushResult a = ppr::ForwardPush(overlay, s, opts);
    ppr::PushResult b = ppr::ForwardPush(copy, s, opts);
    double bound = a.ResidualMass() + b.ResidualMass() + tol;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (std::abs(a.estimate[v] - b.estimate[v]) > bound) {
        internal::RecordOutcome("overlay", false);
        return Status::Internal(
            "overlay invariant violated: ForwardPush from source " +
            std::to_string(s) + " diverges at node " + std::to_string(v) +
            ": overlay estimate " + std::to_string(a.estimate[v]) +
            " vs materialized " + std::to_string(b.estimate[v]) +
            " (allowed " + std::to_string(bound) + ")");
      }
    }
  }
  internal::RecordOutcome("overlay", true);
  return Status::OK();
}

// --- Explanation replay ------------------------------------------------------

/// Validates that a found explanation actually flips the recommendation:
/// replays `e.edges` on a fresh overlay over `base` (adding them in Add
/// mode with `opts.add_edge_weight`, removing them in Remove mode — the
/// exact semantics of `ExplanationTester::Test`) and checks that the top-1
/// recommendation for `q.user` becomes `q.why_not_item`.
///
/// Only meaningful for explanations with `found && verified`; unverified
/// ones (the Exhaustive-direct baseline skips TEST) may legitimately fail
/// replay.
///
/// Generic over the base graph `G` (`HinGraph` or an mmap-backed
/// `CsrSnapshotView`): the replay runs on a `BasicGraphOverlay<G>`.
template <graph::GraphLike G>
[[nodiscard]] Status ValidateExplanation(
    const G& base, const explain::WhyNotQuestion& q,
    const explain::Explanation& e, const explain::EmigreOptions& opts) {
  if (e.degraded) {
    // A degraded (anytime best-so-far) result is by definition not a proven
    // explanation; accepting one as validated would launder an unverified
    // candidate into a Definition 4.2 guarantee.
    internal::RecordOutcome("explanation", false);
    return Status::FailedPrecondition(
        "degraded (anytime best-so-far) results are not valid explanations "
        "and must not be replay-validated");
  }
  if (!e.found) {
    internal::RecordOutcome("explanation", true);
    return Status::OK();
  }
  graph::BasicGraphOverlay<G> overlay(base);
  for (const graph::EdgeRef& edge : e.edges) {
    Status st = e.mode == explain::Mode::kAdd
                    ? overlay.AddEdge(edge.src, edge.dst, edge.type,
                                      opts.add_edge_weight)
                    : overlay.RemoveEdge(edge.src, edge.dst, edge.type);
    if (!st.ok()) {
      internal::RecordOutcome("explanation", false);
      return Status::Internal(
          "explanation invariant violated: replaying " +
          std::string(explain::ModeName(e.mode)) + " edit " +
          internal::FormatEdge(edge.src, edge.dst, edge.type) +
          " failed: " + st.message());
    }
  }
  graph::NodeId top = recsys::Recommend(overlay, q.user, opts.rec);
  if (top != q.why_not_item) {
    internal::RecordOutcome("explanation", false);
    return Status::Internal(
        "explanation invariant violated: replaying the " +
        std::to_string(e.edges.size()) + "-edge " +
        std::string(explain::ModeName(e.mode)) + " explanation for user " +
        std::to_string(q.user) + " yields top recommendation " +
        std::to_string(top) + ", expected why-not item " +
        std::to_string(q.why_not_item));
  }
  internal::RecordOutcome("explanation", true);
  return Status::OK();
}

/// Validates that every edge of a found explanation is a member of the
/// search space H it was computed from — the subset-enumerating searches
/// (Powerset, BruteForce) must never invent actions outside Algorithm 1/2's
/// candidate list, and must respect the configured size cap.
[[nodiscard]] inline Status ValidateExplanationInSpace(
    const explain::SearchSpace& space, const explain::Explanation& e,
    const explain::EmigreOptions& opts) {
  if (!e.found) {
    internal::RecordOutcome("space", true);
    return Status::OK();
  }
  if (opts.max_explanation_size > 0 &&
      e.edges.size() > opts.max_explanation_size) {
    internal::RecordOutcome("space", false);
    return Status::Internal(
        "search-space invariant violated: explanation has " +
        std::to_string(e.edges.size()) +
        " edges, exceeding max_explanation_size " +
        std::to_string(opts.max_explanation_size));
  }
  for (const graph::EdgeRef& edge : e.edges) {
    bool member = false;
    for (const explain::CandidateAction& a : space.actions) {
      if (a.edge == edge) {
        member = true;
        break;
      }
    }
    if (!member) {
      internal::RecordOutcome("space", false);
      return Status::Internal(
          "search-space invariant violated: explanation edge " +
          internal::FormatEdge(edge.src, edge.dst, edge.type) +
          " is not a member of the candidate list H (|H| = " +
          std::to_string(space.actions.size()) + ")");
    }
  }
  internal::RecordOutcome("space", true);
  return Status::OK();
}

// --- DCHECK plumbing ---------------------------------------------------------

/// Aborts with the validator's message when `status` is an error. The
/// invariant hooks in search code funnel through this so a violation stops
/// the run at the point of corruption rather than surfacing as a wrong
/// answer later.
inline void DcheckOk(const Status& status, const char* where) {
  if (status.ok()) return;
  std::fprintf(stderr, "EMIGRE_DCHECK_INVARIANTS failure in %s: %s\n", where,
               status.ToString().c_str());
  std::abort();
}

}  // namespace emigre::check

#endif  // EMIGRE_CHECK_INVARIANTS_H_
