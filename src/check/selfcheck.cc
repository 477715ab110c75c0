#include "check/selfcheck.h"

#include <algorithm>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "explain/emigre.h"
#include "graph/overlay.h"
#include "graph/types.h"
#include "obs/trace.h"
#include "ppr/dynamic.h"
#include "ppr/forward_push.h"
#include "ppr/reverse_push.h"
#include "ppr/workspace.h"
#include "util/rng.h"

namespace emigre::check {
namespace {

void Record(SelfCheckReport* report, const std::string& suite,
            const Status& st) {
  ++report->checks_run;
  if (st.ok()) {
    report->lines.push_back(suite + ": OK");
  } else {
    ++report->violations;
    report->lines.push_back(suite + ": FAIL " + st.message());
  }
}

/// Sample `k` distinct node ids, preferring nodes of `type` (falling back
/// to arbitrary nodes when fewer than `k` exist of that type).
std::vector<graph::NodeId> SampleNodes(const graph::HinGraph& g, Rng& rng,
                                       size_t k, graph::NodeTypeId type) {
  std::vector<graph::NodeId> pool;
  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    if (type == graph::kInvalidNodeType || g.NodeType(n) == type) {
      pool.push_back(n);
    }
  }
  if (pool.size() < k) {
    for (graph::NodeId n = 0; n < g.NumNodes(); ++n) pool.push_back(n);
  }
  std::vector<graph::NodeId> out;
  for (size_t idx : rng.SampleWithoutReplacement(pool.size(),
                                                 std::min(k, pool.size()))) {
    out.push_back(pool[idx]);
  }
  return out;
}

/// A node of `type` with at least one out-edge, or kInvalidNode.
graph::NodeId PickActiveNode(const graph::HinGraph& g, Rng& rng,
                             graph::NodeTypeId type) {
  std::vector<graph::NodeId> pool;
  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.OutDegree(n) == 0) continue;
    if (type != graph::kInvalidNodeType && g.NodeType(n) != type) continue;
    pool.push_back(n);
  }
  if (pool.empty()) return graph::kInvalidNode;
  return pool[rng.NextBounded(pool.size())];
}

void RunPprSuites(const graph::HinGraph& g,
                  const explain::EmigreOptions& opts,
                  const SelfCheckOptions& sc, Rng& rng,
                  SelfCheckReport* report) {
  const ppr::PprOptions& ppr_opts = opts.rec.ppr;

  // Static FLP identity (Eq. 3) from sampled sources.
  graph::NodeTypeId user_type = g.FindNodeType("user");
  for (graph::NodeId s :
       SampleNodes(g, rng, sc.num_samples, user_type)) {
    ppr::PushResult state = ppr::ForwardPush(g, s, ppr_opts);
    Record(report, "flp(source " + std::to_string(s) + ")",
           ValidateForwardPushInvariant(g, s, state, ppr_opts));
  }

  // Static RLP identity (Eq. 4) toward sampled targets.
  for (graph::NodeId t :
       SampleNodes(g, rng, sc.num_samples, opts.rec.item_type)) {
    ppr::PushResult state = ppr::ReversePush(g, t, ppr_opts);
    Record(report, "rlp(target " + std::to_string(t) + ")",
           ValidateReversePushInvariant(g, t, state, ppr_opts));
  }

  // FLP identity under dynamic edge updates ([38]): remove then re-add a
  // random out-edge on a mutable copy, repairing the push state in place,
  // and re-verify Eq. 3 after every repair.
  graph::HinGraph mutable_g = g;
  graph::NodeId source = PickActiveNode(mutable_g, rng, user_type);
  if (source != graph::kInvalidNode) {
    // Dense reference refine and workspace-backed sparse refine run the
    // same edit sequence side by side; Eq. 3 must hold for both after every
    // repair, and their states must stay bitwise identical.
    ppr::PushWorkspace ws;
    ppr::DynamicForwardPush<graph::HinGraph> dyn(mutable_g, source, ppr_opts);
    ppr::DynamicForwardPush<graph::HinGraph> dyn_ws(mutable_g, source,
                                                    ppr_opts, &ws);
    auto check_both = [&](const std::string& suite) {
      ppr::PushResult state{dyn.Estimates(), dyn.Residuals()};
      Status st = ValidateForwardPushInvariant(mutable_g, source, state,
                                               ppr_opts);
      if (st.ok()) {
        ppr::PushResult ws_state{dyn_ws.Estimates(), dyn_ws.Residuals()};
        st = ValidateForwardPushInvariant(mutable_g, source, ws_state,
                                          ppr_opts);
        if (st.ok() && (ws_state.estimate != state.estimate ||
                        ws_state.residual != state.residual)) {
          st = Status::Internal(
              "workspace-refined state differs from dense refine");
        }
      }
      Record(report, suite, st);
    };
    for (size_t i = 0; i < sc.num_edits; ++i) {
      graph::NodeId u = PickActiveNode(mutable_g, rng, graph::kInvalidNodeType);
      if (u == graph::kInvalidNode) break;
      auto edges = mutable_g.OutEdges(u);
      const graph::Edge picked = edges[rng.NextBounded(edges.size())];
      dyn.BeforeOutEdgeChange(u);
      dyn_ws.BeforeOutEdgeChange(u);
      Status st = mutable_g.RemoveEdge(u, picked.node, picked.type);
      dyn.AfterOutEdgeChange(u);
      dyn_ws.AfterOutEdgeChange(u);
      if (st.ok()) {
        check_both("flp-dynamic(remove " + std::to_string(u) + "->" +
                   std::to_string(picked.node) + ")");
        dyn.BeforeOutEdgeChange(u);
        dyn_ws.BeforeOutEdgeChange(u);
        st = mutable_g.AddEdge(u, picked.node, picked.type, picked.weight);
        dyn.AfterOutEdgeChange(u);
        dyn_ws.AfterOutEdgeChange(u);
      }
      if (st.ok()) {
        check_both("flp-dynamic(re-add)");
      } else {
        Record(report, "flp-dynamic(edit)",
               Status::Internal("graph edit failed: " + st.message()));
      }
    }
  }
}

void RunOverlaySuite(const graph::HinGraph& g,
                     const explain::EmigreOptions& opts,
                     const SelfCheckOptions& sc, Rng& rng,
                     SelfCheckReport* report) {
  graph::GraphOverlay overlay(g);
  size_t applied = 0;
  for (size_t i = 0; i < sc.num_edits; ++i) {
    graph::NodeId u = PickActiveNode(g, rng, graph::kInvalidNodeType);
    if (u == graph::kInvalidNode) break;
    auto edges = g.OutEdges(u);
    const graph::Edge picked = edges[rng.NextBounded(edges.size())];
    if (rng.NextBool(0.5)) {
      if (overlay.RemoveEdge(u, picked.node, picked.type).ok()) ++applied;
    } else {
      if (overlay
              .SetWeight(u, picked.node, picked.type,
                         picked.weight + 1.0)
              .ok()) {
        ++applied;
      }
    }
  }
  // One addition: a fresh edge from an active node to a sampled node.
  graph::NodeId u = PickActiveNode(g, rng, graph::kInvalidNodeType);
  if (u != graph::kInvalidNode && g.NumEdgeTypes() > 0) {
    graph::NodeId v = static_cast<graph::NodeId>(
        rng.NextBounded(g.NumNodes()));
    graph::EdgeTypeId t = static_cast<graph::EdgeTypeId>(
        rng.NextBounded(g.NumEdgeTypes()));
    if (u != v && overlay.AddEdge(u, v, t, 1.0).ok()) ++applied;
  }
  std::vector<graph::NodeId> sources =
      SampleNodes(g, rng, sc.num_samples, g.FindNodeType("user"));
  Record(report,
         "overlay(" + std::to_string(applied) + " edits, " +
             std::to_string(sources.size()) + " sources)",
         ValidateOverlayEquivalence(overlay, sources, opts.rec.ppr));
}

void RunExplanationSuite(const graph::HinGraph& g,
                         const explain::EmigreOptions& opts, Rng& rng,
                         SelfCheckReport* report) {
  if (opts.rec.item_type == graph::kInvalidNodeType) return;
  graph::NodeId user = PickActiveNode(g, rng, g.FindNodeType("user"));
  if (user == graph::kInvalidNode) return;

  explain::Emigre engine(g, opts);
  recsys::RecommendationList ranking = engine.CurrentRanking(user);
  if (ranking.size() < 2) return;  // no runner-up for a Why-Not question
  explain::WhyNotQuestion q{user, ranking.at(1).item};
  Result<explain::Explanation> result =
      engine.ExplainAuto(q, explain::Heuristic::kIncremental);
  if (!result.ok()) {
    Record(report, "explanation(user " + std::to_string(user) + ")",
           Status::Internal("ExplainAuto failed: " +
                            result.status().message()));
    return;
  }
  const explain::Explanation& e = result.value();
  if (!e.found || !e.verified) {
    ++report->checks_run;
    report->lines.push_back(
        "explanation(user " + std::to_string(user) +
        "): SKIP no verified explanation (" +
        std::string(explain::FailureReasonName(e.failure)) + ")");
    return;
  }
  Record(report,
         "explanation(user " + std::to_string(user) + ", wni " +
             std::to_string(q.why_not_item) + ")",
         ValidateExplanation(g, q, e, opts));
}

}  // namespace

Result<SelfCheckReport> RunSelfCheck(const graph::HinGraph& g,
                                     const explain::EmigreOptions& opts,
                                     const SelfCheckOptions& sc) {
  EMIGRE_SPAN("check.selfcheck");
  if (g.NumNodes() == 0) {
    return Status::InvalidArgument("selfcheck: graph has no nodes");
  }
  SelfCheckReport report;
  if (sc.level == CheckLevel::kOff) return report;

  Rng rng(sc.seed);
  // Qualified to suppress ADL, which would also find graph::ValidateGraph.
  Record(&report, "graph", check::ValidateGraph(g));

  if (static_cast<int>(sc.level) >= static_cast<int>(CheckLevel::kFull)) {
    RunPprSuites(g, opts, sc, rng, &report);
    RunOverlaySuite(g, opts, sc, rng, &report);
    RunExplanationSuite(g, opts, rng, &report);
  }
  return report;
}

}  // namespace emigre::check
