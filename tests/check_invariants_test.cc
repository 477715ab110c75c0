// Tests for the debug invariant validators (src/check/). Positive paths run
// each validator against healthy structures; negative paths corrupt a
// graph view, push state, overlay view, or explanation on purpose and
// assert the validator reports the violation with an actionable message.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/check_level.h"
#include "check/invariants.h"
#include "check/selfcheck.h"
#include "explain/emigre.h"
#include "graph/overlay.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "ppr/forward_push.h"
#include "ppr/reverse_push.h"
#include "test_util.h"

namespace emigre {
namespace {

using graph::EdgeTypeId;
using graph::NodeId;
using graph::NodeTypeId;

// --- Corrupting adapter views -----------------------------------------------
//
// HinGraph keeps its internals private and its public API keeps them
// consistent, so corruption is injected through GraphLike wrapper views
// that forward to a healthy graph while lying about one detail.

/// Hides one out-edge (src -> dst, first match) from ForEachOutEdge and
/// subtracts its weight from OutWeight, leaving the mirroring in-edge
/// visible: a pure mirror-symmetry violation.
struct MirrorCorruptingView {
  const graph::HinGraph* g;
  NodeId src;
  NodeId dst;

  size_t NumNodes() const { return g->NumNodes(); }
  size_t OutDegree(NodeId n) const {
    return g->OutDegree(n) - (n == src ? 1 : 0);
  }
  NodeTypeId NodeType(NodeId n) const { return g->NodeType(n); }
  double OutWeight(NodeId n) const {
    double w = g->OutWeight(n);
    if (n == src) {
      bool first = true;
      g->ForEachOutEdge(n, [&](NodeId v, EdgeTypeId, double ew) {
        if (v == dst && first) {
          first = false;
          w -= ew;
        }
      });
    }
    return w;
  }
  template <typename F>
  void ForEachOutEdge(NodeId n, F&& fn) const {
    bool hidden = false;
    g->ForEachOutEdge(n, [&](NodeId v, EdgeTypeId t, double w) {
      if (n == src && v == dst && !hidden) {
        hidden = true;
        return;
      }
      fn(v, t, w);
    });
  }
  template <typename F>
  void ForEachInEdge(NodeId n, F&& fn) const {
    g->ForEachInEdge(n, std::forward<F>(fn));
  }
};

/// Reports one edge with a negated weight.
struct NegativeWeightView {
  const graph::HinGraph* g;
  NodeId src;
  NodeId dst;

  size_t NumNodes() const { return g->NumNodes(); }
  size_t OutDegree(NodeId n) const { return g->OutDegree(n); }
  NodeTypeId NodeType(NodeId n) const { return g->NodeType(n); }
  double OutWeight(NodeId n) const { return g->OutWeight(n); }
  template <typename F>
  void ForEachOutEdge(NodeId n, F&& fn) const {
    g->ForEachOutEdge(n, [&](NodeId v, EdgeTypeId t, double w) {
      fn(v, t, n == src && v == dst ? -w : w);
    });
  }
  template <typename F>
  void ForEachInEdge(NodeId n, F&& fn) const {
    g->ForEachInEdge(n, std::forward<F>(fn));
  }
};

/// Inflates the cached OutWeight of one node without touching its edges.
struct OutWeightCorruptingView {
  const graph::HinGraph* g;
  NodeId node;

  size_t NumNodes() const { return g->NumNodes(); }
  size_t OutDegree(NodeId n) const { return g->OutDegree(n); }
  NodeTypeId NodeType(NodeId n) const { return g->NodeType(n); }
  double OutWeight(NodeId n) const {
    return g->OutWeight(n) + (n == node ? 0.5 : 0.0);
  }
  template <typename F>
  void ForEachOutEdge(NodeId n, F&& fn) const {
    g->ForEachOutEdge(n, std::forward<F>(fn));
  }
  template <typename F>
  void ForEachInEdge(NodeId n, F&& fn) const {
    g->ForEachInEdge(n, std::forward<F>(fn));
  }
};

/// Wraps a GraphOverlay but hides the first in-edge of one node — an
/// out/in view desync, the classic overlay-maintenance bug.
struct InEdgeHidingOverlay {
  const graph::GraphOverlay* o;
  NodeId victim;

  const graph::HinGraph& base() const { return o->base(); }
  size_t NumNodes() const { return o->NumNodes(); }
  size_t OutDegree(NodeId n) const { return o->OutDegree(n); }
  NodeTypeId NodeType(NodeId n) const { return o->NodeType(n); }
  double OutWeight(NodeId n) const { return o->OutWeight(n); }
  template <typename F>
  void ForEachOutEdge(NodeId n, F&& fn) const {
    o->ForEachOutEdge(n, std::forward<F>(fn));
  }
  template <typename F>
  void ForEachInEdge(NodeId n, F&& fn) const {
    bool hidden = false;
    o->ForEachInEdge(n, [&](NodeId s, EdgeTypeId t, double w) {
      if (n == victim && !hidden) {
        hidden = true;
        return;
      }
      fn(s, t, w);
    });
  }
};

// --- ValidateGraph -----------------------------------------------------------

TEST(ValidateGraphTest, HealthyBookGraphPasses) {
  test::BookGraph bg = test::MakeBookGraph();
  EXPECT_TRUE(check::ValidateGraph(bg.g).ok());
}

TEST(ValidateGraphTest, HealthyRandomHinPasses) {
  Rng rng(7);
  test::RandomHin rh = test::MakeRandomHin(rng, 12, 40, 4, 6);
  EXPECT_TRUE(check::ValidateGraph(rh.g).ok());
}

TEST(ValidateGraphTest, DetectsMirrorAsymmetry) {
  test::BookGraph bg = test::MakeBookGraph();
  MirrorCorruptingView view{&bg.g, bg.paul, bg.candide};
  Status st = check::ValidateGraphView(view);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("mirroring"), std::string::npos)
      << st.message();
}

TEST(ValidateGraphTest, DetectsNegativeWeight) {
  test::BookGraph bg = test::MakeBookGraph();
  NegativeWeightView view{&bg.g, bg.paul, bg.candide};
  Status st = check::ValidateGraphView(view);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("non-positive"), std::string::npos)
      << st.message();
}

TEST(ValidateGraphTest, DetectsStaleOutWeight) {
  test::BookGraph bg = test::MakeBookGraph();
  OutWeightCorruptingView view{&bg.g, bg.paul};
  Status st = check::ValidateGraphView(view);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("OutWeight"), std::string::npos)
      << st.message();
}

// --- ValidatePprInvariant (Eq. 3 / Eq. 4) ------------------------------------

class PprInvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    rh_ = test::MakeRandomHin(rng, 10, 30, 3, 5);
  }
  test::RandomHin rh_;
  ppr::PprOptions ppr_opts_;
};

TEST_F(PprInvariantTest, ForwardPushStateSatisfiesEq3) {
  for (NodeId s : {rh_.users[0], rh_.users[3], rh_.items[0]}) {
    ppr::PushResult state = ppr::ForwardPush(rh_.g, s, ppr_opts_);
    EXPECT_TRUE(
        check::ValidateForwardPushInvariant(rh_.g, s, state, ppr_opts_).ok())
        << "source " << s;
    EXPECT_TRUE(
        check::ValidateForwardPushTerminated(rh_.g, state, ppr_opts_).ok())
        << "source " << s;
  }
}

TEST_F(PprInvariantTest, ReversePushStateSatisfiesEq4) {
  for (NodeId t : {rh_.items[1], rh_.items[5]}) {
    ppr::PushResult state = ppr::ReversePush(rh_.g, t, ppr_opts_);
    EXPECT_TRUE(
        check::ValidateReversePushInvariant(rh_.g, t, state, ppr_opts_).ok())
        << "target " << t;
  }
}

TEST_F(PprInvariantTest, DetectsResidualAtThreshold) {
  NodeId s = rh_.users[1];
  NodeId v = rh_.items[2];
  ppr::PushResult state = ppr::ForwardPush(rh_.g, s, ppr_opts_);
  size_t deg = rh_.g.OutDegree(v);
  const double threshold =
      ppr_opts_.epsilon * static_cast<double>(deg > 0 ? deg : 1);
  for (double r : {threshold, -threshold}) {
    state.residual[v] = r;
    Status st = check::ValidateForwardPushTerminated(rh_.g, state, ppr_opts_);
    ASSERT_FALSE(st.ok()) << "residual " << r;
    EXPECT_NE(st.message().find("termination"), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("node " + std::to_string(v)),
              std::string::npos)
        << st.message();
  }
  // Just below the threshold is terminated.
  state.residual[v] = std::nextafter(threshold, 0.0);
  EXPECT_TRUE(check::ValidateForwardPushTerminated(rh_.g, state, ppr_opts_)
                  .ok());
}

TEST_F(PprInvariantTest, DetectsPerturbedForwardResidual) {
  NodeId s = rh_.users[1];
  ppr::PushResult state = ppr::ForwardPush(rh_.g, s, ppr_opts_);
  state.residual[rh_.items[2]] += 1e-3;
  Status st = check::ValidateForwardPushInvariant(rh_.g, s, state, ppr_opts_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Eq. 3"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find(std::to_string(rh_.items[2])),
            std::string::npos)
      << st.message();
}

TEST_F(PprInvariantTest, DetectsPerturbedForwardEstimate) {
  NodeId s = rh_.users[1];
  ppr::PushResult state = ppr::ForwardPush(rh_.g, s, ppr_opts_);
  state.estimate[s] *= 1.01;
  EXPECT_FALSE(
      check::ValidateForwardPushInvariant(rh_.g, s, state, ppr_opts_).ok());
}

TEST_F(PprInvariantTest, DetectsPerturbedReverseEstimate) {
  NodeId t = rh_.items[0];
  ppr::PushResult state = ppr::ReversePush(rh_.g, t, ppr_opts_);
  state.estimate[t] += 1e-3;
  Status st = check::ValidateReversePushInvariant(rh_.g, t, state, ppr_opts_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Eq. 4"), std::string::npos) << st.message();
}

TEST_F(PprInvariantTest, DetectsMisSizedState) {
  ppr::PushResult state;  // empty vectors
  EXPECT_FALSE(check::ValidateForwardPushInvariant(rh_.g, rh_.users[0], state,
                                                   ppr_opts_)
                   .ok());
  EXPECT_FALSE(check::ValidateReversePushInvariant(rh_.g, rh_.items[0], state,
                                                   ppr_opts_)
                   .ok());
  EXPECT_FALSE(
      check::ValidateForwardPushTerminated(rh_.g, state, ppr_opts_).ok());
}

// --- ValidateOverlayEquivalence ----------------------------------------------

TEST(ValidateOverlayTest, EditedOverlayMatchesMaterializedCopy) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay overlay(bg.g);
  overlay.RemoveEdge(bg.paul, bg.candide, bg.rated).CheckOK();
  overlay.AddEdge(bg.paul, bg.harry_potter, bg.rated, 1.0).CheckOK();
  overlay.SetWeight(bg.alice, bg.lotr, bg.rated, 2.5).CheckOK();
  std::vector<NodeId> sources{bg.paul, bg.alice, bg.bob};
  EXPECT_TRUE(check::ValidateOverlayEquivalence(overlay, sources).ok());
}

TEST(ValidateOverlayTest, CleanOverlayMatchesBase) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay overlay(bg.g);
  std::vector<NodeId> sources{bg.paul};
  EXPECT_TRUE(check::ValidateOverlayEquivalence(overlay, sources).ok());
}

TEST(ValidateOverlayTest, DetectsOutInDesync) {
  test::BookGraph bg = test::MakeBookGraph();
  graph::GraphOverlay overlay(bg.g);
  overlay.RemoveEdge(bg.paul, bg.candide, bg.rated).CheckOK();
  InEdgeHidingOverlay corrupted{&overlay, bg.lotr};
  std::vector<NodeId> sources{bg.paul};
  Status st = check::ValidateOverlayEquivalence(corrupted, sources);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("in-edge"), std::string::npos) << st.message();
}

// --- ValidateExplanation -----------------------------------------------------

TEST(ValidateExplanationTest, VerifiedRemoveExplanationPasses) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  explain::Emigre engine(f.g, f.opts);
  Result<explain::Explanation> r =
      engine.Explain(explain::WhyNotQuestion{f.user, f.wni},
                     explain::Mode::kRemove,
                     explain::Heuristic::kIncremental);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->found);
  ASSERT_TRUE(r->verified);
  EXPECT_TRUE(check::ValidateExplanation(
                  f.g, explain::WhyNotQuestion{f.user, f.wni}, r.value(),
                  f.opts)
                  .ok());
}

TEST(ValidateExplanationTest, NotFoundIsVacuouslyValid) {
  test::BookGraph bg = test::MakeBookGraph();
  explain::Explanation e;  // found == false
  EXPECT_TRUE(check::ValidateExplanation(bg.g,
                                         explain::WhyNotQuestion{bg.paul,
                                                                 bg.candide},
                                         e, test::MakeBookOptions(bg))
                  .ok());
}

TEST(ValidateExplanationTest, DetectsNonFlippingExplanation) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  explain::Explanation e;
  e.mode = explain::Mode::kRemove;
  e.found = true;
  e.verified = true;  // lies: an empty edit set cannot flip the rec
  Status st = check::ValidateExplanation(
      f.g, explain::WhyNotQuestion{f.user, f.wni}, e, f.opts);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("top recommendation"), std::string::npos)
      << st.message();
}

TEST(ValidateExplanationTest, DetectsUnreplayableEdit) {
  test::BookGraph bg = test::MakeBookGraph();
  explain::Explanation e;
  e.mode = explain::Mode::kRemove;
  e.found = true;
  // Removing a non-existent edge cannot be replayed.
  e.edges.push_back(graph::EdgeRef{bg.paul, bg.harry_potter, bg.rated});
  Status st = check::ValidateExplanation(
      bg.g, explain::WhyNotQuestion{bg.paul, bg.alchemist}, e,
      test::MakeBookOptions(bg));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("replaying"), std::string::npos)
      << st.message();
}

TEST(ValidateExplanationInSpaceTest, DetectsForeignEdge) {
  test::BookGraph bg = test::MakeBookGraph();
  explain::SearchSpace space;
  space.actions.push_back(explain::CandidateAction{
      graph::EdgeRef{bg.paul, bg.harry_potter, bg.rated}, 1.0});
  explain::Explanation e;
  e.found = true;
  e.edges.push_back(graph::EdgeRef{bg.alice, bg.lotr, bg.rated});
  Status st = check::ValidateExplanationInSpace(space, e,
                                                test::MakeBookOptions(bg));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("not a member"), std::string::npos)
      << st.message();

  e.edges[0] = space.actions[0].edge;
  EXPECT_TRUE(check::ValidateExplanationInSpace(space, e,
                                                test::MakeBookOptions(bg))
                  .ok());
}

// --- RunSelfCheck ------------------------------------------------------------

TEST(SelfCheckTest, PassesOnHealthyGraph) {
  test::BookGraph bg = test::MakeBookGraph();
  check::SelfCheckOptions sc;
  obs::Counter& terminated =
      obs::Registry::Global().GetCounter("check.flp_terminated.pass");
  const uint64_t terminated_before = terminated.Value();
  Result<check::SelfCheckReport> report =
      check::RunSelfCheck(bg.g, test::MakeBookOptions(bg), sc);
  ASSERT_TRUE(report.ok()) << report.status();
  // Every sampled forward source is checked for termination too (the book
  // graph has exactly `num_samples` users).
  EXPECT_EQ(terminated.Value(), terminated_before + sc.num_samples);
  EXPECT_TRUE(report->ok()) << [&] {
    std::string all;
    for (const auto& line : report->lines) all += line + "\n";
    return all;
  }();
  EXPECT_GE(report->checks_run, 5u);
  EXPECT_EQ(report->violations, 0u);
}

TEST(SelfCheckTest, LevelOffRunsNothing) {
  test::BookGraph bg = test::MakeBookGraph();
  check::SelfCheckOptions sc;
  sc.level = check::CheckLevel::kOff;
  Result<check::SelfCheckReport> report =
      check::RunSelfCheck(bg.g, test::MakeBookOptions(bg), sc);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->checks_run, 0u);
}

TEST(SelfCheckTest, BasicLevelValidatesGraphOnly) {
  test::BookGraph bg = test::MakeBookGraph();
  check::SelfCheckOptions sc;
  sc.level = check::CheckLevel::kBasic;
  Result<check::SelfCheckReport> report =
      check::RunSelfCheck(bg.g, test::MakeBookOptions(bg), sc);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->checks_run, 1u);
  EXPECT_TRUE(report->ok());
}

TEST(SelfCheckTest, RejectsEmptyGraph) {
  graph::HinGraph empty;
  explain::EmigreOptions opts;
  EXPECT_FALSE(check::RunSelfCheck(empty, opts).ok());
}

TEST(SelfCheckTest, RecordsPassFailCounters) {
  test::BookGraph bg = test::MakeBookGraph();
  obs::Counter& pass =
      obs::Registry::Global().GetCounter("check.graph.pass");
  obs::Counter& fail =
      obs::Registry::Global().GetCounter("check.graph.fail");
  uint64_t pass_before = pass.Value();
  uint64_t fail_before = fail.Value();

  check::ValidateGraph(bg.g).CheckOK();
  EXPECT_EQ(pass.Value(), pass_before + 1);

  MirrorCorruptingView view{&bg.g, bg.paul, bg.candide};
  Status ignored = check::ValidateGraphView(view);
  (void)ignored;  // outcome asserted via the failure counter below
  EXPECT_EQ(fail.Value(), fail_before + 1);
}

// --- CheckLevel plumbing -----------------------------------------------------

TEST(CheckLevelTest, NamesRoundTrip) {
  for (check::CheckLevel level :
       {check::CheckLevel::kOff, check::CheckLevel::kBasic,
        check::CheckLevel::kFull}) {
    check::CheckLevel parsed = check::CheckLevel::kOff;
    ASSERT_TRUE(check::CheckLevelFromName(check::CheckLevelName(level),
                                          &parsed));
    EXPECT_EQ(parsed, level);
  }
  check::CheckLevel parsed = check::CheckLevel::kOff;
  EXPECT_FALSE(check::CheckLevelFromName("bogus", &parsed));
}

TEST(CheckLevelTest, ShouldCheckRespectsBuildFlagAndLevel) {
  // In non-DCHECK builds every combination is false; with the flag on, the
  // configured level gates the required level.
  EXPECT_EQ(check::ShouldCheck(check::CheckLevel::kFull,
                               check::CheckLevel::kBasic),
            check::kDcheckInvariantsEnabled);
  EXPECT_FALSE(check::ShouldCheck(check::CheckLevel::kOff,
                                  check::CheckLevel::kBasic));
}

}  // namespace
}  // namespace emigre
