#include "ppr/dynamic.h"

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "ppr/power_iteration.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::ppr {
namespace {

using graph::HinGraph;
using graph::NodeId;

// Absolute tolerance for comparing maintained estimates against a fresh
// power iteration: per-node error is bounded by the push threshold times
// the node degree; use a comfortable multiple.
constexpr double kTol = 1e-5;

TEST(DynamicPushTest, MatchesFreshComputationAfterEdgeAddition) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-9;
  DynamicForwardPush<HinGraph> dyn(bg.g, bg.paul, opts);

  dyn.BeforeOutEdgeChange(bg.paul);
  ASSERT_TRUE(bg.g.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  dyn.AfterOutEdgeChange(bg.paul);

  std::vector<double> fresh = PowerIterationPpr(bg.g, bg.paul, opts);
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], kTol) << "t=" << t;
  }
}

TEST(DynamicPushTest, MatchesFreshComputationAfterEdgeRemoval) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-9;
  DynamicForwardPush<HinGraph> dyn(bg.g, bg.paul, opts);

  dyn.BeforeOutEdgeChange(bg.paul);
  ASSERT_TRUE(bg.g.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  dyn.AfterOutEdgeChange(bg.paul);

  std::vector<double> fresh = PowerIterationPpr(bg.g, bg.paul, opts);
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], kTol) << "t=" << t;
  }
}

TEST(DynamicPushTest, HandlesChangesAwayFromSource) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-9;
  DynamicForwardPush<HinGraph> dyn(bg.g, bg.paul, opts);

  // Mutate Bob's neighborhood, two hops from Paul.
  dyn.BeforeOutEdgeChange(bg.bob);
  ASSERT_TRUE(bg.g.RemoveEdge(bg.bob, bg.harry_potter, bg.rated).ok());
  dyn.AfterOutEdgeChange(bg.bob);

  std::vector<double> fresh = PowerIterationPpr(bg.g, bg.paul, opts);
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], kTol) << "t=" << t;
  }
}

TEST(DynamicPushTest, SurvivesLongRandomEditSequence) {
  Rng rng(31337);
  test::RandomHin rh = test::MakeRandomHin(rng, 5, 20, 3, 6);
  PprOptions opts;
  opts.epsilon = 1e-9;
  NodeId source = rh.users[0];
  DynamicForwardPush<HinGraph> dyn(rh.g, source, opts);

  for (int step = 0; step < 40; ++step) {
    NodeId src = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
    dyn.BeforeOutEdgeChange(src);
    bool mutated;
    if (rh.g.HasEdge(src, dst, rh.rated)) {
      mutated = rh.g.RemoveEdge(src, dst, rh.rated).ok();
    } else {
      mutated = rh.g.AddEdge(src, dst, rh.rated, 1.0).ok();
    }
    dyn.AfterOutEdgeChange(src);
    ASSERT_TRUE(mutated);
  }

  std::vector<double> fresh = PowerIterationPpr(rh.g, source, opts);
  for (NodeId t = 0; t < rh.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], 1e-4) << "t=" << t;
  }
  Status done = check::ValidateForwardPushTerminated(rh.g, dyn.State(), opts);
  EXPECT_TRUE(done.ok()) << done;
}

// Thousands of repairs on one instance: each refine must terminate (the
// next repair's seed set relies on it), and the state must stay Eq. 3-exact
// and converged.
TEST(DynamicPushTest, StaysCorrectOverThousandsOfRepairs) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-8;
  DynamicForwardPush<HinGraph> dyn(bg.g, bg.paul, opts);

  // 1500 remove/re-add cycles = 3000 repairs.
  for (int cycle = 0; cycle < 1500; ++cycle) {
    dyn.BeforeOutEdgeChange(bg.paul);
    ASSERT_TRUE(bg.g.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
    dyn.AfterOutEdgeChange(bg.paul);
    dyn.BeforeOutEdgeChange(bg.paul);
    ASSERT_TRUE(bg.g.AddEdge(bg.paul, bg.candide, bg.rated, 1.0).ok());
    dyn.AfterOutEdgeChange(bg.paul);
    if (cycle % 500 == 0) {
      Status done =
          check::ValidateForwardPushTerminated(bg.g, dyn.State(), opts);
      ASSERT_TRUE(done.ok()) << "cycle " << cycle << ": " << done;
    }
  }
  Status eq3 =
      check::ValidateForwardPushInvariant(bg.g, bg.paul, dyn.State(), opts);
  EXPECT_TRUE(eq3.ok()) << eq3;
  Status done = check::ValidateForwardPushTerminated(bg.g, dyn.State(), opts);
  EXPECT_TRUE(done.ok()) << done;

  // The graph is back to baseline.
  std::vector<double> fresh = PowerIterationPpr(bg.g, bg.paul, opts);
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) {
    EXPECT_NEAR(dyn.Estimate(t), fresh[t], kTol) << "t=" << t;
  }
}

TEST(DynamicPushTest, NodeBecomingDanglingAndBack) {
  HinGraph g;
  graph::EdgeTypeId t = g.RegisterEdgeType("e");
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  NodeId c = g.AddNode("n");
  ASSERT_TRUE(g.AddEdge(a, b, t).ok());
  ASSERT_TRUE(g.AddEdge(b, c, t).ok());

  PprOptions opts;
  opts.epsilon = 1e-10;
  DynamicForwardPush<HinGraph> dyn(g, a, opts);

  // b loses its only out-edge -> becomes dangling.
  dyn.BeforeOutEdgeChange(b);
  ASSERT_TRUE(g.RemoveEdge(b, c, t).ok());
  dyn.AfterOutEdgeChange(b);
  std::vector<double> fresh = PowerIterationPpr(g, a, opts);
  for (NodeId x = 0; x < g.NumNodes(); ++x) {
    EXPECT_NEAR(dyn.Estimate(x), fresh[x], kTol);
  }

  // ... and gains it back.
  dyn.BeforeOutEdgeChange(b);
  ASSERT_TRUE(g.AddEdge(b, c, t).ok());
  dyn.AfterOutEdgeChange(b);
  fresh = PowerIterationPpr(g, a, opts);
  for (NodeId x = 0; x < g.NumNodes(); ++x) {
    EXPECT_NEAR(dyn.Estimate(x), fresh[x], kTol);
  }
}

}  // namespace
}  // namespace emigre::ppr
