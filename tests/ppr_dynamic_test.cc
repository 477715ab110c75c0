// Forward push on edited graphs. Each test replays an edit sequence on a
// mutable graph; after every edit, a `ForwardPush` from scratch must
// satisfy Eq. 3 and termination on the edited graph and sit within its
// residual mass of power iteration.

#include <gtest/gtest.h>

#include <vector>

#include "check/invariants.h"
#include "ppr/forward_push.h"
#include "ppr/power_iteration.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::ppr {
namespace {

using graph::HinGraph;
using graph::NodeId;

/// Pushes from `source` on the current `g` and checks the state against the
/// math. Eq. 3 makes the unpushed residual mass an upper bound on each
/// estimate's shortfall (PPR(x,t) ≤ 1), and power iteration converges to
/// 1e-12, far below the push thresholds used here.
void ExpectPushExact(const HinGraph& g, NodeId source, const PprOptions& opts) {
  PushResult state = ForwardPush(g, source, opts);
  Status eq3 = check::ValidateForwardPushInvariant(g, source, state, opts);
  EXPECT_TRUE(eq3.ok()) << eq3;
  Status done = check::ValidateForwardPushTerminated(g, state, opts);
  EXPECT_TRUE(done.ok()) << done;

  std::vector<double> exact = PowerIterationPpr(g, source, opts);
  const double slack = 1e-10;
  const double bound = state.ResidualMass() + slack;
  for (NodeId t = 0; t < g.NumNodes(); ++t) {
    EXPECT_LE(state.estimate[t], exact[t] + slack) << "t=" << t;
    EXPECT_NEAR(state.estimate[t], exact[t], bound) << "t=" << t;
  }
}

PprOptions WithEpsilon(double eps) {
  PprOptions opts;
  opts.epsilon = eps;
  return opts;
}

TEST(EditedGraphPushTest, AfterEdgeAddition) {
  test::BookGraph bg = test::MakeBookGraph();
  const PprOptions opts = WithEpsilon(1e-9);
  ASSERT_TRUE(bg.g.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  ExpectPushExact(bg.g, bg.paul, opts);
}

TEST(EditedGraphPushTest, AfterEdgeRemoval) {
  test::BookGraph bg = test::MakeBookGraph();
  const PprOptions opts = WithEpsilon(1e-9);
  ASSERT_TRUE(bg.g.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  ExpectPushExact(bg.g, bg.paul, opts);
  // Re-added: the edge moves to the end of Paul's row.
  ASSERT_TRUE(bg.g.AddEdge(bg.paul, bg.candide, bg.rated, 1.0).ok());
  ExpectPushExact(bg.g, bg.paul, opts);
}

TEST(EditedGraphPushTest, AfterEditAwayFromSource) {
  test::BookGraph bg = test::MakeBookGraph();
  const PprOptions opts = WithEpsilon(1e-9);
  // Mutate Bob's neighborhood, two hops from Paul.
  ASSERT_TRUE(bg.g.RemoveEdge(bg.bob, bg.harry_potter, bg.rated).ok());
  ExpectPushExact(bg.g, bg.paul, opts);
}

TEST(EditedGraphPushTest, NodeBecomingDanglingAndBack) {
  HinGraph g;
  graph::EdgeTypeId t = g.RegisterEdgeType("e");
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  NodeId c = g.AddNode("n");
  ASSERT_TRUE(g.AddEdge(a, b, t).ok());
  ASSERT_TRUE(g.AddEdge(b, c, t).ok());
  const PprOptions opts = WithEpsilon(1e-10);
  ExpectPushExact(g, a, opts);

  // b loses its only out-edge -> becomes dangling ...
  ASSERT_TRUE(g.RemoveEdge(b, c, t).ok());
  ExpectPushExact(g, a, opts);
  // ... and gains it back.
  ASSERT_TRUE(g.AddEdge(b, c, t).ok());
  ExpectPushExact(g, a, opts);
}

TEST(EditedGraphPushTest, LongRandomEditSequence) {
  Rng rng(31337);
  test::RandomHin rh = test::MakeRandomHin(rng, 5, 20, 3, 6);
  const PprOptions opts = WithEpsilon(1e-9);
  NodeId source = rh.users[0];

  for (int step = 0; step < 40; ++step) {
    NodeId src = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
    if (rh.g.HasEdge(src, dst, rh.rated)) {
      ASSERT_TRUE(rh.g.RemoveEdge(src, dst, rh.rated).ok());
    } else {
      ASSERT_TRUE(rh.g.AddEdge(src, dst, rh.rated, 1.0).ok());
    }
    SCOPED_TRACE(testing::Message() << "step " << step);
    ExpectPushExact(rh.g, source, opts);
  }
}

}  // namespace
}  // namespace emigre::ppr
