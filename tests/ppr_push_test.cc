#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "ppr/forward_push.h"
#include "ppr/power_iteration.h"
#include "ppr/reverse_push.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::ppr {
namespace {

using graph::HinGraph;
using graph::NodeId;

/// Full PPR matrix by power iteration: row s = PPR(s, ·).
std::vector<std::vector<double>> FullPprMatrix(const HinGraph& g,
                                               const PprOptions& opts) {
  std::vector<std::vector<double>> m(g.NumNodes());
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    m[s] = PowerIterationPpr(g, s, opts);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Parameterized sweep: (seed, num_users, num_items, alpha, epsilon).
// ---------------------------------------------------------------------------
using PushParams = std::tuple<uint64_t, size_t, size_t, double, double>;

class PushPropertyTest : public ::testing::TestWithParam<PushParams> {
 protected:
  void SetUp() override {
    auto [seed, users, items, alpha, epsilon] = GetParam();
    Rng rng(seed);
    rh_ = test::MakeRandomHin(rng, users, items, 3, 6);
    opts_.alpha = alpha;
    opts_.epsilon = epsilon;
    opts_.power_tolerance = 1e-14;
    ppr_ = FullPprMatrix(rh_.g, opts_);
  }

  test::RandomHin rh_;
  PprOptions opts_;
  std::vector<std::vector<double>> ppr_;
};

TEST_P(PushPropertyTest, ForwardPushInvariantEq3Holds) {
  // PPR(s,t) = P(s,t) + Σ_x R(s,x)·PPR(x,t) for every t (paper Eq. 3).
  NodeId s = rh_.users[0];
  PushResult fp = ForwardPush(rh_.g, s, opts_);
  for (NodeId t = 0; t < rh_.g.NumNodes(); ++t) {
    double reconstructed = fp.estimate[t];
    for (NodeId x = 0; x < rh_.g.NumNodes(); ++x) {
      if (fp.residual[x] != 0.0) reconstructed += fp.residual[x] * ppr_[x][t];
    }
    EXPECT_NEAR(reconstructed, ppr_[s][t], 1e-7)
        << "s=" << s << " t=" << t;
  }
}

TEST_P(PushPropertyTest, ForwardPushUnderestimatesWithinResidual) {
  NodeId s = rh_.users[0];
  PushResult fp = ForwardPush(rh_.g, s, opts_);
  double mass = fp.ResidualMass();
  for (NodeId t = 0; t < rh_.g.NumNodes(); ++t) {
    EXPECT_LE(fp.estimate[t], ppr_[s][t] + 1e-9);
    EXPECT_GE(fp.estimate[t], ppr_[s][t] - mass - 1e-9);
  }
}

TEST_P(PushPropertyTest, ReversePushInvariantEq4Holds) {
  // PPR(s,t) = P(s,t) + Σ_x PPR(s,x)·R(x,t) for every s (paper Eq. 4).
  NodeId t = rh_.items[0];
  PushResult rp = ReversePush(rh_.g, t, opts_);
  for (NodeId s = 0; s < rh_.g.NumNodes(); ++s) {
    double reconstructed = rp.estimate[s];
    for (NodeId x = 0; x < rh_.g.NumNodes(); ++x) {
      if (rp.residual[x] != 0.0) reconstructed += ppr_[s][x] * rp.residual[x];
    }
    EXPECT_NEAR(reconstructed, ppr_[s][t], 1e-7)
        << "s=" << s << " t=" << t;
  }
}

TEST_P(PushPropertyTest, ReversePushApproximatesAllSources) {
  NodeId t = rh_.items[0];
  PushResult rp = ReversePush(rh_.g, t, opts_);
  // Residuals are below epsilon after convergence, and
  // Σ_x PPR(s,x)·R(x,t) ≤ max_x R(x,t) ≤ ε, so each source's absolute
  // error is bounded by ε.
  for (NodeId s = 0; s < rh_.g.NumNodes(); ++s) {
    EXPECT_NEAR(rp.estimate[s], ppr_[s][t], opts_.epsilon + 1e-9)
        << "s=" << s;
  }
}

TEST_P(PushPropertyTest, ForwardPushConvergesToExactWithTinyEpsilon) {
  PprOptions tight = opts_;
  tight.epsilon = 1e-12;
  NodeId s = rh_.users[0];
  PushResult fp = ForwardPush(rh_.g, s, tight);
  for (NodeId t = 0; t < rh_.g.NumNodes(); ++t) {
    EXPECT_NEAR(fp.estimate[t], ppr_[s][t], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PushPropertyTest,
    ::testing::Values(
        PushParams{1, 4, 12, 0.15, 1e-6}, PushParams{2, 4, 12, 0.15, 1e-4},
        PushParams{3, 6, 20, 0.15, 1e-6}, PushParams{4, 6, 20, 0.3, 1e-6},
        PushParams{5, 3, 8, 0.5, 1e-5}, PushParams{6, 8, 24, 0.15, 1e-7},
        PushParams{7, 5, 15, 0.85, 1e-6}, PushParams{8, 2, 6, 0.15, 1e-8}));

// ---------------------------------------------------------------------------
// Directed / dangling corner cases.
// ---------------------------------------------------------------------------

TEST(ReversePushTest, DanglingTargetAnalytic) {
  // u -> d, d dangling. PPR(u,d) = 1 - alpha; PPR(d,d) = 1.
  HinGraph g;
  NodeId u = g.AddNode("n");
  NodeId d = g.AddNode("n");
  ASSERT_TRUE(g.AddEdge(u, d, g.RegisterEdgeType("e")).ok());
  PprOptions opts;
  opts.alpha = 0.3;
  opts.epsilon = 1e-12;
  PushResult rp = ReversePush(g, d, opts);
  EXPECT_NEAR(rp.estimate[d], 1.0, 1e-6);
  EXPECT_NEAR(rp.estimate[u], 1.0 - opts.alpha, 1e-6);
}

TEST(ReversePushTest, UnreachableSourceScoresZero) {
  HinGraph g;
  NodeId a = g.AddNode("n");
  NodeId b = g.AddNode("n");
  NodeId c = g.AddNode("n");
  graph::EdgeTypeId t = g.RegisterEdgeType("e");
  ASSERT_TRUE(g.AddEdge(a, b, t).ok());
  // c is disconnected: PPR(c, b) must be 0.
  PushResult rp = ReversePush(g, b, PprOptions{});
  EXPECT_DOUBLE_EQ(rp.estimate[c], 0.0);
  EXPECT_GT(rp.estimate[a], 0.0);
}

TEST(ForwardPushTest, InvalidSourceReturnsZeros) {
  test::BookGraph bg = test::MakeBookGraph();
  PushResult fp = ForwardPush(bg.g, graph::kInvalidNode, PprOptions{});
  EXPECT_DOUBLE_EQ(fp.ResidualMass(), 0.0);
  for (double e : fp.estimate) EXPECT_DOUBLE_EQ(e, 0.0);
}

TEST(ForwardPushTest, MassConservation) {
  // Converted estimate + remaining residual accounts for all walk mass:
  // sum(estimate) + sum(residual) <= 1 and >= 1 - tiny for small epsilon.
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-10;
  PushResult fp = ForwardPush(bg.g, bg.paul, opts);
  double total = 0.0;
  for (size_t i = 0; i < fp.estimate.size(); ++i) {
    total += fp.estimate[i];
  }
  EXPECT_NEAR(total + fp.ResidualMass(), 1.0, 1e-6);
}

TEST(ReversePushTest, MatchesPowerIterationOnBookGraph) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-11;
  opts.power_tolerance = 1e-14;
  PushResult rp = ReversePush(bg.g, bg.harry_potter, opts);
  for (NodeId s = 0; s < bg.g.NumNodes(); ++s) {
    std::vector<double> p = PowerIterationPpr(bg.g, s, opts);
    EXPECT_NEAR(rp.estimate[s], p[bg.harry_potter], 1e-6) << "s=" << s;
  }
}

}  // namespace
}  // namespace emigre::ppr
