#include "explain/fast_tester.h"

#include <gtest/gtest.h>

#include "explain/emigre.h"
#include "explain/tester.h"
#include "obs/metrics.h"
#include "recsys/recommender.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::explain {
namespace {

using graph::EdgeRef;
using graph::NodeId;

TEST(FastTesterTest, AgreesWithExactTesterOnCraftedCases) {
  for (bool add_case : {true, false}) {
    test::ScenarioFixture f =
        add_case ? test::MakeAddFriendlyCase() : test::MakeRemoveFriendlyCase();
    ExplanationTester exact(f.g, f.user, f.wni, f.opts);
    FastExplanationTester fast(f.g, f.user, f.wni, f.opts);

    // Every single-edge candidate in both modes.
    for (const graph::Edge& e : f.g.OutEdges(f.user)) {
      std::vector<EdgeRef> edits = {EdgeRef{f.user, e.node, e.type}};
      NodeId exact_rec = graph::kInvalidNode;
      NodeId fast_rec = graph::kInvalidNode;
      EXPECT_EQ(exact.Test(edits, Mode::kRemove, &exact_rec),
                fast.Test(edits, Mode::kRemove, &fast_rec));
      EXPECT_EQ(exact_rec, fast_rec);
    }
    for (NodeId n = 0; n < f.g.NumNodes(); ++n) {
      if (f.g.NodeType(n) != f.opts.rec.item_type || n == f.wni ||
          f.g.HasEdge(f.user, n)) {
        continue;
      }
      std::vector<EdgeRef> edits = {EdgeRef{f.user, n, f.opts.add_edge_type}};
      NodeId exact_rec = graph::kInvalidNode;
      NodeId fast_rec = graph::kInvalidNode;
      EXPECT_EQ(exact.Test(edits, Mode::kAdd, &exact_rec),
                fast.Test(edits, Mode::kAdd, &fast_rec))
          << "add candidate " << n;
      EXPECT_EQ(exact_rec, fast_rec);
    }
  }
}

TEST(FastTesterTest, StateRevertsBetweenTests) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  FastExplanationTester fast(f.g, f.user, f.wni, f.opts);
  ExplanationTester exact(f.g, f.user, f.wni, f.opts);

  // Interleave many different candidates; the fast tester must not leak
  // state from one test into the next.
  Rng rng(7);
  std::vector<EdgeRef> user_edges;
  for (const graph::Edge& e : f.g.OutEdges(f.user)) {
    user_edges.push_back(EdgeRef{f.user, e.node, e.type});
  }
  for (int round = 0; round < 30; ++round) {
    std::vector<EdgeRef> edits;
    for (const EdgeRef& e : user_edges) {
      if (rng.NextBool()) edits.push_back(e);
    }
    if (edits.empty()) continue;
    NodeId exact_rec = graph::kInvalidNode;
    NodeId fast_rec = graph::kInvalidNode;
    EXPECT_EQ(exact.Test(edits, Mode::kRemove, &exact_rec),
              fast.Test(edits, Mode::kRemove, &fast_rec))
        << "round " << round;
    EXPECT_EQ(exact_rec, fast_rec) << "round " << round;
  }
}

TEST(FastTesterTest, MalformedCandidatesRejected) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  FastExplanationTester fast(f.g, f.user, f.wni, f.opts);
  // Removing a non-existent edge.
  EXPECT_FALSE(fast.Test({EdgeRef{f.user, f.wni, 0}}, Mode::kRemove));
  // Adding an existing edge.
  EdgeRef existing{f.user, graph::kInvalidNode, 0};
  for (const graph::Edge& e : f.g.OutEdges(f.user)) {
    existing = EdgeRef{f.user, e.node, e.type};
    break;
  }
  EXPECT_FALSE(fast.Test({existing}, Mode::kAdd));
  // Foreign-rooted edit is outside the fast path's contract.
  NodeId other_user = graph::kInvalidNode;
  for (NodeId n = 0; n < f.g.NumNodes(); ++n) {
    if (n != f.user && f.g.NodeType(n) == f.g.NodeType(f.user)) {
      other_user = n;
      break;
    }
  }
  ASSERT_NE(other_user, graph::kInvalidNode);
  EXPECT_FALSE(
      fast.Test({EdgeRef{other_user, f.wni, f.opts.add_edge_type}},
                Mode::kAdd));
  // After all the rejected candidates, valid ones still evaluate correctly.
  ExplanationTester exact(f.g, f.user, f.wni, f.opts);
  for (const graph::Edge& e : f.g.OutEdges(f.user)) {
    std::vector<EdgeRef> edits = {EdgeRef{f.user, e.node, e.type}};
    EXPECT_EQ(exact.Test(edits, Mode::kRemove),
              fast.Test(edits, Mode::kRemove));
  }
}

TEST(FastTesterTest, EmigreWithDynamicPushTesterFindsCorrectExplanations) {
  Rng rng(99);
  size_t found_count = 0;
  for (int trial = 0; trial < 4; ++trial) {
    test::RandomHin rh = test::MakeRandomHin(rng, 6, 18, 3, 5);
    EmigreOptions opts = test::MakeRandomHinOptions(rh);
    opts.tester = TesterKind::kDynamicPush;
    opts.rec.ppr.epsilon = 1e-10;  // tight: fast TEST must match exact
    Emigre engine(rh.g, opts);
    for (NodeId user : rh.users) {
      recsys::RecommendationList ranking = engine.CurrentRanking(user);
      if (ranking.size() < 2) continue;
      NodeId wni = ranking.at(1).item;
      for (Mode mode : {Mode::kRemove, Mode::kAdd}) {
        Result<Explanation> r = engine.Explain(WhyNotQuestion{user, wni},
                                               mode,
                                               Heuristic::kIncremental);
        ASSERT_TRUE(r.ok());
        if (!r->found) continue;
        ++found_count;
        // Exact re-verification: the fast tester's positives must be real.
        EmigreOptions exact_opts = opts;
        exact_opts.tester = TesterKind::kExact;
        ExplanationTester checker(rh.g, user, wni, exact_opts);
        EXPECT_TRUE(checker.Test(r->edges, mode))
            << "fast-tester explanation failed exact verification";
      }
      break;  // one user per graph keeps the sweep fast
    }
  }
  EXPECT_GT(found_count, 0u);
}

TEST(FastTesterTest, TestMixedMatchesExact) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  FastExplanationTester fast(f.g, f.user, f.wni, f.opts);
  ExplanationTester exact(f.g, f.user, f.wni, f.opts);

  std::vector<TesterInterface::ModedEdit> edits;
  for (const graph::Edge& e : f.g.OutEdges(f.user)) {
    edits.push_back({EdgeRef{f.user, e.node, e.type}, Mode::kRemove});
    break;
  }
  // Mix in an addition.
  for (NodeId n = 0; n < f.g.NumNodes(); ++n) {
    if (f.g.NodeType(n) == f.opts.rec.item_type && n != f.wni &&
        !f.g.HasEdge(f.user, n)) {
      edits.push_back({EdgeRef{f.user, n, f.opts.add_edge_type}, Mode::kAdd});
      break;
    }
  }
  NodeId a = graph::kInvalidNode;
  NodeId b = graph::kInvalidNode;
  EXPECT_EQ(exact.TestMixed(edits, &a), fast.TestMixed(edits, &b));
  EXPECT_EQ(a, b);
}

// The tie-break contract (fast_tester.h): rank by score descending, node id
// ascending on exact ties. Crafted graph where two items are perfectly
// symmetric — user -> rated -> category -> {A, B} with identical weights —
// so PPR(A) == PPR(B) bitwise, and the verdict hinges entirely on the
// tie-break.
TEST(FastTesterTest, EqualScoreTieBreaksToLowestId) {
  graph::HinGraph g;
  graph::NodeTypeId user_t = g.RegisterNodeType("user");
  graph::NodeTypeId item_t = g.RegisterNodeType("item");
  graph::NodeTypeId cat_t = g.RegisterNodeType("category");
  graph::EdgeTypeId rated = g.RegisterEdgeType("rated");
  graph::EdgeTypeId belongs = g.RegisterEdgeType("belongs-to");
  NodeId u = g.AddNode(user_t);
  NodeId r = g.AddNode(item_t);   // rated seed item
  NodeId a = g.AddNode(item_t);   // tied pair, lower id
  NodeId b = g.AddNode(item_t);   // tied pair, higher id
  NodeId x = g.AddNode(item_t);   // dangling add-candidate
  NodeId c = g.AddNode(cat_t);
  ASSERT_LT(a, b);
  ASSERT_TRUE(g.AddEdge(u, r, rated).ok());
  ASSERT_TRUE(g.AddEdge(r, c, belongs).ok());
  ASSERT_TRUE(g.AddEdge(c, a, belongs).ok());
  ASSERT_TRUE(g.AddEdge(c, b, belongs).ok());

  explain::EmigreOptions opts;
  opts.rec.item_type = item_t;
  opts.allowed_edge_types = {rated};
  opts.add_edge_type = rated;
  opts.rec.ppr.epsilon = 1e-9;

  // Adding u->x preserves the A/B symmetry (x is a separate branch), so the
  // counterfactual top is the tied pair and must resolve to A, the lower
  // id.
  std::vector<EdgeRef> add_x = {EdgeRef{u, x, rated}};
  FastExplanationTester ask_a(g, u, /*why_not_item=*/a, opts);
  NodeId rec = graph::kInvalidNode;
  EXPECT_TRUE(ask_a.Test(add_x, Mode::kAdd, &rec));
  EXPECT_EQ(rec, a);

  FastExplanationTester ask_b(g, u, /*why_not_item=*/b, opts);
  rec = graph::kInvalidNode;
  EXPECT_FALSE(ask_b.Test(add_x, Mode::kAdd, &rec));
  EXPECT_EQ(rec, a);

  // All-zero tie: removing the rated edge leaves every eligible item at
  // the floored score 0, so the top is the lowest eligible id (r itself,
  // no longer rated in the counterfactual).
  std::vector<EdgeRef> drop_r = {EdgeRef{u, r, rated}};
  rec = graph::kInvalidNode;
  EXPECT_FALSE(ask_b.Test(drop_r, Mode::kRemove, &rec));
  EXPECT_EQ(rec, r);
}

// A query deadline that expires between TESTs fails the next TEST as
// unverifiable (counted on the tester's `.deadline` counter); once it is
// lifted, the tester recovers — the dynamic one by rebuilding its stale
// push state — and agrees with a fresh tester again.
template <typename Tester>
void ExpectRecoversFromExpiredDeadline(const char* counter) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  Deadline deadline;  // unlimited while the tester is built
  EmigreOptions opts = f.opts;
  opts.rec.ppr.deadline = &deadline;
  Tester tester(f.g, f.user, f.wni, opts);
  Tester fresh(f.g, f.user, f.wni, f.opts);
  const graph::Edge& first = f.g.OutEdges(f.user).front();
  std::vector<EdgeRef> edits = {EdgeRef{f.user, first.node, first.type}};

  deadline = Deadline(1e-12);  // expired by the TEST's first poll
  deadline.Start();
  obs::Counter& unwinds = obs::Registry::Global().GetCounter(counter);
  const uint64_t unwinds_before = unwinds.Value();
  NodeId rec = f.user;
  EXPECT_FALSE(tester.Test(edits, Mode::kRemove, &rec)) << counter;
  EXPECT_EQ(rec, graph::kInvalidNode) << counter;
  EXPECT_EQ(unwinds.Value(), unwinds_before + 1) << counter;

  deadline = Deadline();  // lifted
  NodeId fresh_rec = graph::kInvalidNode;
  bool fresh_ok = fresh.Test(edits, Mode::kRemove, &fresh_rec);
  ASSERT_NE(fresh_rec, graph::kInvalidNode);
  rec = graph::kInvalidNode;
  EXPECT_EQ(tester.Test(edits, Mode::kRemove, &rec), fresh_ok) << counter;
  EXPECT_EQ(rec, fresh_rec) << counter;
  EXPECT_EQ(unwinds.Value(), unwinds_before + 1) << counter;
}

TEST(TesterDeadlineTest, ExpiredDeadlineFailsOneTestAndLiftedOneRecovers) {
  ExpectRecoversFromExpiredDeadline<ExplanationTester>(
      "explain.tests.exact.deadline");
  ExpectRecoversFromExpiredDeadline<FastExplanationTester>(
      "explain.tests.dynamic.deadline");
}

}  // namespace
}  // namespace emigre::explain
