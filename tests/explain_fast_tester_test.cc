// The exact TEST (`ExplanationTesterT`) on crafted cases, checked against
// an oracle that shares none of its machinery: the top-1 of a full
// `RankItems` ranking on a materialized copy of the counterfactual graph.

#include <gtest/gtest.h>

#include <vector>

#include "explain/tester.h"
#include "graph/hin_graph.h"
#include "obs/metrics.h"
#include "recsys/recommender.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/timer.h"

namespace emigre::explain {
namespace {

using graph::EdgeRef;
using graph::NodeId;
using ModedEdit = TesterInterface::ModedEdit;

/// The counterfactual top-1 of `user` after applying `edits` to a copy of
/// `g`, or kInvalidNode when an edit does not apply (a malformed candidate).
NodeId OracleTop(const graph::HinGraph& g, NodeId user,
                 const std::vector<ModedEdit>& edits,
                 const EmigreOptions& opts) {
  graph::HinGraph copy = g;
  for (const ModedEdit& e : edits) {
    Status st = e.mode == Mode::kAdd
                    ? copy.AddEdge(e.edge.src, e.edge.dst, e.edge.type,
                                   opts.add_edge_weight)
                    : copy.RemoveEdge(e.edge.src, e.edge.dst, e.edge.type);
    if (!st.ok()) return graph::kInvalidNode;
  }
  return recsys::RankItems(copy, user, opts.rec).Top();
}

/// Runs `edits` through `tester` and expects the oracle's verdict and top-1.
void ExpectMatchesOracle(TesterInterface& tester,
                         const test::ScenarioFixture& f,
                         const std::vector<ModedEdit>& edits) {
  const NodeId expected = OracleTop(f.g, f.user, edits, f.opts);
  NodeId rec = f.user;
  EXPECT_EQ(tester.TestMixed(edits, &rec), expected == f.wni);
  EXPECT_EQ(rec, expected);
}

// The tie-break contract: rank by score descending, node id ascending on
// exact ties. Crafted graph where two items are perfectly symmetric —
// user -> rated -> category -> {A, B} with identical weights — so
// PPR(A) == PPR(B) bitwise, and the verdict hinges entirely on the
// tie-break.
TEST(ExactTesterTest, EqualScoreTieBreaksToLowestId) {
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

  EmigreOptions opts;
  opts.rec.item_type = item_t;
  opts.allowed_edge_types = {rated};
  opts.add_edge_type = rated;
  opts.rec.ppr.epsilon = 1e-9;

  // Adding u->x preserves the A/B symmetry (x is a separate branch), so the
  // counterfactual top is the tied pair and must resolve to A, the lower
  // id.
  std::vector<ModedEdit> add_x = {{EdgeRef{u, x, rated}, Mode::kAdd}};
  ASSERT_EQ(OracleTop(g, u, add_x, opts), a);
  ExplanationTester ask_a(g, u, /*why_not_item=*/a, opts);
  NodeId rec = graph::kInvalidNode;
  EXPECT_TRUE(ask_a.Test({add_x[0].edge}, Mode::kAdd, &rec));
  EXPECT_EQ(rec, a);

  ExplanationTester ask_b(g, u, /*why_not_item=*/b, opts);
  rec = graph::kInvalidNode;
  EXPECT_FALSE(ask_b.Test({add_x[0].edge}, Mode::kAdd, &rec));
  EXPECT_EQ(rec, a);

  // All-zero tie: removing the rated edge leaves the user dangling and
  // every eligible item at score 0, so the top is the lowest eligible id
  // (r itself, no longer rated in the counterfactual).
  std::vector<ModedEdit> drop_r = {{EdgeRef{u, r, rated}, Mode::kRemove}};
  ASSERT_EQ(OracleTop(g, u, drop_r, opts), r);
  rec = graph::kInvalidNode;
  EXPECT_FALSE(ask_b.Test({drop_r[0].edge}, Mode::kRemove, &rec));
  EXPECT_EQ(rec, r);
}

// Rejected candidates, including one whose first edit applied before its
// second failed, leave no trace: later candidates match the oracle.
TEST(ExactTesterTest, RejectedCandidatesLeaveNoTrace) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  ExplanationTester tester(f.g, f.user, f.wni, f.opts);
  std::vector<EdgeRef> user_edges;
  for (const graph::Edge& e : f.g.OutEdges(f.user)) {
    user_edges.push_back(EdgeRef{f.user, e.node, e.type});
  }
  ASSERT_GE(user_edges.size(), 2u);
  const EdgeRef absent{f.user, f.wni, f.opts.add_edge_type};
  ASSERT_FALSE(f.g.HasEdge(f.user, f.wni));

  const std::vector<std::vector<ModedEdit>> rejected = {
      // Removing an edge the graph lacks.
      {{absent, Mode::kRemove}},
      // Adding an edge the graph has.
      {{user_edges[0], Mode::kAdd}},
      // A valid removal, then the same removal again.
      {{user_edges[1], Mode::kRemove}, {user_edges[1], Mode::kRemove}},
      // A valid addition, then the same addition again.
      {{absent, Mode::kAdd}, {absent, Mode::kAdd}},
  };
  for (const std::vector<ModedEdit>& edits : rejected) {
    ASSERT_EQ(OracleTop(f.g, f.user, edits, f.opts), graph::kInvalidNode);
    ExpectMatchesOracle(tester, f, edits);
  }
  for (const EdgeRef& e : user_edges) {
    ExpectMatchesOracle(tester, f, {{e, Mode::kRemove}});
  }
  ExpectMatchesOracle(tester, f, {{absent, Mode::kAdd}});
}

// One long-lived tester answers an interleaved stream of candidates — every
// single-edge candidate of both crafted cases in both modes, then random
// removal subsets — exactly as a fresh tester per candidate and the oracle
// do.
TEST(ExactTesterTest, InterleavedCandidatesMatchFreshTesterAndOracle) {
  Rng rng(7);
  for (bool add_case : {true, false}) {
    test::ScenarioFixture f =
        add_case ? test::MakeAddFriendlyCase() : test::MakeRemoveFriendlyCase();
    ExplanationTester tester(f.g, f.user, f.wni, f.opts);
    std::vector<EdgeRef> user_edges;
    for (const graph::Edge& e : f.g.OutEdges(f.user)) {
      user_edges.push_back(EdgeRef{f.user, e.node, e.type});
    }
    std::vector<std::vector<ModedEdit>> stream;
    for (const EdgeRef& e : user_edges) stream.push_back({{e, Mode::kRemove}});
    for (NodeId n = 0; n < f.g.NumNodes(); ++n) {
      if (f.g.NodeType(n) != f.opts.rec.item_type || n == f.wni ||
          f.g.HasEdge(f.user, n)) {
        continue;
      }
      stream.push_back(
          {{EdgeRef{f.user, n, f.opts.add_edge_type}, Mode::kAdd}});
    }
    for (int round = 0; round < 30; ++round) {
      std::vector<ModedEdit> subset;
      for (const EdgeRef& e : user_edges) {
        if (rng.NextBool()) subset.push_back({e, Mode::kRemove});
      }
      if (!subset.empty()) stream.push_back(subset);
    }

    for (size_t i = 0; i < stream.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << (add_case ? "add" : "remove") << " case, candidate "
                   << i);
      ExpectMatchesOracle(tester, f, stream[i]);
      ExplanationTester fresh(f.g, f.user, f.wni, f.opts);
      NodeId long_lived_rec = graph::kInvalidNode;
      NodeId fresh_rec = f.user;
      EXPECT_EQ(tester.TestMixed(stream[i], &long_lived_rec),
                fresh.TestMixed(stream[i], &fresh_rec));
      EXPECT_EQ(long_lived_rec, fresh_rec);
    }
  }
}

// A removal and an addition in one candidate, each in its own direction.
TEST(ExactTesterTest, TestMixedMatchesOracle) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  ExplanationTester tester(f.g, f.user, f.wni, f.opts);
  std::vector<ModedEdit> edits;
  const graph::Edge& first = f.g.OutEdges(f.user).front();
  edits.push_back({EdgeRef{f.user, first.node, first.type}, Mode::kRemove});
  for (NodeId n = 0; n < f.g.NumNodes(); ++n) {
    if (f.g.NodeType(n) == f.opts.rec.item_type && n != f.wni &&
        !f.g.HasEdge(f.user, n)) {
      edits.push_back({EdgeRef{f.user, n, f.opts.add_edge_type}, Mode::kAdd});
      break;
    }
  }
  ASSERT_EQ(edits.size(), 2u);
  ExpectMatchesOracle(tester, f, edits);
}

// A query deadline that expires between TESTs fails the next TEST as
// unverifiable (counted on `explain.tests.exact.deadline`); once it is
// lifted, the tester recovers and agrees with a fresh tester again.
TEST(TesterDeadlineTest, ExpiredDeadlineFailsOneTestAndLiftedOneRecovers) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  Deadline deadline;  // unlimited while the tester is built
  EmigreOptions opts = f.opts;
  opts.rec.ppr.deadline = &deadline;
  ExplanationTester tester(f.g, f.user, f.wni, opts);
  ExplanationTester fresh(f.g, f.user, f.wni, f.opts);
  const graph::Edge& first = f.g.OutEdges(f.user).front();
  std::vector<EdgeRef> edits = {EdgeRef{f.user, first.node, first.type}};

  deadline = Deadline(1e-12);  // expired by the TEST's first poll
  deadline.Start();
  obs::Counter& unwinds =
      obs::Registry::Global().GetCounter("explain.tests.exact.deadline");
  const uint64_t unwinds_before = unwinds.Value();
  NodeId rec = f.user;
  EXPECT_FALSE(tester.Test(edits, Mode::kRemove, &rec));
  EXPECT_EQ(rec, graph::kInvalidNode);
  EXPECT_EQ(unwinds.Value(), unwinds_before + 1);

  deadline = Deadline();  // lifted
  NodeId fresh_rec = graph::kInvalidNode;
  bool fresh_ok = fresh.Test(edits, Mode::kRemove, &fresh_rec);
  ASSERT_NE(fresh_rec, graph::kInvalidNode);
  rec = graph::kInvalidNode;
  EXPECT_EQ(tester.Test(edits, Mode::kRemove, &rec), fresh_ok);
  EXPECT_EQ(rec, fresh_rec);
  EXPECT_EQ(unwinds.Value(), unwinds_before + 1);
}

}  // namespace
}  // namespace emigre::explain
