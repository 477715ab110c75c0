#include "recsys/recommender.h"

#include <gtest/gtest.h>

#include "graph/overlay.h"
#include "ppr/power_iteration.h"
#include "recsys/recwalk.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::recsys {
namespace {

using graph::NodeId;

TEST(RecListTest, SortsByScoreThenId) {
  RecommendationList list({{5, 0.1}, {2, 0.5}, {9, 0.5}, {1, 0.0}});
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list.at(0).item, 2u);  // 0.5, lower id first on tie
  EXPECT_EQ(list.at(1).item, 9u);
  EXPECT_EQ(list.at(2).item, 5u);
  EXPECT_EQ(list.at(3).item, 1u);
  EXPECT_EQ(list.Top(), 2u);
  EXPECT_EQ(list.RankOf(9), 1u);
  EXPECT_EQ(list.RankOf(42), list.size());
  EXPECT_TRUE(list.Contains(5));
  EXPECT_FALSE(list.Contains(42));
  EXPECT_DOUBLE_EQ(list.ScoreOf(2), 0.5);
  EXPECT_DOUBLE_EQ(list.ScoreOf(42), 0.0);
}

TEST(RecListTest, TopNTruncates) {
  RecommendationList list({{1, 0.3}, {2, 0.2}, {3, 0.1}});
  RecommendationList top2 = list.TopN(2);
  EXPECT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2.at(1).item, 2u);
  EXPECT_EQ(list.TopN(10).size(), 3u);
}

TEST(RecListTest, EmptyList) {
  RecommendationList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.Top(), graph::kInvalidNode);
}

TEST(RecommenderTest, ExcludesInteractedAndNonItems) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  RecommendationList list = RankItems(bg.g, bg.paul, opts);

  // Paul rated Candide and C: they must not appear.
  EXPECT_FALSE(list.Contains(bg.candide));
  EXPECT_FALSE(list.Contains(bg.c_lang));
  // Categories and users must not appear.
  EXPECT_FALSE(list.Contains(bg.fantasy));
  EXPECT_FALSE(list.Contains(bg.alice));
  // The four remaining books do.
  EXPECT_TRUE(list.Contains(bg.harry_potter));
  EXPECT_TRUE(list.Contains(bg.lotr));
  EXPECT_TRUE(list.Contains(bg.python));
  EXPECT_TRUE(list.Contains(bg.alchemist));
  EXPECT_EQ(list.size(), 4u);
}

TEST(RecommenderTest, ScoresMatchPowerIteration) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  RecommendationList list = RankItems(bg.g, bg.paul, opts);
  std::vector<double> p = ppr::PowerIterationPpr(bg.g, bg.paul, opts.ppr);
  for (const ScoredItem& si : list.items()) {
    EXPECT_DOUBLE_EQ(si.score, p[si.item]);
  }
}

TEST(RecommenderTest, RecommendIsTopOfRanking) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  EXPECT_EQ(Recommend(bg.g, bg.paul, opts),
            RankItems(bg.g, bg.paul, opts).Top());
}

TEST(RecommenderTest, DeterministicAcrossCalls) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  RecommendationList a = RankItems(bg.g, bg.paul, opts);
  RecommendationList b = RankItems(bg.g, bg.paul, opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.at(i).item, b.at(i).item);
  }
}

TEST(RecommenderTest, WorksOnOverlay) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  graph::GraphOverlay o(bg.g);
  // Adding an edge to an item excludes it from the candidates.
  NodeId before = Recommend(o, bg.paul, opts);
  ASSERT_TRUE(o.AddEdge(bg.paul, before, bg.rated).ok());
  NodeId after = Recommend(o, bg.paul, opts);
  EXPECT_NE(after, before);
}

TEST(RecommenderTest, HasOutEdgeToHelper) {
  test::BookGraph bg = test::MakeBookGraph();
  EXPECT_TRUE(HasOutEdgeTo(bg.g, bg.paul, bg.candide));
  EXPECT_FALSE(HasOutEdgeTo(bg.g, bg.paul, bg.lotr));
  EXPECT_TRUE(IsCandidateItem(bg.g, bg.paul, bg.lotr, bg.item_type));
  EXPECT_FALSE(IsCandidateItem(bg.g, bg.paul, bg.candide, bg.item_type));
  EXPECT_FALSE(IsCandidateItem(bg.g, bg.paul, bg.fantasy, bg.item_type));
  EXPECT_FALSE(IsCandidateItem(bg.g, bg.paul, bg.paul, bg.item_type));
}

TEST(RecommenderTest, UserWithNoCandidatesGetsEmptyList) {
  graph::HinGraph g;
  graph::NodeTypeId user_type = g.RegisterNodeType("user");
  graph::NodeTypeId item_type = g.RegisterNodeType("item");
  graph::EdgeTypeId rated = g.RegisterEdgeType("rated");
  NodeId u = g.AddNode(user_type);
  NodeId i = g.AddNode(item_type);
  ASSERT_TRUE(g.AddEdge(u, i, rated).ok());
  RecommenderOptions opts;
  opts.item_type = item_type;
  EXPECT_TRUE(RankItems(g, u, opts).empty());
  EXPECT_EQ(Recommend(g, u, opts), graph::kInvalidNode);
}

// Items the walk reaches symmetrically score exactly equal. Recommend's
// argmax must then pick what the sorted ranking puts first: the lowest id
// among the tied top scores, not the lowest candidate id overall.
TEST(RecommenderTest, RecommendBreaksExactTiesLikeTheRanking) {
  graph::HinGraph g;
  graph::NodeTypeId user_type = g.RegisterNodeType("user");
  graph::NodeTypeId item_type = g.RegisterNodeType("item");
  graph::NodeTypeId hub_type = g.RegisterNodeType("category");
  graph::EdgeTypeId rated = g.RegisterEdgeType("rated");
  NodeId unreached = g.AddNode(item_type);  // a candidate scoring 0
  NodeId u = g.AddNode(user_type);
  NodeId hub = g.AddNode(hub_type);
  std::vector<NodeId> tied;
  for (int k = 0; k < 4; ++k) tied.push_back(g.AddNode(item_type));
  ASSERT_TRUE(g.AddEdge(u, hub, rated).ok());
  ASSERT_TRUE(g.AddEdge(hub, u, rated).ok());
  for (NodeId t : tied) {
    ASSERT_TRUE(g.AddEdge(hub, t, rated).ok());
    ASSERT_TRUE(g.AddEdge(t, hub, rated).ok());
  }
  RecommenderOptions opts;
  opts.item_type = item_type;

  RecommendationList list = RankItems(g, u, opts);
  ASSERT_EQ(list.size(), 5u);
  for (size_t r = 1; r < tied.size(); ++r) {
    ASSERT_EQ(list.at(r).score, list.at(0).score) << "tie is exact";
  }
  EXPECT_GT(list.at(0).score, list.ScoreOf(unreached));
  EXPECT_EQ(list.Top(), tied.front());
  EXPECT_EQ(Recommend(g, u, opts), list.Top());

  // The same on an overlay whose edits leave the tie in place.
  graph::GraphOverlay o(g);
  ASSERT_TRUE(o.AddEdge(u, tied.front(), rated).ok());
  EXPECT_EQ(Recommend(o, u, opts), RankItems(o, u, opts).Top());
  EXPECT_EQ(Recommend(o, u, opts), tied[1]);
}

TEST(RecommenderTest, RecommendReturnsInvalidNodeWithoutCandidates) {
  test::BookGraph bg = test::MakeBookGraph();
  RecommenderOptions opts;
  opts.item_type = bg.item_type;
  // Paul rates every book on the overlay: no candidate is left.
  graph::GraphOverlay o(bg.g);
  const RecommendationList books = RankItems(bg.g, bg.paul, opts);
  for (const ScoredItem& si : books.items()) {
    ASSERT_TRUE(o.AddEdge(bg.paul, si.item, bg.rated).ok());
  }
  EXPECT_TRUE(RankItems(o, bg.paul, opts).empty());
  EXPECT_EQ(Recommend(o, bg.paul, opts), graph::kInvalidNode);
  // A type no node has yields no candidate either.
  opts.item_type = bg.user_type + bg.item_type + bg.category_type + 1;
  EXPECT_EQ(Recommend(bg.g, bg.paul, opts), graph::kInvalidNode);
}

// ---------------------------------------------------------------------------
// RecWalk
// ---------------------------------------------------------------------------

TEST(RecWalkTest, AddsSimilarityEdgesBetweenCoRatedItems) {
  test::BookGraph bg = test::MakeBookGraph();
  RecWalkOptions opts;
  opts.beta = 0.5;
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, opts);
  ASSERT_TRUE(rw.ok()) << rw.status();
  const graph::HinGraph& g2 = rw.value();
  graph::EdgeTypeId sim = g2.FindEdgeType("similar-to");
  ASSERT_NE(sim, graph::kInvalidEdgeType);

  // Alice rated HP, LotR, Candide together -> HP and LotR are similar.
  EXPECT_TRUE(g2.HasEdge(bg.harry_potter, bg.lotr, sim));
  // Python and LotR share no user -> no similarity edge.
  EXPECT_FALSE(g2.HasEdge(bg.python, bg.lotr, sim));
}

TEST(RecWalkTest, BetaControlsMassSplit) {
  test::BookGraph bg = test::MakeBookGraph();
  RecWalkOptions opts;
  opts.beta = 0.7;
  opts.min_similarity = 0.0;
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, opts);
  ASSERT_TRUE(rw.ok());
  const graph::HinGraph& g2 = rw.value();
  graph::EdgeTypeId sim = g2.FindEdgeType("similar-to");

  // For an item with similarity edges, the similarity block holds (1-beta)
  // of the total out-weight.
  double orig = 0.0;
  double similar = 0.0;
  for (const graph::Edge& e : g2.OutEdges(bg.harry_potter)) {
    if (e.type == sim) {
      similar += e.weight;
    } else {
      orig += e.weight;
    }
  }
  ASSERT_GT(similar, 0.0);
  double total = orig + similar;
  EXPECT_NEAR(orig / total, opts.beta, 1e-9);
  EXPECT_NEAR(similar / total, 1.0 - opts.beta, 1e-9);
}

TEST(RecWalkTest, BetaOneKeepsPlainWalk) {
  test::BookGraph bg = test::MakeBookGraph();
  RecWalkOptions opts;
  opts.beta = 1.0;
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, opts);
  ASSERT_TRUE(rw.ok());
  // Similarity edges carry zero budget -> none added.
  graph::EdgeTypeId sim = rw->FindEdgeType("similar-to");
  for (NodeId n = 0; n < rw->NumNodes(); ++n) {
    for (const graph::Edge& e : rw->OutEdges(n)) {
      EXPECT_NE(e.type, sim);
    }
  }
}

TEST(RecWalkTest, RejectsBadBeta) {
  test::BookGraph bg = test::MakeBookGraph();
  RecWalkOptions opts;
  opts.beta = 1.5;
  EXPECT_TRUE(BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, opts)
                  .status()
                  .IsInvalidArgument());
}

TEST(RecWalkTest, PprOnRecWalkGraphStillNormalizes) {
  test::BookGraph bg = test::MakeBookGraph();
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(bg.g, bg.item_type, bg.user_type, RecWalkOptions{});
  ASSERT_TRUE(rw.ok());
  std::vector<double> p =
      ppr::PowerIterationPpr(rw.value(), bg.paul, ppr::PprOptions{});
  double sum = 0.0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-8);
}

TEST(RecWalkTest, TopKSimilarCapRespected) {
  Rng rng(9);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 15, 2, 10);
  RecWalkOptions opts;
  opts.top_k_similar = 2;
  opts.min_similarity = 0.0;
  Result<graph::HinGraph> rw =
      BuildRecWalkGraph(rh.g, rh.item_type, rh.user_type, opts);
  ASSERT_TRUE(rw.ok());
  graph::EdgeTypeId sim = rw->FindEdgeType("similar-to");
  for (NodeId item : rh.items) {
    size_t sim_degree = 0;
    for (const graph::Edge& e : rw->OutEdges(item)) {
      if (e.type == sim) ++sim_degree;
    }
    EXPECT_LE(sim_degree, 2u) << "item " << item;
  }
}

}  // namespace
}  // namespace emigre::recsys
