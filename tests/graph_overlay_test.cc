#include "graph/overlay.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <tuple>
#include <type_traits>
#include <vector>

#include "graph/csr.h"
#include "ppr/power_iteration.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::graph {
namespace {

using Snapshot = std::map<std::tuple<NodeId, NodeId, EdgeTypeId>, double>;

// Materializes the effective out-edge set of a GraphLike view.
template <typename G>
Snapshot SnapshotOutEdges(const G& g) {
  Snapshot snap;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    g.ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId t, double w) {
      snap[{n, dst, t}] += w;
    });
  }
  return snap;
}

template <typename G>
Snapshot SnapshotInEdges(const G& g) {
  Snapshot snap;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    g.ForEachInEdge(n, [&](NodeId src, EdgeTypeId t, double w) {
      snap[{src, n, t}] += w;
    });
  }
  return snap;
}

// The bit patterns of a PPR vector, so a comparison is exact to the bit.
std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

// The effective out-edges of `n` in a view.
template <typename G>
std::vector<EdgeRef> OutEdgesOf(const G& g, NodeId n) {
  std::vector<EdgeRef> out;
  g.ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId t, double) {
    out.push_back(EdgeRef{n, dst, t});
  });
  return out;
}

// One overlay template serves every base; the suite runs over the heap
// graph and over the CSR snapshot the testers use.
template <typename Base>
class OverlayTest : public ::testing::Test {
 protected:
  static Base MakeBase(const HinGraph& g) {
    if constexpr (std::is_same_v<Base, HinGraph>) {
      return g;
    } else {
      return Base(g);
    }
  }
};

using Bases = ::testing::Types<HinGraph, CsrGraph>;
TYPED_TEST_SUITE(OverlayTest, Bases);

TYPED_TEST(OverlayTest, TransparentWithoutEdits) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  EXPECT_FALSE(o.HasEdits());
  EXPECT_EQ(SnapshotOutEdges(o), SnapshotOutEdges(bg.g));
  EXPECT_EQ(SnapshotInEdges(o), SnapshotInEdges(bg.g));
  for (NodeId n = 0; n < bg.g.NumNodes(); ++n) {
    EXPECT_DOUBLE_EQ(o.OutWeight(n), bg.g.OutWeight(n));
    EXPECT_EQ(o.OutDegree(n), bg.g.OutDegree(n));
    EXPECT_EQ(o.InDegree(n), bg.g.InDegree(n));
    EXPECT_EQ(o.NodeType(n), bg.g.NodeType(n));
  }
}

TYPED_TEST(OverlayTest, RemoveMasksBaseEdge) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  EXPECT_FALSE(o.HasEdge(bg.paul, bg.candide, bg.rated));
  EXPECT_TRUE(base.HasEdge(bg.paul, bg.candide, bg.rated));  // base intact
  EXPECT_EQ(o.OutDegree(bg.paul), bg.g.OutDegree(bg.paul) - 1);
  EXPECT_EQ(o.InDegree(bg.candide), bg.g.InDegree(bg.candide) - 1);
  EXPECT_DOUBLE_EQ(o.OutWeight(bg.paul), bg.g.OutWeight(bg.paul) - 1.0);
  EXPECT_EQ(o.NumRemoved(), 1u);
  // Double removal fails.
  EXPECT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).IsNotFound());
}

TYPED_TEST(OverlayTest, AddCreatesEdge) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  EXPECT_TRUE(o.HasEdge(bg.paul, bg.lotr, bg.rated));
  EXPECT_FALSE(base.HasEdge(bg.paul, bg.lotr));
  EXPECT_EQ(o.OutDegree(bg.paul), bg.g.OutDegree(bg.paul) + 1);
  EXPECT_EQ(o.InDegree(bg.lotr), bg.g.InDegree(bg.lotr) + 1);
  EXPECT_DOUBLE_EQ(o.OutWeight(bg.paul), bg.g.OutWeight(bg.paul) + 1.0);
  // Duplicate add fails.
  EXPECT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated).IsAlreadyExists());
  // Adding an edge that exists in base fails too.
  EXPECT_TRUE(o.AddEdge(bg.paul, bg.candide, bg.rated).IsAlreadyExists());
}

TYPED_TEST(OverlayTest, RemoveThenAddRestoresBaseWeight) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.c_lang, bg.rated).ok());
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.c_lang, bg.rated, 42.0).ok());
  // Un-removal restores the *base* weight, not the requested one.
  EXPECT_EQ(SnapshotOutEdges(o), SnapshotOutEdges(bg.g));
  EXPECT_DOUBLE_EQ(o.OutWeight(bg.paul), bg.g.OutWeight(bg.paul));
  EXPECT_EQ(o.NumRemoved(), 0u);
  EXPECT_EQ(o.NumAdded(), 0u);
}

TYPED_TEST(OverlayTest, AddThenRemoveIsNoop) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated).ok());
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.lotr, bg.rated).ok());
  EXPECT_FALSE(o.HasEdits());
  EXPECT_EQ(SnapshotOutEdges(o), SnapshotOutEdges(bg.g));
  EXPECT_EQ(SnapshotInEdges(o), SnapshotInEdges(bg.g));
}

TYPED_TEST(OverlayTest, ClearDropsAllEdits) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated).ok());
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  o.Clear();
  EXPECT_FALSE(o.HasEdits());
  EXPECT_EQ(SnapshotOutEdges(o), SnapshotOutEdges(bg.g));
}

TYPED_TEST(OverlayTest, ClearRestoresBaseAndAdjacencyOrder) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);

  auto order_of = [&](NodeId n) {
    std::vector<NodeId> order;
    o.ForEachOutEdge(n, [&](NodeId dst, EdgeTypeId, double) {
      order.push_back(dst);
    });
    return order;
  };
  std::vector<NodeId> before = order_of(bg.paul);

  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  EXPECT_TRUE(o.HasEdits());
  o.Clear();
  EXPECT_FALSE(o.HasEdits());
  EXPECT_EQ(o.NumAdded(), 0u);
  EXPECT_EQ(o.NumRemoved(), 0u);
  EXPECT_EQ(SnapshotOutEdges(o), SnapshotOutEdges(bg.g));
  // The property the testers' per-candidate determinism rests on: after
  // Clear, edges come back in the ORIGINAL order (a mutated HinGraph would
  // have moved the re-added edge to the end of the adjacency list).
  EXPECT_EQ(order_of(bg.paul), before);
}

TYPED_TEST(OverlayTest, HasEdgeReflectsEdits) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  EXPECT_TRUE(o.HasEdge(bg.paul, bg.candide));
  EXPECT_TRUE(o.HasEdge(bg.paul, bg.candide, bg.rated));
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  EXPECT_FALSE(o.HasEdge(bg.paul, bg.candide));
  EXPECT_FALSE(o.HasEdge(bg.paul, bg.candide, bg.rated));
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  EXPECT_TRUE(o.HasEdge(bg.paul, bg.lotr, bg.rated));
  EXPECT_FALSE(base.HasEdge(bg.paul, bg.lotr));  // base untouched
}

TYPED_TEST(OverlayTest, EditListsAreSorted) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.python, bg.rated).ok());
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated).ok());
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  auto added = o.AddedEdges();
  ASSERT_EQ(added.size(), 2u);
  EXPECT_LT(added[0], added[1]);
  auto removed = o.RemovedEdges();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], (EdgeRef{bg.paul, bg.candide, bg.rated}));
}

TYPED_TEST(OverlayTest, RemoveMissingEdgeFails) {
  test::BookGraph bg = test::MakeBookGraph();
  TypeParam base = TestFixture::MakeBase(bg.g);
  BasicGraphOverlay<TypeParam> o(base);
  EXPECT_TRUE(o.RemoveEdge(bg.paul, bg.lotr, bg.rated).IsNotFound());
  EXPECT_TRUE(o.RemoveEdge(bg.paul, 999, bg.rated).IsInvalidArgument());
  EXPECT_TRUE(o.AddEdge(bg.paul, 999, bg.rated).IsInvalidArgument());
  EXPECT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, -1.0)
                  .IsInvalidArgument());
}

// Property: a random edit sequence applied to an overlay matches the same
// sequence applied to a mutable copy of the graph.
TYPED_TEST(OverlayTest, RandomEditsMatchMutatedCopy) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    test::RandomHin rh = test::MakeRandomHin(rng, 5, 20, 3, 6);
    TypeParam base = TestFixture::MakeBase(rh.g);
    BasicGraphOverlay<TypeParam> overlay(base);
    HinGraph mutated = rh.g;

    for (int step = 0; step < 30; ++step) {
      NodeId src = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      NodeId dst = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      EdgeTypeId type = rng.NextBool() ? rh.rated : rh.belongs_to;
      if (rng.NextBool()) {
        Status a = overlay.AddEdge(src, dst, type, 1.0);
        Status b = mutated.AddEdge(src, dst, type, 1.0);
        EXPECT_EQ(a.ok(), b.ok()) << a << " vs " << b;
      } else {
        Status a = overlay.RemoveEdge(src, dst, type);
        Status b = mutated.RemoveEdge(src, dst, type);
        EXPECT_EQ(a.ok(), b.ok()) << a << " vs " << b;
      }
    }
    EXPECT_EQ(SnapshotOutEdges(overlay), SnapshotOutEdges(mutated));
    EXPECT_EQ(SnapshotInEdges(overlay), SnapshotInEdges(mutated));
    for (NodeId n = 0; n < rh.g.NumNodes(); ++n) {
      EXPECT_NEAR(overlay.OutWeight(n), mutated.OutWeight(n), 1e-12);
      EXPECT_EQ(overlay.OutDegree(n), mutated.OutDegree(n));
      EXPECT_EQ(overlay.InDegree(n), mutated.InDegree(n));
    }
  }
}

// Property: power iteration over the overlay equals, bit for bit, the run
// over a CSR copy materialized from it, after every step of a random mix of
// adds, removes, un-removes, removes of added edges and re-weights; after
// Clear() it equals the run over the base. Unedited nodes read the base
// directly and edited ones go through the edit maps, so both paths are
// held to the same edges, order and out-weights.
TYPED_TEST(OverlayTest, PowerIterationMatchesMaterializedCopyBitForBit) {
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    test::RandomHin rh = test::MakeRandomHin(rng, 6, 24, 3, 5);
    TypeParam base = TestFixture::MakeBase(rh.g);
    BasicGraphOverlay<TypeParam> overlay(base);
    const size_t n = rh.g.NumNodes();
    const NodeId user = rh.users[rng.NextBounded(rh.users.size())];
    auto pick = [&](const std::vector<EdgeRef>& edges) {
      return edges[rng.NextBounded(edges.size())];
    };
    for (int step = 0; step < 25; ++step) {
      // Mostly user-rooted edits, as a Why-Not candidate makes, plus some
      // anywhere in the graph.
      const NodeId src =
          rng.NextBool(0.7) ? user : static_cast<NodeId>(rng.NextBounded(n));
      const EdgeTypeId type = rng.NextBool() ? rh.rated : rh.belongs_to;
      std::vector<EdgeRef> out = OutEdgesOf(overlay, src);
      std::vector<EdgeRef> added = overlay.AddedEdges();
      std::vector<EdgeRef> removed = overlay.RemovedEdges();
      switch (rng.NextBounded(5)) {
        case 0: {  // add (fails harmlessly on an existing edge)
          NodeId dst = static_cast<NodeId>(rng.NextBounded(n));
          (void)overlay.AddEdge(src, dst, type, rng.NextDouble(0.25, 2.0));
          break;
        }
        case 1:  // remove a base or added edge
          if (!out.empty()) {
            EdgeRef e = pick(out);
            ASSERT_TRUE(overlay.RemoveEdge(e.src, e.dst, e.type).ok());
          }
          break;
        case 2:  // un-remove: the base edge returns with its base weight
          if (!removed.empty()) {
            EdgeRef e = pick(removed);
            ASSERT_TRUE(overlay.AddEdge(e.src, e.dst, e.type, 9.0).ok());
          }
          break;
        case 3:  // remove an added edge (or a re-weighted copy)
          if (!added.empty()) {
            EdgeRef e = pick(added);
            ASSERT_TRUE(overlay.RemoveEdge(e.src, e.dst, e.type).ok());
          }
          break;
        default:  // re-weight a base or added edge
          if (!out.empty()) {
            EdgeRef e = pick(out);
            ASSERT_TRUE(overlay.SetWeight(e.src, e.dst, e.type,
                                          rng.NextDouble(0.25, 2.0))
                            .ok());
          }
          break;
      }
      CsrGraph copy(overlay, 0);
      for (NodeId seed : {user, src}) {
        EXPECT_EQ(Bits(ppr::PowerIterationPpr(overlay, seed)),
                  Bits(ppr::PowerIterationPpr(copy, seed)))
            << "trial " << trial << " step " << step << " seed " << seed;
      }
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(overlay.OutDegree(v), copy.OutDegree(v)) << v;
        EXPECT_EQ(overlay.InDegree(v), copy.InDegree(v)) << v;
      }
    }
    overlay.Clear();
    for (NodeId seed : {user, rh.items.front()}) {
      EXPECT_EQ(Bits(ppr::PowerIterationPpr(overlay, seed)),
                Bits(ppr::PowerIterationPpr(base, seed)))
          << "trial " << trial << " after Clear, seed " << seed;
    }
  }
}

// Edits are confined to the nodes the base had when the overlay was built;
// a node the mutable base gained later reads straight from the base.
TEST(OverlayFlagsTest, NodeAddedAfterConstructionIsReadOnly) {
  test::BookGraph bg = test::MakeBookGraph();
  GraphOverlay o(bg.g);
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  NodeId late = bg.g.AddNode(bg.g.NodeType(bg.lotr), "late");
  EXPECT_TRUE(o.AddEdge(bg.paul, late, bg.rated).IsInvalidArgument());
  EXPECT_TRUE(o.AddEdge(late, bg.paul, bg.rated).IsInvalidArgument());
  EXPECT_TRUE(o.SetWeight(late, bg.paul, bg.rated, 2.0).IsInvalidArgument());
  EXPECT_TRUE(o.RemoveEdge(late, bg.paul, bg.rated).IsInvalidArgument());
  EXPECT_EQ(o.OutDegree(late), 0u);
  EXPECT_EQ(o.InDegree(late), 0u);
  EXPECT_EQ(o.OutWeight(late), 0.0);
  EXPECT_EQ(o.NumRemoved(), 1u);  // the earlier edit stands
}

}  // namespace
}  // namespace emigre::graph
