#include "graph/overlay.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "graph/csr.h"
#include "test_util.h"
#include "util/rng.h"

// Backing parity of the overlay the testers use: the same edit sequence
// applied to an overlay over the CSR snapshot and to one over the mutable
// HinGraph must give the same Status codes, edit lists and effective graph.
// The per-base behaviour of each edit is covered by graph_overlay_test's
// typed suite; this file checks that the two bases agree step by step.

namespace emigre::graph {
namespace {

using Snapshot = std::map<std::tuple<NodeId, NodeId, EdgeTypeId>, double>;
using CsrBackedOverlay = BasicGraphOverlay<CsrGraph>;

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

TEST(CsrBackedOverlayTest, MatchesGraphOverlaySemantics) {
  // Includes the error cases: duplicate add, double removal, missing
  // SetWeight target.
  test::BookGraph bg = test::MakeBookGraph();
  CsrGraph csr(bg.g);
  GraphOverlay ref(bg.g);
  CsrBackedOverlay o(csr);

  struct Op {
    int kind;  // 0 = add, 1 = remove, 2 = set-weight
    NodeId src, dst;
    EdgeTypeId type;
    double weight;
  };
  std::vector<Op> ops = {
      {1, bg.paul, bg.candide, bg.rated, 0.0},     // remove base edge
      {1, bg.paul, bg.candide, bg.rated, 0.0},     // double removal -> error
      {0, bg.paul, bg.candide, bg.rated, 2.5},     // un-remove w/ new weight
      {0, bg.paul, bg.lotr, bg.rated, 1.0},        // fresh addition
      {0, bg.paul, bg.lotr, bg.rated, 1.0},        // duplicate add -> error
      {1, bg.paul, bg.lotr, bg.rated, 0.0},        // undo the addition
      {0, bg.alice, bg.c_lang, bg.rated, 3.0},     // addition that stays
      {2, bg.alice, bg.c_lang, bg.rated, 0.5},     // re-weight added edge
      {2, bg.bob, bg.python, bg.rated, 4.0},       // re-weight base edge
      {2, bg.paul, bg.lotr, bg.rated, 9.0},        // absent edge -> error
      {1, bg.bob, bg.python, bg.rated, 0.0},       // remove re-weighted edge
  };
  for (const Op& op : ops) {
    Status ref_st, csr_st;
    if (op.kind == 0) {
      ref_st = ref.AddEdge(op.src, op.dst, op.type, op.weight);
      csr_st = o.AddEdge(op.src, op.dst, op.type, op.weight);
    } else if (op.kind == 1) {
      ref_st = ref.RemoveEdge(op.src, op.dst, op.type);
      csr_st = o.RemoveEdge(op.src, op.dst, op.type);
    } else {
      ref_st = ref.SetWeight(op.src, op.dst, op.type, op.weight);
      csr_st = o.SetWeight(op.src, op.dst, op.type, op.weight);
    }
    EXPECT_EQ(ref_st.code(), csr_st.code())
        << "op kind " << op.kind << " " << op.src << "->" << op.dst;
    EXPECT_EQ(SnapshotOutEdges(ref), SnapshotOutEdges(o));
    EXPECT_EQ(SnapshotInEdges(ref), SnapshotInEdges(o));
    for (NodeId n = 0; n < bg.g.NumNodes(); ++n) {
      EXPECT_DOUBLE_EQ(ref.OutWeight(n), o.OutWeight(n)) << "node " << n;
      EXPECT_EQ(ref.OutDegree(n), o.OutDegree(n)) << "node " << n;
      EXPECT_EQ(ref.InDegree(n), o.InDegree(n)) << "node " << n;
    }
    EXPECT_EQ(ref.NumAdded(), o.NumAdded());
    EXPECT_EQ(ref.NumRemoved(), o.NumRemoved());
    EXPECT_EQ(ref.AddedEdges(), o.AddedEdges());
    EXPECT_EQ(ref.RemovedEdges(), o.RemovedEdges());
  }
}

TEST(CsrBackedOverlayTest, MatchesGraphOverlayOnRandomEditSequences) {
  Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    test::RandomHin rh = test::MakeRandomHin(rng, 6, 20, 3, 5);
    CsrGraph csr(rh.g);
    GraphOverlay ref(rh.g);
    CsrBackedOverlay o(csr);
    for (int step = 0; step < 40; ++step) {
      NodeId src = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      NodeId dst = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      EdgeTypeId t = static_cast<EdgeTypeId>(
          rng.NextBounded(rh.g.NumEdgeTypes()));
      int kind = static_cast<int>(rng.NextBounded(3));
      Status ref_st, csr_st;
      if (kind == 0) {
        ref_st = ref.AddEdge(src, dst, t, 1.5);
        csr_st = o.AddEdge(src, dst, t, 1.5);
      } else if (kind == 1) {
        ref_st = ref.RemoveEdge(src, dst, t);
        csr_st = o.RemoveEdge(src, dst, t);
      } else {
        ref_st = ref.SetWeight(src, dst, t, 2.0);
        csr_st = o.SetWeight(src, dst, t, 2.0);
      }
      ASSERT_EQ(ref_st.code(), csr_st.code())
          << "round " << round << " step " << step;
    }
    EXPECT_EQ(SnapshotOutEdges(ref), SnapshotOutEdges(o));
    EXPECT_EQ(SnapshotInEdges(ref), SnapshotInEdges(o));
    for (NodeId n = 0; n < rh.g.NumNodes(); ++n) {
      EXPECT_DOUBLE_EQ(ref.OutWeight(n), o.OutWeight(n));
    }
    EXPECT_EQ(ref.AddedEdges(), o.AddedEdges());
    EXPECT_EQ(ref.RemovedEdges(), o.RemovedEdges());
  }
}

}  // namespace
}  // namespace emigre::graph
