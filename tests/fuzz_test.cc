// Randomized stress tests: long operation sequences against invariants.
//
// These complement the per-module unit tests with "anything the API allows
// must keep the invariants" checks: graph mutation storms stay consistent,
// overlays always mirror an equivalently mutated copy, PPR stays a
// distribution, CSV round-trips arbitrary field content, and graph I/O
// round-trips randomly generated graphs.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "graph/hin_graph.h"
#include "graph/io.h"
#include "graph/overlay.h"
#include "graph/validate.h"
#include "ppr/power_iteration.h"
#include "test_util.h"
#include "util/csv.h"
#include "util/rng.h"

namespace emigre {
namespace {

using graph::EdgeTypeId;
using graph::HinGraph;
using graph::NodeId;

TEST(GraphFuzzTest, MutationStormKeepsInvariants) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 5; ++trial) {
    HinGraph g;
    graph::NodeTypeId nt = g.RegisterNodeType("n");
    std::vector<EdgeTypeId> types = {g.RegisterEdgeType("a"),
                                     g.RegisterEdgeType("b"),
                                     g.RegisterEdgeType("c")};
    for (int i = 0; i < 12; ++i) g.AddNode(nt);

    for (int step = 0; step < 400; ++step) {
      NodeId src = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      NodeId dst = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      EdgeTypeId type = types[rng.NextBounded(types.size())];
      switch (rng.NextBounded(4)) {
        case 0:
          g.AddEdge(src, dst, type, rng.NextDouble(0.1, 5.0)).ok();
          break;
        case 1:
          g.RemoveEdge(src, dst, type).ok();
          break;
        case 2:
          g.RemoveEdgesBetween(src, dst);
          break;
        case 3:
          g.AddNode(nt);
          break;
      }
      if (step % 50 == 0) {
        ASSERT_TRUE(graph::ValidateGraph(g).ok()) << "step " << step;
      }
    }
    ASSERT_TRUE(graph::ValidateGraph(g).ok());

    // PPR on whatever came out is still a distribution from any seed with
    // out-edges (isolated seeds keep all mass at themselves).
    ppr::PprOptions opts;
    for (int probe = 0; probe < 3; ++probe) {
      NodeId seed = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
      std::vector<double> p = ppr::PowerIterationPpr(g, seed, opts);
      double sum = 0.0;
      for (double x : p) {
        ASSERT_GE(x, -1e-12);
        sum += x;
      }
      EXPECT_NEAR(sum, 1.0, 1e-8);
    }
  }
}

TEST(GraphFuzzTest, OverlayWithSetWeightMatchesMutatedCopy) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 10; ++trial) {
    test::RandomHin rh = test::MakeRandomHin(rng, 4, 12, 2, 4);
    graph::GraphOverlay overlay(rh.g);
    HinGraph mutated = rh.g;
    // Half the steps edit one of three base edges, so SetWeight, AddEdge
    // and RemoveEdge meet on one edge in every order.
    std::vector<graph::EdgeRef> hot;
    for (int i = 0; i < 3; ++i) {
      const NodeId u = rh.users[rng.NextBounded(rh.users.size())];
      const graph::Edge& e =
          rh.g.OutEdges(u)[rng.NextBounded(rh.g.OutDegree(u))];
      hot.push_back(graph::EdgeRef{u, e.node, e.type});
    }

    for (int step = 0; step < 60; ++step) {
      NodeId src = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      NodeId dst = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      EdgeTypeId type = rng.NextBool() ? rh.rated : rh.belongs_to;
      if (rng.NextBool()) {
        const graph::EdgeRef& e = hot[rng.NextBounded(hot.size())];
        src = e.src;
        dst = e.dst;
        type = e.type;
      }
      double w = rng.NextDouble(0.1, 3.0);
      switch (rng.NextBounded(3)) {
        case 0: {
          Status a = overlay.AddEdge(src, dst, type, w);
          Status b = mutated.AddEdge(src, dst, type, w);
          // The overlay's un-remove restores the ORIGINAL weight; emulate
          // on the copy by checking both succeeded/failed only.
          ASSERT_EQ(a.ok(), b.ok());
          if (a.ok()) {
            // Align weights: force both to the overlay's effective weight.
            double effective = 0.0;
            overlay.ForEachOutEdge(src, [&](NodeId d, EdgeTypeId t,
                                            double ww) {
              if (d == dst && t == type) effective = ww;
            });
            mutated.RemoveEdge(src, dst, type).CheckOK();
            mutated.AddEdge(src, dst, type, effective).CheckOK();
          }
          break;
        }
        case 1: {
          Status a = overlay.RemoveEdge(src, dst, type);
          Status b = mutated.RemoveEdge(src, dst, type);
          ASSERT_EQ(a.ok(), b.ok());
          break;
        }
        case 2: {
          bool effective_has = overlay.HasEdge(src, dst, type);
          Status a = overlay.SetWeight(src, dst, type, w);
          ASSERT_EQ(a.ok(), effective_has) << a;
          if (a.ok()) {
            mutated.RemoveEdge(src, dst, type).CheckOK();
            mutated.AddEdge(src, dst, type, w).CheckOK();
          }
          break;
        }
      }
    }

    // Effective edge multisets must coincide.
    using Snapshot =
        std::map<std::tuple<NodeId, NodeId, EdgeTypeId>, double>;
    Snapshot from_overlay;
    Snapshot from_copy;
    for (NodeId n = 0; n < rh.g.NumNodes(); ++n) {
      overlay.ForEachOutEdge(n, [&](NodeId d, EdgeTypeId t, double w) {
        from_overlay[{n, d, t}] += w;
      });
      mutated.ForEachOutEdge(n, [&](NodeId d, EdgeTypeId t, double w) {
        from_copy[{n, d, t}] += w;
      });
    }
    ASSERT_EQ(from_overlay.size(), from_copy.size());
    for (const auto& [key, w] : from_overlay) {
      auto it = from_copy.find(key);
      ASSERT_NE(it, from_copy.end());
      EXPECT_NEAR(w, it->second, 1e-12);
    }
    for (NodeId n = 0; n < rh.g.NumNodes(); ++n) {
      EXPECT_NEAR(overlay.OutWeight(n), mutated.OutWeight(n), 1e-9);
      EXPECT_EQ(overlay.OutDegree(n), mutated.OutDegree(n));
    }
  }
}

TEST(CsvFuzzTest, ArbitraryFieldsRoundTrip) {
  Rng rng(0xCAFE);
  const std::string alphabet =
      "abcXYZ019 ,\"\n\r;|\t'~`!@#$%^&*(){}[]";
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::vector<std::string>> rows;
    size_t num_rows = 1 + rng.NextBounded(8);
    size_t num_cols = 1 + rng.NextBounded(6);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < num_cols; ++c) {
        std::string field;
        size_t len = rng.NextBounded(12);
        for (size_t i = 0; i < len; ++i) {
          field += alphabet[rng.NextBounded(alphabet.size())];
        }
        row.push_back(std::move(field));
      }
      rows.push_back(std::move(row));
    }

    std::string path = test::MakeTempDir("csvfuzz") + "/t.csv";
    {
      CsvWriter w(path);
      for (const auto& row : rows) ASSERT_TRUE(w.WriteRow(row).ok());
      ASSERT_TRUE(w.Close().ok());
    }
    CsvReader r(path);
    std::vector<std::string> row;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(r.ReadRow(&row)) << "row " << i;
      EXPECT_EQ(row, rows[i]) << "row " << i;
    }
    EXPECT_FALSE(r.ReadRow(&row));
  }
}

TEST(GraphIoFuzzTest, RandomGraphsRoundTrip) {
  Rng rng(0xD00D);
  for (int trial = 0; trial < 8; ++trial) {
    test::RandomHin rh = test::MakeRandomHin(rng, 1 + rng.NextBounded(6),
                                             5 + rng.NextBounded(20), 3, 5);
    std::string path = test::MakeTempDir("iofuzz") + "/g.graph";
    ASSERT_TRUE(graph::SaveGraph(rh.g, path).ok());
    Result<HinGraph> loaded = graph::LoadGraph(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_EQ(loaded->NumNodes(), rh.g.NumNodes());
    ASSERT_EQ(loaded->NumEdges(), rh.g.NumEdges());
    ASSERT_TRUE(graph::ValidateGraph(loaded.value()).ok());
    // PPR agreement is the strongest cheap equivalence check.
    if (rh.g.NumNodes() > 0) {
      NodeId seed = static_cast<NodeId>(rng.NextBounded(rh.g.NumNodes()));
      std::vector<double> a =
          ppr::PowerIterationPpr(rh.g, seed, ppr::PprOptions{});
      std::vector<double> b =
          ppr::PowerIterationPpr(loaded.value(), seed, ppr::PprOptions{});
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i], b[i], 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace emigre
