#include "ppr/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "graph/csr.h"
#include "graph/csr_snapshot.h"
#include "graph/overlay.h"
#include "ppr/dynamic.h"
#include "ppr/forward_push.h"
#include "ppr/power_iteration.h"
#include "ppr/reverse_push.h"
#include "ppr/workspace.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::ppr {
namespace {

using graph::BasicGraphOverlay;
using graph::CsrGraph;
using graph::CsrSnapshotView;
using graph::EdgeTypeId;
using graph::GraphOverlay;
using graph::HinGraph;
using graph::NodeId;

// ---------------------------------------------------------------------------
// SparseVector

TEST(SparseVectorTest, GetAndToDense) {
  SparseVector v({1, 4, 7}, {0.5, -2.0, 3.25});
  EXPECT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.empty());
  EXPECT_DOUBLE_EQ(v.Get(1), 0.5);
  EXPECT_DOUBLE_EQ(v.Get(4), -2.0);
  EXPECT_DOUBLE_EQ(v.Get(7), 3.25);
  EXPECT_DOUBLE_EQ(v.Get(0), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(100), 0.0);
  std::vector<double> dense = v.ToDense(9);
  ASSERT_EQ(dense.size(), 9u);
  EXPECT_DOUBLE_EQ(dense[1], 0.5);
  EXPECT_DOUBLE_EQ(dense[4], -2.0);
  EXPECT_DOUBLE_EQ(dense[7], 3.25);
  EXPECT_DOUBLE_EQ(dense[0], 0.0);
  // Entries beyond the requested dense size are dropped, not a crash.
  EXPECT_EQ(v.ToDense(4).size(), 4u);
  EXPECT_GT(v.MemoryBytes(), 0u);
  EXPECT_TRUE(SparseVector().empty());
  // FromDense inverts ToDense and keeps only the non-zeros.
  SparseVector back = SparseVector::FromDense(dense);
  EXPECT_EQ(back.ids(), v.ids());
  EXPECT_EQ(back.values(), v.values());
  EXPECT_TRUE(SparseVector::FromDense({0.0, 0.0}).empty());
}

// ---------------------------------------------------------------------------
// Backing parity of the dense FIFO loops (bitwise)

// The static pushes read the graph only through the GraphLike interface, so
// backings that list the same adjacency in the same order must produce
// bitwise-identical states from every source and toward every target.
template <typename A, typename B>
void ExpectSamePushes(const A& ref, const B& g, const PprOptions& opts) {
  ASSERT_EQ(g.NumNodes(), ref.NumNodes());
  for (NodeId v = 0; v < ref.NumNodes(); ++v) {
    PushResult a = ForwardPush(ref, v, opts);
    PushResult b = ForwardPush(g, v, opts);
    EXPECT_EQ(a.estimate, b.estimate) << "forward source " << v;
    EXPECT_EQ(a.residual, b.residual) << "forward source " << v;
    EXPECT_EQ(a.residual_mass, b.residual_mass) << "forward source " << v;
    PushResult c = ReversePush(ref, v, opts);
    PushResult d = ReversePush(g, v, opts);
    EXPECT_EQ(c.estimate, d.estimate) << "reverse target " << v;
    EXPECT_EQ(c.residual, d.residual) << "reverse target " << v;
    EXPECT_EQ(c.residual_mass, d.residual_mass) << "reverse target " << v;
  }
}

// Removes one of Paul's base edges and adds a new edge from Paul.
template <typename O>
void ApplyEdits(O& o, const test::BookGraph& bg) {
  ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  ASSERT_TRUE(o.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
}

TEST(PushBackingParityTest, DenseLoopsBitwiseEqualAcrossBackings) {
  // Heap HinGraph vs its CSR snapshot vs the mmap'd snapshot file vs an
  // overlay over the CSR: the cache and the testers push over the CSR while
  // the search-space fallbacks push over the caller's graph, so these must
  // agree bit for bit.
  Rng rng(7);
  test::BookGraph bg = test::MakeBookGraph();
  test::RandomHin rh = test::MakeRandomHin(rng, 8, 30, 4, 5);
  int round = 0;
  for (const HinGraph* g : {&bg.g, &rh.g}) {
    CsrGraph csr(*g);
    std::string path = test::MakeTempDir("parity") + "/g" +
                       std::to_string(round++) + ".csr";
    ASSERT_TRUE(graph::WriteGraphSnapshot(*g, path).ok());
    auto view = CsrSnapshotView::Load(path);
    ASSERT_TRUE(view.ok()) << view.status();
    for (double eps : {1e-6, 1e-4}) {
      PprOptions opts;
      opts.epsilon = eps;
      ExpectSamePushes(*g, csr, opts);
      ExpectSamePushes(*g, view.value(), opts);
      ExpectSamePushes(*g, BasicGraphOverlay<CsrGraph>(csr), opts);
    }
  }

  // Edited overlays: the same edits over each base give the same effective
  // graph in the same adjacency order.
  CsrGraph csr(bg.g);
  std::string path = test::MakeTempDir("parity") + "/edited.csr";
  ASSERT_TRUE(graph::WriteGraphSnapshot(bg.g, path).ok());
  auto view = CsrSnapshotView::Load(path);
  ASSERT_TRUE(view.ok()) << view.status();
  GraphOverlay on_heap(bg.g);
  BasicGraphOverlay<CsrGraph> on_csr(csr);
  BasicGraphOverlay<CsrSnapshotView> on_mmap(view.value());
  ApplyEdits(on_heap, bg);
  ApplyEdits(on_csr, bg);
  ApplyEdits(on_mmap, bg);
  PprOptions opts;
  ExpectSamePushes(on_heap, on_csr, opts);
  ExpectSamePushes(on_heap, on_mmap, opts);
}

// ---------------------------------------------------------------------------
// Workspace reuse

TEST(KernelCorrectnessTest, NoDenseResetsAfterWarmup) {
  // Sparse FIFO repairs and kFast pushes share one workspace: once its
  // arrays reached graph size, no later Begin may pay an O(n) clear.
  Rng rng(3);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 40, 4, 6);
  CsrGraph csr(rh.g);
  BasicGraphOverlay<CsrGraph> o(csr);
  PushWorkspace ws;
  ForwardPushKernelFast(csr, rh.users[0], PprOptions{}, ws);  // warm-up growth
  const size_t resets_after_warmup = ws.stats().dense_resets;
  EXPECT_GE(resets_after_warmup, 1u);
  const size_t begins_before = ws.stats().begins;

  NodeId user = rh.users[0];
  for (NodeId u : rh.users) {
    if (csr.OutDegree(u) > 0) user = u;
  }
  ASSERT_GT(csr.OutDegree(user), 0u);
  std::vector<graph::Edge> row;
  csr.ForEachOutEdge(user, [&](NodeId dst, EdgeTypeId t, double w) {
    row.push_back(graph::Edge{dst, t, w});
  });
  size_t expected_begins = 0;
  for (PushEngine engine : {PushEngine::kKernel, PushEngine::kFast}) {
    PprOptions opts;
    opts.engine = engine;
    DynamicForwardPush<BasicGraphOverlay<CsrGraph>> dyn(o, user, opts, &ws);
    if (engine == PushEngine::kFast) ++expected_begins;  // initial kFast push
    for (int i = 0; i < 20; ++i) {
      const graph::Edge& e = row[static_cast<size_t>(i) % row.size()];
      dyn.BeforeOutEdgeChange(user);
      ASSERT_TRUE(o.RemoveEdge(user, e.node, e.type).ok());
      dyn.AfterOutEdgeChange(user);
      dyn.BeforeOutEdgeChange(user);
      o.Clear();
      dyn.AfterOutEdgeChange(user);
      expected_begins += 2;  // one refine per repair
    }
    EXPECT_TRUE(
        check::ValidateForwardPushInvariant(o, user, dyn.State(), opts).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ForwardPushKernelFast(csr, rh.users[i % rh.users.size()], PprOptions{},
                          ws);
    ReversePushKernelFast(csr, rh.items[i % rh.items.size()], PprOptions{},
                          ws);
    expected_begins += 2;
  }
  // The tentpole claim: zero O(n) clears once the arrays reached size.
  EXPECT_EQ(ws.stats().dense_resets, resets_after_warmup);
  EXPECT_EQ(ws.stats().begins - begins_before, expected_begins);
  // And the sparse reset actually paid less than dense would have.
  EXPECT_LT(ws.stats().touched_total, ws.stats().begins * csr.NumNodes());
}

// ---------------------------------------------------------------------------
// Dynamic push with workspace

TEST(KernelDynamicTest, SparseRefineMatchesDenseRefine) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  HinGraph dense_g = bg.g;
  HinGraph sparse_g = bg.g;
  PushWorkspace ws;
  DynamicForwardPush<HinGraph> dense(dense_g, bg.paul, opts);
  DynamicForwardPush<HinGraph> sparse(sparse_g, bg.paul, opts, &ws);
  EXPECT_EQ(dense.Estimates(), sparse.Estimates());
  EXPECT_EQ(dense.Residuals(), sparse.Residuals());

  auto edit_both = [&](auto&& fn) {
    dense.BeforeOutEdgeChange(bg.paul);
    sparse.BeforeOutEdgeChange(bg.paul);
    fn(dense_g);
    fn(sparse_g);
    dense.AfterOutEdgeChange(bg.paul);
    sparse.AfterOutEdgeChange(bg.paul);
    // Bitwise: the sparse seed set reproduces the dense scan's schedule.
    EXPECT_EQ(dense.Estimates(), sparse.Estimates());
    EXPECT_EQ(dense.Residuals(), sparse.Residuals());
    EXPECT_NEAR(dense.AbsResidualMass(), sparse.AbsResidualMass(), 1e-12);
  };

  edit_both([&](HinGraph& g) {
    ASSERT_TRUE(g.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
  });
  edit_both([&](HinGraph& g) {
    ASSERT_TRUE(g.AddEdge(bg.paul, bg.lotr, bg.rated, 1.0).ok());
  });
  edit_both([&](HinGraph& g) {
    ASSERT_TRUE(g.AddEdge(bg.paul, bg.candide, bg.rated, 1.0).ok());
  });
}

TEST(KernelDynamicTest, OverlayEditCycleKeepsInvariantAndConverges) {
  test::BookGraph bg = test::MakeBookGraph();
  CsrGraph csr(bg.g);
  BasicGraphOverlay<CsrGraph> o(csr);
  PprOptions opts;
  PushWorkspace ws;
  DynamicForwardPush<BasicGraphOverlay<CsrGraph>> dyn(o, bg.paul, opts, &ws);
  std::vector<double> initial = dyn.Estimates();

  for (int round = 0; round < 3; ++round) {
    dyn.BeforeOutEdgeChange(bg.paul);
    ASSERT_TRUE(o.RemoveEdge(bg.paul, bg.candide, bg.rated).ok());
    dyn.AfterOutEdgeChange(bg.paul);
    EXPECT_TRUE(
        check::ValidateForwardPushInvariant(o, bg.paul, dyn.State(), opts)
            .ok());
    dyn.BeforeOutEdgeChange(bg.paul);
    o.Clear();
    dyn.AfterOutEdgeChange(bg.paul);
    EXPECT_TRUE(
        check::ValidateForwardPushInvariant(o, bg.paul, dyn.State(), opts)
            .ok());
  }
  // After edit+revert cycles the estimates drift only within push tolerance.
  for (NodeId v = 0; v < csr.NumNodes(); ++v) {
    EXPECT_NEAR(dyn.Estimates()[v], initial[v], 1e-4);
  }
}

// ---------------------------------------------------------------------------
// Incremental residual mass (satellite: ResidualMass without the O(n) scan)

TEST(ResidualMassTest, MatchesScanOnPushResults) {
  Rng rng(23);
  test::RandomHin rh = test::MakeRandomHin(rng, 6, 20, 3, 5);
  PprOptions opts;
  for (NodeId u : rh.users) {
    PushResult fwd = ForwardPush(rh.g, u, opts);
    double scan = 0.0;
    for (double r : fwd.residual) scan += r;
    EXPECT_NEAR(fwd.ResidualMass(), scan, 1e-9);
  }
  for (size_t i = 0; i < 5; ++i) {
    PushResult rev = ReversePush(rh.g, rh.items[i], opts);
    double scan = 0.0;
    for (double r : rev.residual) scan += r;
    EXPECT_NEAR(rev.ResidualMass(), scan, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Cooperative deadlines (docs/robustness.md)

TEST(KernelDeadlineTest, ExpiredDeadlineUnwindsEveryEngine) {
  Rng rng(29);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 30, 3, 6);
  CsrGraph g(rh.g);
  PprOptions opts;
  Deadline deadline(1e-12);  // effectively already expired
  deadline.Start();
  opts.deadline = &deadline;
  PushWorkspace ws;
  EXPECT_THROW(ForwardPushKernelFast(g, rh.users[0], opts, ws),
               DeadlineExceededError);
  EXPECT_THROW(ReversePushKernelFast(g, rh.items[0], opts, ws),
               DeadlineExceededError);
  EXPECT_THROW(ReversePushBatchKernel(g, {rh.items[0], rh.items[1]}, opts, ws),
               DeadlineExceededError);
  EXPECT_THROW(ForwardPush(rh.g, rh.users[0], opts), DeadlineExceededError);
  EXPECT_THROW(ReversePush(rh.g, rh.items[0], opts), DeadlineExceededError);
  EXPECT_THROW(PowerIterationPpr(rh.g, rh.users[0], opts),
               DeadlineExceededError);

  // The unwind mid-push (including mid-batched-push) leaves the workspace
  // rebuildable: the next Begin starts a fresh epoch, and a clean run on
  // the survivor matches a cold workspace bitwise.
  opts.deadline = nullptr;
  KernelResult kr = ForwardPushKernelFast(g, rh.users[0], opts, ws);
  PushResult survivor = ExportDensePush(ws, g.NumNodes(), kr.residual_mass);
  PushWorkspace cold;
  KernelResult ck = ForwardPushKernelFast(g, rh.users[0], opts, cold);
  PushResult fresh = ExportDensePush(cold, g.NumNodes(), ck.residual_mass);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(survivor.estimate[v], fresh.estimate[v]);
    EXPECT_EQ(survivor.residual[v], fresh.residual[v]);
  }
}

TEST(KernelDeadlineTest, UnexpiredAndAbsentDeadlinesChangeNothing) {
  Rng rng(29);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 30, 3, 6);
  CsrGraph g(rh.g);
  PprOptions plain;
  PprOptions guarded = plain;
  Deadline deadline(3600.0);  // generous: never expires within the test
  deadline.Start();
  guarded.deadline = &deadline;

  PushResult base_dense = ForwardPush(g, rh.users[1], plain);
  PushResult guarded_dense = ForwardPush(g, rh.users[1], guarded);
  EXPECT_EQ(guarded_dense.estimate, base_dense.estimate);
  EXPECT_EQ(guarded_dense.residual, base_dense.residual);

  PushWorkspace ws_plain;
  PushWorkspace ws_guarded;
  KernelResult baseline = ForwardPushKernelFast(g, rh.users[1], plain,
                                                ws_plain);
  KernelResult kr = ForwardPushKernelFast(g, rh.users[1], guarded,
                                          ws_guarded);
  EXPECT_EQ(kr.pushes, baseline.pushes);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(ws_guarded.Estimate(v), ws_plain.Estimate(v));
    EXPECT_EQ(ws_guarded.Residual(v), ws_plain.Residual(v));
  }
}

// ---------------------------------------------------------------------------
// kFast: schedule-free priority kernels. The correctness oracle is the
// Eq. 3 / Eq. 4 residual identity plus the termination threshold — NOT
// bitwise identity with the FIFO schedule (which kFast deliberately
// abandons for best-residual-first ordering).

TEST(FastKernelTest, ForwardSatisfiesEq3AndTermination) {
  Rng rng(47);
  test::BookGraph bg = test::MakeBookGraph();
  test::RandomHin rh = test::MakeRandomHin(rng, 8, 24, 3, 6);
  PprOptions opts;
  opts.epsilon = 1e-9;
  PushWorkspace ws;
  struct Case {
    const HinGraph* g;
    NodeId source;
  };
  std::vector<Case> cases;
  for (NodeId s = 0; s < bg.g.NumNodes(); ++s) cases.push_back({&bg.g, s});
  cases.push_back({&rh.g, rh.users[0]});
  cases.push_back({&rh.g, rh.users[3]});
  for (const Case& c : cases) {
    KernelResult kr = ForwardPushKernelFast(*c.g, c.source, opts, ws);
    PushResult fast = ExportDensePush(ws, c.g->NumNodes(), kr.residual_mass);
    EXPECT_TRUE(
        check::ValidateForwardPushInvariant(*c.g, c.source, fast, opts).ok());
    // Termination: every node is below its degree-scaled threshold.
    for (NodeId v = 0; v < c.g->NumNodes(); ++v) {
      double thresh =
          opts.epsilon * std::max<double>(c.g->OutDegree(v), 1.0);
      EXPECT_LT(fast.residual[v], thresh) << "node " << v;
      EXPECT_GE(fast.residual[v], 0.0) << "node " << v;
    }
    // And the estimates are the right numbers, not just a valid state.
    std::vector<double> pi = PowerIterationPpr(*c.g, c.source, opts);
    for (NodeId v = 0; v < c.g->NumNodes(); ++v) {
      EXPECT_NEAR(fast.estimate[v], pi[v], 1e-5) << "node " << v;
    }
  }
}

TEST(FastKernelTest, ReverseSatisfiesEq4AndTermination) {
  Rng rng(53);
  test::BookGraph bg = test::MakeBookGraph();
  test::RandomHin rh = test::MakeRandomHin(rng, 8, 24, 3, 6);
  PprOptions opts;
  opts.epsilon = 1e-9;
  PushWorkspace ws;
  struct Case {
    const HinGraph* g;
    NodeId target;
  };
  std::vector<Case> cases;
  for (NodeId t = 0; t < bg.g.NumNodes(); ++t) cases.push_back({&bg.g, t});
  cases.push_back({&rh.g, rh.items[0]});
  cases.push_back({&rh.g, rh.items[5]});
  for (const Case& c : cases) {
    KernelResult kr = ReversePushKernelFast(*c.g, c.target, opts, ws);
    PushResult fast = ExportDensePush(ws, c.g->NumNodes(), kr.residual_mass);
    EXPECT_TRUE(
        check::ValidateReversePushInvariant(*c.g, c.target, fast, opts).ok());
    for (NodeId v = 0; v < c.g->NumNodes(); ++v) {
      EXPECT_LT(std::abs(fast.residual[v]), opts.epsilon) << "node " << v;
    }
  }
}

TEST(FastKernelTest, DeterministicAcrossRunsAndWorkspaceReuse) {
  test::BookGraph bg = test::MakeBookGraph();
  PprOptions opts;
  opts.epsilon = 1e-9;
  // Same workspace reused across epochs, plus a cold workspace: all three
  // runs must be bitwise identical — the priority schedule is a pure
  // function of the graph and options, never of leftover state.
  PushWorkspace warm;
  KernelResult k1 = ForwardPushKernelFast(bg.g, bg.paul, opts, warm);
  PushResult r1 = ExportDensePush(warm, bg.g.NumNodes(), k1.residual_mass);
  KernelResult k2 = ForwardPushKernelFast(bg.g, bg.paul, opts, warm);
  PushResult r2 = ExportDensePush(warm, bg.g.NumNodes(), k2.residual_mass);
  PushWorkspace cold;
  KernelResult k3 = ForwardPushKernelFast(bg.g, bg.paul, opts, cold);
  PushResult r3 = ExportDensePush(cold, bg.g.NumNodes(), k3.residual_mass);
  EXPECT_EQ(k1.pushes, k2.pushes);
  EXPECT_EQ(k1.pushes, k3.pushes);
  for (NodeId v = 0; v < bg.g.NumNodes(); ++v) {
    EXPECT_EQ(r1.estimate[v], r2.estimate[v]);
    EXPECT_EQ(r1.residual[v], r2.residual[v]);
    EXPECT_EQ(r1.estimate[v], r3.estimate[v]);
    EXPECT_EQ(r1.residual[v], r3.residual[v]);
  }
}

TEST(FastKernelTest, BatchColumnsAgreeWithSingleTargetAndSatisfyEq4) {
  Rng rng(61);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 30, 3, 6);
  PprOptions opts;
  opts.epsilon = 1e-8;
  std::vector<NodeId> targets = {rh.items[0], rh.items[3], rh.items[7],
                                 rh.items[11]};
  PushWorkspace ws;
  BatchPushStats stats;
  std::vector<PushResult> dense;
  std::vector<SparseVector> cols =
      ReversePushBatchKernel(rh.g, targets, opts, ws, &stats, &dense);
  ASSERT_EQ(cols.size(), targets.size());
  ASSERT_EQ(dense.size(), targets.size());
  EXPECT_GT(stats.node_pops, 0u);
  EXPECT_GE(stats.column_pushes, stats.node_pops);

  PushWorkspace single_ws;
  for (size_t c = 0; c < targets.size(); ++c) {
    // Each column is a valid Eq. 4 state of its own.
    EXPECT_TRUE(
        check::ValidateReversePushInvariant(rh.g, targets[c], dense[c], opts)
            .ok())
        << "column " << c;
    // The compacted column is the dense column.
    for (NodeId s = 0; s < rh.g.NumNodes(); ++s) {
      EXPECT_EQ(cols[c].Get(s), dense[c].estimate[s]);
    }
    // Two valid epsilon-approximations of the same PPR column may differ,
    // but only within the push error bound (~epsilon/alpha per source).
    ReversePushKernelFast(rh.g, targets[c], opts, single_ws);
    for (NodeId s = 0; s < rh.g.NumNodes(); ++s) {
      EXPECT_NEAR(single_ws.Estimate(s), dense[c].estimate[s],
                  20.0 * opts.epsilon)
          << "target " << targets[c] << " source " << s;
    }
  }

  // Degenerate batch shapes.
  EXPECT_TRUE(ReversePushBatchKernel(rh.g, {}, opts, ws).empty());
  std::vector<SparseVector> one =
      ReversePushBatchKernel(rh.g, {targets[0]}, opts, ws);
  ASSERT_EQ(one.size(), 1u);
  for (NodeId s = 0; s < rh.g.NumNodes(); ++s) {
    EXPECT_NEAR(one[0].Get(s), dense[0].estimate[s], 20.0 * opts.epsilon);
  }
}

TEST(FastKernelTest, BatchColumnsAreExactAndEqualOnBothExportPaths) {
  // The batch compacts its columns in node-id order either by sweeping the
  // node ids (a push touching a large share of the graph) or by sorting
  // the touched ids. Appending isolated nodes leaves the traversal as it
  // was but pushes the touched share under the sweep cut, so both paths
  // must export the same columns: sorted, zero-free, exactly sized, and
  // equal to the dense export.
  Rng rng(67);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 30, 3, 6);
  PprOptions opts;
  opts.epsilon = 1e-6;
  std::vector<NodeId> targets = {rh.items[1], rh.items[4], rh.items[9]};
  PushWorkspace ws;
  std::vector<PushResult> dense;
  std::vector<SparseVector> swept =
      ReversePushBatchKernel(rh.g, targets, opts, ws, nullptr, &dense);
  ASSERT_GE(ws.touched().size() * 16, rh.g.NumNodes());

  HinGraph padded = rh.g;
  const size_t base_nodes = padded.NumNodes();
  while (padded.NumNodes() < 32 * base_nodes) padded.AddNode(rh.item_type);
  std::vector<SparseVector> sorted =
      ReversePushBatchKernel(padded, targets, opts, ws);
  ASSERT_LT(ws.touched().size() * 16, padded.NumNodes());

  ASSERT_EQ(swept.size(), targets.size());
  ASSERT_EQ(sorted.size(), targets.size());
  for (size_t c = 0; c < targets.size(); ++c) {
    const SparseVector& col = swept[c];
    EXPECT_EQ(col.ids().capacity(), col.ids().size()) << "column " << c;
    EXPECT_EQ(col.values().capacity(), col.values().size()) << "column " << c;
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_NE(col.values()[i], 0.0);
      if (i > 0) {
        EXPECT_LT(col.ids()[i - 1], col.ids()[i]);
      }
    }
    for (NodeId s = 0; s < base_nodes; ++s) {
      EXPECT_EQ(col.Get(s), dense[c].estimate[s]);
    }
    EXPECT_EQ(sorted[c].ids(), col.ids()) << "column " << c;
    EXPECT_EQ(sorted[c].values(), col.values()) << "column " << c;
    EXPECT_EQ(sorted[c].ids().capacity(), sorted[c].ids().size());
  }
}

// ---------------------------------------------------------------------------
// Priority frontier unit tests (PushPriorityView): round ordering,
// promotion, cost normalization, and the sub-epsilon floor shift.

TEST(PriorityFrontierTest, DrainsHighestBucketFirst) {
  PushWorkspace ws;
  ws.Begin(16);
  PushPriorityView pq(ws, /*epsilon=*/1e-9);
  pq.Push(1, 1e-6, 1.0);
  pq.Push(2, 1.0, 1.0);
  pq.Push(3, 1e-3, 1.0);
  EXPECT_EQ(pq.Pop(), 2u);
  EXPECT_EQ(pq.Pop(), 3u);
  EXPECT_EQ(pq.Pop(), 1u);
  EXPECT_EQ(pq.Pop(), graph::kInvalidNode);
}

TEST(PriorityFrontierTest, PromotionJumpsTheRoundQueue) {
  PushWorkspace ws;
  ws.Begin(16);
  PushPriorityView pq(ws, 1e-9);
  pq.Push(1, 1e-6, 1.0);
  pq.Push(2, 1.0, 1.0);
  EXPECT_EQ(pq.Pop(), 2u);  // round tau is now ~1.0's bucket floor
  // A key at/above tau enters the live ring directly instead of waiting
  // for its bucket's round.
  pq.Push(3, 2.0, 1.0);
  EXPECT_EQ(pq.Pop(), 3u);
  EXPECT_EQ(pq.Pop(), 1u);
  EXPECT_EQ(pq.Pop(), graph::kInvalidNode);
}

TEST(PriorityFrontierTest, PromotedNodeLeavesStaleBucketEntryBehind) {
  PushWorkspace ws;
  ws.Begin(16);
  PushPriorityView pq(ws, 1e-9);
  pq.Push(1, 1e-6, 1.0);  // filed low
  pq.Push(2, 1.0, 1.0);
  EXPECT_EQ(pq.Pop(), 2u);
  pq.Push(1, 2.0, 1.0);  // promoted: ring now, bucket entry goes stale
  EXPECT_EQ(pq.Pop(), 1u);
  // The stale low-bucket entry must not produce a second pop of node 1.
  EXPECT_EQ(pq.Pop(), graph::kInvalidNode);
}

TEST(PriorityFrontierTest, CostNormalizationOrdersByMagnitudePerCost) {
  PushWorkspace ws;
  ws.Begin(16);
  PushPriorityView pq(ws, 1e-9);
  // Node 1 has the larger raw magnitude but a hub-sized cost; its key
  // 1.0/1024 loses to node 2's 0.5/1.
  pq.Push(1, 1.0, 1024.0);
  pq.Push(2, 0.5, 1.0);
  EXPECT_EQ(pq.Pop(), 2u);
  EXPECT_EQ(pq.Pop(), 1u);
}

TEST(PriorityFrontierTest, SubEpsilonKeysStillDiscriminate) {
  // kPriorityFloorShift binades below epsilon stay ordered — dynamic
  // repair seeds high-degree nodes whose keys sit below epsilon, and they
  // must still drain best-first rather than collapse into one bucket.
  constexpr double kEps = 1e-9;
  PushWorkspace ws;
  ws.Begin(16);
  PushPriorityView pq(ws, kEps);
  pq.Push(1, kEps / 16.0, 1.0);
  pq.Push(2, kEps / 4.0, 1.0);
  pq.Push(3, kEps * std::pow(2.0, -20), 1.0);  // below the floor: clamps
  EXPECT_EQ(pq.Pop(), 2u);
  EXPECT_EQ(pq.Pop(), 1u);
  EXPECT_EQ(pq.Pop(), 3u);  // clamped, but never lost
  EXPECT_EQ(pq.Pop(), graph::kInvalidNode);
}

TEST(PriorityFrontierTest, PopClearsStateSoNodesCanReenter) {
  PushWorkspace ws;
  ws.Begin(16);
  PushPriorityView pq(ws, 1e-9);
  pq.Push(1, 1.0, 1.0);
  EXPECT_EQ(pq.Pop(), 1u);
  // Popped nodes shed both the ring flag and the defer flag, so a later
  // relaxation can re-file them.
  pq.Push(1, 1e-4, 1.0);
  EXPECT_EQ(pq.Pop(), 1u);
  EXPECT_EQ(pq.Pop(), graph::kInvalidNode);
}

}  // namespace
}  // namespace emigre::ppr
