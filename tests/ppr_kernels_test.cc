#include "ppr/workspace.h"

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

/// A user of `g` with at least one out-edge, and that out-row.
NodeId UserWithRow(const test::RandomHin& rh, const CsrGraph& g,
                   std::vector<graph::Edge>* row) {
  for (NodeId u : rh.users) {
    if (g.OutDegree(u) == 0) continue;
    g.ForEachOutEdge(u, [&](NodeId dst, EdgeTypeId t, double w) {
      row->push_back(graph::Edge{dst, t, w});
    });
    return u;
  }
  return graph::kInvalidNode;
}


TEST(KernelCorrectnessTest, NoDenseResetsAfterWarmup) {
  // Sparse FIFO repairs share one workspace: once its arrays reached graph
  // size, no later Begin may pay an O(n) clear.
  Rng rng(3);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 40, 4, 6);
  CsrGraph csr(rh.g);
  BasicGraphOverlay<CsrGraph> o(csr);
  PushWorkspace ws;
  ws.Begin(csr.NumNodes());  // warm-up growth
  const size_t resets_after_warmup = ws.stats().dense_resets;
  EXPECT_GE(resets_after_warmup, 1u);
  const size_t begins_before = ws.stats().begins;

  std::vector<graph::Edge> row;
  NodeId user = UserWithRow(rh, csr, &row);
  ASSERT_NE(user, graph::kInvalidNode);
  size_t expected_begins = 0;
  PprOptions opts;
  // Two instances in turn, as a tester's rebuild reuses its workspace.
  for (int instance = 0; instance < 2; ++instance) {
    DynamicForwardPush<BasicGraphOverlay<CsrGraph>> dyn(o, user, opts, &ws);
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
  // Zero O(n) clears once the arrays reached size.
  EXPECT_EQ(ws.stats().dense_resets, resets_after_warmup);
  EXPECT_EQ(ws.stats().begins - begins_before, expected_begins);
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
  PprOptions opts;
  Deadline deadline(1e-12);  // effectively already expired
  deadline.Start();
  opts.deadline = &deadline;
  EXPECT_THROW(ForwardPush(rh.g, rh.users[0], opts), DeadlineExceededError);
  EXPECT_THROW(ReversePush(rh.g, rh.items[0], opts), DeadlineExceededError);
  EXPECT_THROW(PowerIterationPpr(rh.g, rh.users[0], opts),
               DeadlineExceededError);
}

TEST(KernelDeadlineTest, ExpiredDeadlineUnwindsRepairUnderBothRefines) {
  Rng rng(29);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 30, 3, 6);
  CsrGraph csr(rh.g);
  std::vector<graph::Edge> row;
  NodeId user = UserWithRow(rh, csr, &row);
  ASSERT_NE(user, graph::kInvalidNode);
  BasicGraphOverlay<CsrGraph> o(csr);
  Deadline deadline;  // unlimited while the initial push runs
  PprOptions opts;
  opts.deadline = &deadline;

  // Dense reference refine (no workspace), then the sparse one.
  PushWorkspace survivor;
  for (PushWorkspace* ws : {static_cast<PushWorkspace*>(nullptr), &survivor}) {
    deadline = Deadline();
    o.Clear();
    DynamicForwardPush<BasicGraphOverlay<CsrGraph>> dyn(o, user, opts, ws);
    deadline = Deadline(1e-12);  // expires before the repair's first push
    deadline.Start();
    dyn.BeforeOutEdgeChange(user);
    ASSERT_TRUE(o.RemoveEdge(user, row[0].node, row[0].type).ok());
    EXPECT_THROW(dyn.AfterOutEdgeChange(user), DeadlineExceededError)
        << (ws == nullptr ? "dense" : "sparse") << " refine";
  }

  // The unwind left the survivor's ring mid-refine; the next Begin starts
  // a fresh epoch, so a repair on it matches one on a cold workspace
  // bitwise.
  deadline = Deadline();
  PushWorkspace cold;
  auto repair = [&](PushWorkspace* ws) {
    o.Clear();
    DynamicForwardPush<BasicGraphOverlay<CsrGraph>> dyn(o, user, opts, ws);
    dyn.BeforeOutEdgeChange(user);
    EXPECT_TRUE(o.RemoveEdge(user, row[0].node, row[0].type).ok());
    dyn.AfterOutEdgeChange(user);
    return dyn.State();
  };
  PushResult after_unwind = repair(&survivor);
  PushResult fresh = repair(&cold);
  EXPECT_EQ(after_unwind.estimate, fresh.estimate);
  EXPECT_EQ(after_unwind.residual, fresh.residual);
  EXPECT_EQ(after_unwind.residual_mass, fresh.residual_mass);
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
  PushResult base_rev = ReversePush(g, rh.items[1], plain);
  PushResult guarded_rev = ReversePush(g, rh.items[1], guarded);
  EXPECT_EQ(guarded_rev.estimate, base_rev.estimate);
  EXPECT_EQ(guarded_rev.residual, base_rev.residual);

  // A workspace-backed repair polls the deadline in its refine loop.
  std::vector<graph::Edge> row;
  NodeId user = UserWithRow(rh, g, &row);
  ASSERT_NE(user, graph::kInvalidNode);
  auto repair = [&](const PprOptions& opts) {
    BasicGraphOverlay<CsrGraph> o(g);
    PushWorkspace ws;
    DynamicForwardPush<BasicGraphOverlay<CsrGraph>> dyn(o, user, opts, &ws);
    dyn.BeforeOutEdgeChange(user);
    EXPECT_TRUE(o.RemoveEdge(user, row[0].node, row[0].type).ok());
    dyn.AfterOutEdgeChange(user);
    return dyn.State();
  };
  PushResult base_repair = repair(plain);
  PushResult guarded_repair = repair(guarded);
  EXPECT_EQ(guarded_repair.estimate, base_repair.estimate);
  EXPECT_EQ(guarded_repair.residual, base_repair.residual);
}

}  // namespace
}  // namespace emigre::ppr
