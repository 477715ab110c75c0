#include "ppr/sparse_vector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/csr_snapshot.h"
#include "graph/overlay.h"
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
    PushResult c = ReversePush(ref, v, opts);
    PushResult d = ReversePush(g, v, opts);
    EXPECT_EQ(c.estimate, d.estimate) << "reverse target " << v;
    EXPECT_EQ(c.residual, d.residual) << "reverse target " << v;
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
}

}  // namespace
}  // namespace emigre::ppr
