#include "explain/parallel_tester.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "explain/emigre.h"
#include "explain/tester.h"
#include "ppr/options.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::explain {
namespace {

using graph::EdgeRef;
using graph::NodeId;

// ---------------------------------------------------------------------------
// Determinism contract on a stub tester
// ---------------------------------------------------------------------------

/// Thread-safe stub: a candidate passes iff its first edge's dst is in the
/// accept set. Lets the tests pick exactly which batch indices succeed.
class StubTester : public TesterInterface {
 public:
  explicit StubTester(std::vector<NodeId> accept_dsts)
      : accept_(std::move(accept_dsts)) {}

  bool Test(const std::vector<EdgeRef>& edits, Mode,
            NodeId* new_rec = nullptr) override {
    tests_.fetch_add(1, std::memory_order_relaxed);
    bool pass = false;
    for (NodeId a : accept_) {
      if (!edits.empty() && edits.front().dst == a) pass = true;
    }
    if (new_rec != nullptr) {
      *new_rec = pass && !edits.empty() ? edits.front().dst
                                        : graph::kInvalidNode;
    }
    return pass;
  }

  bool TestMixed(const std::vector<ModedEdit>& edits,
                 NodeId* new_rec = nullptr) override {
    std::vector<EdgeRef> plain;
    for (const ModedEdit& e : edits) plain.push_back(e.edge);
    return Test(plain, Mode::kRemove, new_rec);
  }

  size_t num_tests() const override {
    return tests_.load(std::memory_order_relaxed);
  }
  bool IsExact() const override { return true; }

 private:
  std::vector<NodeId> accept_;
  std::atomic<size_t> tests_{0};
};

std::vector<std::vector<EdgeRef>> MakeBatch(size_t n) {
  std::vector<std::vector<EdgeRef>> batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back({EdgeRef{0, static_cast<NodeId>(i + 100), 0}});
  }
  return batch;
}

TEST(ParallelTesterContractTest, AcceptsLowestIndexSuccess) {
  // Candidates 2 and 5 both pass; every thread count must accept 2 — the
  // candidate a serial scan reaches first — even when a worker finishes
  // candidate 5 earlier.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelTester tester(
        [] { return std::make_unique<StubTester>(
                 std::vector<NodeId>{102, 105}); },
        threads);
    auto verdict = tester.TestBatch(MakeBatch(16), Mode::kRemove);
    EXPECT_TRUE(verdict.Found()) << threads << " threads";
    EXPECT_EQ(verdict.accepted, 2u) << threads << " threads";
    EXPECT_EQ(verdict.new_rec, 102u) << threads << " threads";
  }
}

TEST(ParallelTesterContractTest, NoSuccessReportsNoIndex) {
  for (size_t threads : {1u, 4u}) {
    ParallelTester tester(
        [] { return std::make_unique<StubTester>(std::vector<NodeId>{}); },
        threads);
    auto verdict = tester.TestBatch(MakeBatch(10), Mode::kRemove);
    EXPECT_FALSE(verdict.Found());
    EXPECT_FALSE(verdict.BudgetHit());
    EXPECT_EQ(verdict.accepted, TesterInterface::kNoIndex);
    EXPECT_EQ(verdict.tested, 10u);
    EXPECT_EQ(tester.num_tests(), 10u);
  }
}

TEST(ParallelTesterContractTest, TestCapBudgetIsSerialEquivalent) {
  // Cap of 6 TESTs; the only success sits at index 9. A serial scan stops
  // at candidate 6 with the budget — the parallel run must NOT report the
  // index-9 success it may well have executed before the boundary settled.
  for (size_t threads : {1u, 2u, 8u}) {
    ParallelTester tester(
        [] { return std::make_unique<StubTester>(
                 std::vector<NodeId>{109}); },
        threads);
    auto verdict = tester.TestBatch(
        MakeBatch(12), Mode::kRemove,
        [](size_t tests_used) { return tests_used >= 6; });
    EXPECT_TRUE(verdict.BudgetHit()) << threads << " threads";
    EXPECT_FALSE(verdict.Found()) << threads << " threads";
    EXPECT_EQ(verdict.budget_index, 6u) << threads << " threads";
  }
}

TEST(ParallelTesterContractTest, SuccessBelowBudgetBoundaryStillWins) {
  // Success at index 1, cap fires from index 4 on: serial reaches the
  // success first, so must parallel.
  for (size_t threads : {1u, 4u}) {
    ParallelTester tester(
        [] { return std::make_unique<StubTester>(
                 std::vector<NodeId>{101}); },
        threads);
    auto verdict = tester.TestBatch(
        MakeBatch(12), Mode::kRemove,
        [](size_t tests_used) { return tests_used >= 4; });
    EXPECT_TRUE(verdict.Found()) << threads << " threads";
    EXPECT_EQ(verdict.accepted, 1u) << threads << " threads";
    EXPECT_FALSE(verdict.BudgetHit()) << threads << " threads";
  }
}

TEST(ParallelTesterContractTest, EmptyBatchIsANoop) {
  ParallelTester tester(
      [] { return std::make_unique<StubTester>(std::vector<NodeId>{}); }, 4);
  auto verdict = tester.TestBatch({}, Mode::kRemove);
  EXPECT_FALSE(verdict.Found());
  EXPECT_EQ(verdict.tested, 0u);
  EXPECT_EQ(tester.num_tests(), 0u);
}

TEST(ParallelTesterContractTest, NumTestsAggregatesAcrossWorkersAndModes) {
  ParallelTester tester(
      [] { return std::make_unique<StubTester>(std::vector<NodeId>{}); }, 4);
  tester.TestBatch(MakeBatch(20), Mode::kRemove);
  EXPECT_EQ(tester.num_tests(), 20u);
  // Serial single-candidate calls count into the same aggregate.
  NodeId rec = graph::kInvalidNode;
  tester.Test({EdgeRef{0, 100, 0}}, Mode::kRemove, &rec);
  EXPECT_EQ(tester.num_tests(), 21u);
}

TEST(ParallelTesterContractTest, CancellationSkipsWorkAfterEarlySuccess) {
  // Index 0 succeeds in a large batch: across tested + cancelled every
  // candidate is accounted for, and the accepted index stays 0.
  ParallelTester tester(
      [] { return std::make_unique<StubTester>(
               std::vector<NodeId>{100}); },
      4);
  auto batch = MakeBatch(64);
  auto verdict = tester.TestBatch(batch, Mode::kRemove);
  EXPECT_EQ(verdict.accepted, 0u);
  EXPECT_EQ(verdict.tested + verdict.cancelled, batch.size());
}

// ---------------------------------------------------------------------------
// The default serial TestBatch on the real testers
// ---------------------------------------------------------------------------

TEST(TestBatchDefaultTest, MatchesPerCandidateLoopOnExactTester) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  Emigre engine(f.g, f.opts);
  NodeId rec = engine.CurrentRanking(f.user).Top();

  // Candidate batch: every allowed out-edge of the user as a singleton.
  std::vector<std::vector<EdgeRef>> batch;
  for (const graph::Edge& e : f.g.OutEdges(f.user)) {
    if (!f.opts.IsAllowedEdgeType(e.type)) continue;
    batch.push_back({EdgeRef{f.user, e.node, e.type}});
  }
  ASSERT_FALSE(batch.empty());
  (void)rec;

  ExplanationTester loop_tester(f.g, f.user, f.wni, f.opts);
  size_t loop_accepted = TesterInterface::kNoIndex;
  NodeId loop_rec = graph::kInvalidNode;
  for (size_t i = 0; i < batch.size(); ++i) {
    NodeId nr = graph::kInvalidNode;
    if (loop_tester.Test(batch[i], Mode::kRemove, &nr)) {
      loop_accepted = i;
      loop_rec = nr;
      break;
    }
  }

  ExplanationTester batch_tester(f.g, f.user, f.wni, f.opts);
  auto verdict = batch_tester.TestBatch(batch, Mode::kRemove);
  EXPECT_EQ(verdict.accepted, loop_accepted);
  if (verdict.Found()) {
    EXPECT_EQ(verdict.new_rec, loop_rec);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: parallel == serial on the Emigre facade
// ---------------------------------------------------------------------------

struct EngineCase {
  Mode mode;
  Heuristic heuristic;
};

void ExpectIdenticalExplanations(const graph::HinGraph& g,
                                 const EmigreOptions& base_opts, NodeId user,
                                 NodeId wni) {
  const EngineCase cases[] = {
      {Mode::kRemove, Heuristic::kExhaustive},
      {Mode::kRemove, Heuristic::kPowerset},
      {Mode::kRemove, Heuristic::kBruteForce},
      {Mode::kAdd, Heuristic::kExhaustive},
      {Mode::kAdd, Heuristic::kPowerset},
  };
  // Whole Explanations, work counters included, must agree across thread
  // counts.
  const size_t thread_counts[] = {1, 4};
  std::vector<std::unique_ptr<Emigre>> engines;
  for (size_t threads : thread_counts) {
    EmigreOptions opts = base_opts;
    opts.test_threads = threads;
    engines.push_back(std::make_unique<Emigre>(g, opts));
  }
  for (const EngineCase& c : cases) {
    auto a = engines[0]->Explain(WhyNotQuestion{user, wni}, c.mode,
                                 c.heuristic);
    for (size_t i = 1; i < engines.size(); ++i) {
      auto b = engines[i]->Explain(WhyNotQuestion{user, wni}, c.mode,
                                   c.heuristic);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) continue;
      SCOPED_TRACE(testing::Message()
                   << "mode=" << static_cast<int>(c.mode) << " heuristic="
                   << static_cast<int>(c.heuristic) << " threads="
                   << thread_counts[i] << " user=" << user << " wni=" << wni);
      EXPECT_EQ(a->found, b->found);
      EXPECT_EQ(a->verified, b->verified);
      EXPECT_EQ(a->edges, b->edges);
      EXPECT_EQ(a->new_rec, b->new_rec);
      EXPECT_EQ(a->failure, b->failure);
      EXPECT_EQ(a->candidates_considered, b->candidates_considered);
    }
  }
}

TEST(ParallelEngineTest, CraftedCasesMatchSerial) {
  test::ScenarioFixture remove_case = test::MakeRemoveFriendlyCase();
  ExpectIdenticalExplanations(remove_case.g, remove_case.opts,
                              remove_case.user, remove_case.wni);
  test::ScenarioFixture add_case = test::MakeAddFriendlyCase();
  ExpectIdenticalExplanations(add_case.g, add_case.opts, add_case.user,
                              add_case.wni);
}

TEST(ParallelEngineTest, RandomHinsMatchSerial) {
  for (uint64_t seed : {11u, 29u}) {
    Rng rng(seed);
    test::RandomHin rh = test::MakeRandomHin(rng, 5, 18, 3, 5);
    EmigreOptions opts = test::MakeRandomHinOptions(rh);
    // One valid question per graph: the user's second-ranked item.
    Emigre probe(rh.g, opts);
    for (NodeId user : rh.users) {
      auto ranking = probe.CurrentRanking(user);
      if (ranking.size() < 2) continue;
      NodeId wni = ranking.at(1).item;
      if (!probe.ValidateQuestion(WhyNotQuestion{user, wni}, ranking.Top())
               .ok()) {
        continue;
      }
      ExpectIdenticalExplanations(rh.g, opts, user, wni);
      break;
    }
  }
}

#if GTEST_HAS_DEATH_TEST
// Regression for the one-search-at-a-time contract: a batch recursing into
// TestBatch (here via a tester that calls back into its owner) must abort
// via EMIGRE_CHECK instead of silently corrupting the per-slot testers.
TEST(ParallelTesterContractDeathTest, ReentrantTestBatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";

  class ReentrantTester : public TesterInterface {
   public:
    bool Test(const std::vector<EdgeRef>& edits, Mode mode,
              NodeId* /*new_rec*/) override {
      if (owner != nullptr) {
        (void)owner->TestBatch({edits}, mode);  // illegal: batch in flight
      }
      return false;
    }
    bool TestMixed(const std::vector<ModedEdit>&, NodeId*) override {
      return false;
    }
    size_t num_tests() const override { return 0; }
    bool IsExact() const override { return true; }

    ParallelTester* owner = nullptr;
  };

  ReentrantTester* inner = nullptr;
  // num_threads = 1: the whole cycle runs on this thread, so the recursion
  // is deterministic and the death-test child has no sibling threads.
  ParallelTester pt(
      [&inner]() {
        auto t = std::make_unique<ReentrantTester>();
        inner = t.get();
        return t;
      },
      1);
  ASSERT_NE(inner, nullptr);
  inner->owner = &pt;
  std::vector<std::vector<EdgeRef>> batch{{EdgeRef{0, 1, 0}}};
  EXPECT_DEATH((void)pt.TestBatch(batch, Mode::kRemove),
               "concurrent TestBatch");
}
#endif  // GTEST_HAS_DEATH_TEST

TEST(ParallelEngineTest, ZeroMeansHardwareThreads) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  EmigreOptions opts = f.opts;
  opts.test_threads = 0;  // hardware concurrency
  Emigre engine(f.g, opts);
  auto r = engine.Explain(WhyNotQuestion{f.user, f.wni}, Mode::kRemove,
                          Heuristic::kExhaustive);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->found);
}

}  // namespace
}  // namespace emigre::explain
