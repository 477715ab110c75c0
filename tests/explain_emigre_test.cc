#include "explain/emigre.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "explain/tester.h"
#include "obs/metrics.h"
#include "recsys/recommender.h"
#include "test_util.h"

namespace emigre::explain {
namespace {

using graph::NodeId;

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

class EmigreFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bg_ = test::MakeBookGraph();
    opts_ = test::MakeBookOptions(bg_);
    engine_ = std::make_unique<Emigre>(bg_.g, opts_);
    ranking_ = engine_->CurrentRanking(bg_.paul);
    rec_ = ranking_.Top();
  }

  test::BookGraph bg_;
  EmigreOptions opts_;
  std::unique_ptr<Emigre> engine_;
  recsys::RecommendationList ranking_;
  NodeId rec_;
};

TEST_F(EmigreFacadeTest, RejectsNonItemWhyNot) {
  Result<Explanation> r =
      engine_->Explain(WhyNotQuestion{bg_.paul, bg_.fantasy}, Mode::kAdd,
                       Heuristic::kIncremental);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EmigreFacadeTest, RejectsInteractedItem) {
  // Paul rated Candide: per Definition 4.1 it cannot be a Why-Not item.
  Result<Explanation> r =
      engine_->Explain(WhyNotQuestion{bg_.paul, bg_.candide}, Mode::kAdd,
                       Heuristic::kIncremental);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EmigreFacadeTest, RejectsCurrentRecommendation) {
  Result<Explanation> r = engine_->Explain(WhyNotQuestion{bg_.paul, rec_},
                                           Mode::kAdd,
                                           Heuristic::kIncremental);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(EmigreFacadeTest, RejectsInvalidNodes) {
  EXPECT_TRUE(engine_
                  ->Explain(WhyNotQuestion{999, bg_.lotr}, Mode::kAdd,
                            Heuristic::kIncremental)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine_
                  ->Explain(WhyNotQuestion{bg_.paul, 999}, Mode::kAdd,
                            Heuristic::kIncremental)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EmigreFacadeTest, ExplainAutoFindsSomeExplanation) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  Emigre engine(f.g, f.opts);
  Result<Explanation> r = engine.ExplainAuto(WhyNotQuestion{f.user, f.wni});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->found);
  ExplanationTester checker(f.g, f.user, f.wni, f.opts);
  EXPECT_TRUE(checker.Test(r->edges, r->mode));
}

TEST_F(EmigreFacadeTest, ExplainAutoPrefersRemoveWhenItWorks) {
  NodeId wni = ranking_.at(1).item;
  Result<Explanation> remove = engine_->Explain(
      WhyNotQuestion{bg_.paul, wni}, Mode::kRemove, Heuristic::kIncremental);
  ASSERT_TRUE(remove.ok());
  Result<Explanation> aut = engine_->ExplainAuto(WhyNotQuestion{bg_.paul, wni});
  ASSERT_TRUE(aut.ok());
  if (remove->found) {
    EXPECT_EQ(aut->mode, Mode::kRemove);
  } else {
    EXPECT_EQ(aut->mode, Mode::kAdd);
  }
}

TEST_F(EmigreFacadeTest, ExplainAutoSkipsRemoveForActionlessUser) {
  NodeId newbie = bg_.g.AddNode(bg_.user_type, "Newbie");
  Emigre engine(bg_.g, opts_);
  Result<Explanation> r = engine.ExplainAuto(WhyNotQuestion{newbie, bg_.lotr});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->mode, Mode::kAdd);
}

TEST_F(EmigreFacadeTest, CurrentRankingMatchesRecommender) {
  recsys::RecommendationList direct =
      recsys::RankItems(bg_.g, bg_.paul, opts_.rec);
  ASSERT_EQ(ranking_.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(ranking_.at(i).item, direct.at(i).item);
  }
}

TEST_F(EmigreFacadeTest, RepeatedRankingOfOneUserIsReused) {
  // The fixture ranked Paul last: ranking him again runs no power iteration
  // and returns an equal list.
  const uint64_t power_calls = CounterValue("ppr.power.calls");
  const uint64_t reused = CounterValue("explain.ranking.reused");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(engine_->CurrentRanking(bg_.paul).items(), ranking_.items());
  }
  EXPECT_EQ(CounterValue("ppr.power.calls"), power_calls);
  EXPECT_EQ(CounterValue("explain.ranking.reused"), reused + 3);

  // A question about Paul ranks him through the same slot.
  NodeId wni = ranking_.at(1).item;
  ASSERT_TRUE(engine_
                  ->Explain(WhyNotQuestion{bg_.paul, wni}, Mode::kAdd,
                            Heuristic::kIncremental)
                  .ok());
  EXPECT_EQ(CounterValue("explain.ranking.reused"), reused + 4);
}

TEST_F(EmigreFacadeTest, RankingAnotherUserIsRecomputed) {
  const recsys::RecommendationList alice_direct =
      recsys::RankItems(bg_.g, bg_.alice, opts_.rec);
  const uint64_t power_calls = CounterValue("ppr.power.calls");
  const uint64_t reused = CounterValue("explain.ranking.reused");
  EXPECT_EQ(engine_->CurrentRanking(bg_.alice).items(), alice_direct.items());
  EXPECT_EQ(CounterValue("ppr.power.calls"), power_calls + 1);
  // The slot now holds Alice, so Paul is recomputed, to an equal list.
  EXPECT_EQ(engine_->CurrentRanking(bg_.paul).items(), ranking_.items());
  EXPECT_EQ(CounterValue("ppr.power.calls"), power_calls + 2);
  EXPECT_EQ(CounterValue("explain.ranking.reused"), reused);
}

TEST_F(EmigreFacadeTest, ConcurrentRankingsOfTwoUsersAreExact) {
  // Four threads alternate two users through the one slot: every caller
  // gets its own user's ranking, whoever filled the slot last.
  const NodeId users[2] = {bg_.paul, bg_.alice};
  const recsys::RecommendationList want[2] = {
      recsys::RankItems(bg_.g, users[0], opts_.rec),
      recsys::RankItems(bg_.g, users[1], opts_.rec)};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const int which = (i + t) % 2;
        if (engine_->CurrentRanking(users[which]).items() !=
            want[which].items()) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(EmigreFacadeTest, OriginalRecRecordedOnExplanations) {
  NodeId wni = ranking_.at(1).item;
  for (Mode mode : {Mode::kRemove, Mode::kAdd}) {
    Result<Explanation> r = engine_->Explain(WhyNotQuestion{bg_.paul, wni},
                                             mode, Heuristic::kIncremental);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->original_rec, rec_);
  }
}

TEST(ExplanationNamesTest, EnumsHaveStableNames) {
  EXPECT_EQ(ModeName(Mode::kAdd), "add");
  EXPECT_EQ(ModeName(Mode::kRemove), "remove");
  EXPECT_EQ(HeuristicName(Heuristic::kIncremental), "Incremental");
  EXPECT_EQ(HeuristicName(Heuristic::kPowerset), "Powerset");
  EXPECT_EQ(HeuristicName(Heuristic::kExhaustive), "ex");
  EXPECT_EQ(HeuristicName(Heuristic::kExhaustiveDirect), "ex_direct");
  EXPECT_EQ(HeuristicName(Heuristic::kBruteForce), "brute");
  EXPECT_EQ(FailureReasonName(FailureReason::kColdStart), "cold-start");
  EXPECT_EQ(FailureReasonName(FailureReason::kPopularItem), "popular-item");
}

}  // namespace
}  // namespace emigre::explain
