#include <gtest/gtest.h>

#include <fstream>
#include <utility>

#include "eval/methods.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "explain/emigre.h"
#include "recsys/recommender.h"
#include "test_util.h"
#include "util/rng.h"

namespace emigre::eval {
namespace {

using graph::NodeId;

// ---------------------------------------------------------------------------
// Scenario generation
// ---------------------------------------------------------------------------

TEST(ScenarioTest, EmitsValidWhyNotQuestions) {
  Rng rng(17);
  test::RandomHin rh = test::MakeRandomHin(rng, 6, 25, 3, 6);
  explain::EmigreOptions opts = test::MakeRandomHinOptions(rh);

  Result<std::vector<Scenario>> scenarios =
      GenerateScenarios(rh.g, rh.users, opts, 5);
  ASSERT_TRUE(scenarios.ok()) << scenarios.status();
  EXPECT_FALSE(scenarios->empty());

  explain::Emigre engine(rh.g, opts);
  for (const Scenario& s : *scenarios) {
    // Every scenario satisfies Definition 4.1.
    EXPECT_TRUE(engine.ValidateQuestion(
                          explain::WhyNotQuestion{s.user, s.wni},
                          s.original_rec)
                    .ok());
    EXPECT_GE(s.wni_rank, 1u);
    EXPECT_LT(s.wni_rank, 5u);
    // original_rec matches the recommender.
    EXPECT_EQ(s.original_rec, recsys::Recommend(rh.g, s.user, opts.rec));
  }
}

TEST(ScenarioTest, MaxPerUserTruncates) {
  Rng rng(18);
  test::RandomHin rh = test::MakeRandomHin(rng, 4, 25, 3, 6);
  explain::EmigreOptions opts = test::MakeRandomHinOptions(rh);
  Result<std::vector<Scenario>> scenarios =
      GenerateScenarios(rh.g, rh.users, opts, 10, 2);
  ASSERT_TRUE(scenarios.ok());
  EXPECT_LE(scenarios->size(), rh.users.size() * 2);
}

TEST(ScenarioTest, RejectsBadInputs) {
  test::BookGraph bg = test::MakeBookGraph();
  explain::EmigreOptions opts = test::MakeBookOptions(bg);
  EXPECT_TRUE(
      GenerateScenarios(bg.g, {bg.paul}, opts, 1).status().IsInvalidArgument());
  EXPECT_TRUE(
      GenerateScenarios(bg.g, {999}, opts, 5).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Method registry
// ---------------------------------------------------------------------------

TEST(MethodsTest, PaperMethodsMatchSection62) {
  std::vector<MethodSpec> methods = PaperMethods();
  ASSERT_EQ(methods.size(), 8u);
  EXPECT_EQ(methods[0].name, "add_Incremental");
  EXPECT_EQ(methods[7].name, "remove_brute");
  EXPECT_EQ(RemoveMethods().size(), 5u);
  EXPECT_EQ(AddMethods().size(), 3u);
  EXPECT_NE(FindMethod(methods, "remove_ex"), nullptr);
  EXPECT_EQ(FindMethod(methods, "nope"), nullptr);
}

// ---------------------------------------------------------------------------
// Runner + metrics on a small real experiment
// ---------------------------------------------------------------------------

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    rh_ = test::MakeRandomHin(rng, 6, 20, 3, 5);
    opts_ = test::MakeRandomHinOptions(rh_);
    Result<std::vector<Scenario>> scenarios =
        GenerateScenarios(rh_.g, rh_.users, opts_, 4, 2);
    ASSERT_TRUE(scenarios.ok());
    scenarios_ = std::move(scenarios).value();
    ASSERT_FALSE(scenarios_.empty());
  }

  test::RandomHin rh_;
  explain::EmigreOptions opts_;
  std::vector<Scenario> scenarios_;
};

TEST_F(RunnerTest, ProducesOneRecordPerMethodScenarioPair) {
  std::vector<MethodSpec> methods = PaperMethods();
  Result<ExperimentResult> result =
      RunExperiment(rh_.g, scenarios_, methods, opts_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->records.size(), scenarios_.size() * methods.size());
  for (const ScenarioRecord& r : result->records) {
    EXPECT_FALSE(r.method.empty());
    EXPECT_GE(r.seconds, 0.0);
    if (r.correct) {
      EXPECT_TRUE(r.returned);
    }
    if (r.returned) {
      EXPECT_GT(r.explanation_size, 0u);
    }
  }
}

TEST_F(RunnerTest, ParallelMatchesSerialOutcomes) {
  std::vector<MethodSpec> methods = {PaperMethods()[0], PaperMethods()[3]};
  Result<ExperimentResult> serial =
      RunExperiment(rh_.g, scenarios_, methods, opts_, RunnerOptions{});
  RunnerOptions parallel_opts;
  parallel_opts.num_threads = 4;
  Result<ExperimentResult> parallel =
      RunExperiment(rh_.g, scenarios_, methods, opts_, parallel_opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->records.size(), parallel->records.size());
  for (size_t i = 0; i < serial->records.size(); ++i) {
    EXPECT_EQ(serial->records[i].correct, parallel->records[i].correct);
    EXPECT_EQ(serial->records[i].explanation_size,
              parallel->records[i].explanation_size);
  }
}

TEST_F(RunnerTest, VerifiedMethodsNeverReturnIncorrect) {
  // All non-direct methods verify internally: returned implies correct.
  std::vector<MethodSpec> methods = PaperMethods();
  Result<ExperimentResult> result =
      RunExperiment(rh_.g, scenarios_, methods, opts_);
  ASSERT_TRUE(result.ok());
  for (const ScenarioRecord& r : result->records) {
    if (r.method != "remove_ex_direct" && r.returned) {
      EXPECT_TRUE(r.correct) << r.method;
    }
  }
}

TEST_F(RunnerTest, AggregateComputesRates) {
  std::vector<MethodSpec> methods = PaperMethods();
  Result<ExperimentResult> result =
      RunExperiment(rh_.g, scenarios_, methods, opts_);
  ASSERT_TRUE(result.ok());
  std::vector<std::string> names;
  for (const MethodSpec& m : methods) names.push_back(m.name);
  std::vector<MethodAggregate> aggs = Aggregate(result.value(), names);
  ASSERT_EQ(aggs.size(), methods.size());
  for (const MethodAggregate& a : aggs) {
    EXPECT_EQ(a.scenarios, scenarios_.size());
    EXPECT_GE(a.success_rate, 0.0);
    EXPECT_LE(a.success_rate, 100.0);
    EXPECT_GE(a.returned, a.correct);
  }
}

TEST_F(RunnerTest, OracleSubsetAndRelativeAggregation) {
  std::vector<MethodSpec> methods = RemoveMethods();
  Result<ExperimentResult> result =
      RunExperiment(rh_.g, scenarios_, methods, opts_);
  ASSERT_TRUE(result.ok());
  auto solvable = OracleSolvableScenarios(result.value(), "remove_brute");
  std::vector<std::string> names;
  for (const MethodSpec& m : methods) names.push_back(m.name);
  std::vector<MethodAggregate> aggs =
      AggregateOnScenarios(result.value(), names, solvable);
  for (const MethodAggregate& a : aggs) {
    EXPECT_EQ(a.scenarios, solvable.size());
    if (a.method == "remove_brute" && !solvable.empty()) {
      EXPECT_DOUBLE_EQ(a.success_rate, 100.0);
    }
  }
}

TEST_F(RunnerTest, RecordsCsvRoundTripsThroughDisk) {
  std::vector<MethodSpec> methods = {PaperMethods()[3]};
  Result<ExperimentResult> result =
      RunExperiment(rh_.g, scenarios_, methods, opts_);
  ASSERT_TRUE(result.ok());
  std::string path = test::MakeTempDir("eval") + "/records.csv";
  ASSERT_TRUE(WriteRecordsCsv(result.value(), path).ok());
  Result<ExperimentResult> loaded = LoadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->records.size(), result->records.size());
  for (size_t i = 0; i < loaded->records.size(); ++i) {
    EXPECT_EQ(loaded->records[i].method, result->records[i].method);
    EXPECT_EQ(loaded->records[i].correct, result->records[i].correct);
    EXPECT_EQ(loaded->records[i].explanation_size,
              result->records[i].explanation_size);
    EXPECT_NEAR(loaded->records[i].seconds, result->records[i].seconds,
                1e-5);
  }
}

TEST_F(RunnerTest, RecordsCsvRoundTripsEveryFailureReason) {
  // One synthetic record per FailureReason value: the loader must map every
  // name back to the right enum value (no reason may silently collapse to
  // kNone).
  ExperimentResult result;
  for (explain::FailureReason reason : explain::kAllFailureReasons) {
    ScenarioRecord r;
    r.method = "m";
    r.scenario.user = 1;
    r.scenario.wni = 2;
    r.failure = reason;
    result.records.push_back(r);
  }
  std::string path = test::MakeTempDir("eval_fail") + "/records.csv";
  ASSERT_TRUE(WriteRecordsCsv(result, path).ok());
  Result<ExperimentResult> loaded = LoadRecordsCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->records.size(), result.records.size());
  for (size_t i = 0; i < loaded->records.size(); ++i) {
    EXPECT_EQ(loaded->records[i].failure, result.records[i].failure)
        << explain::FailureReasonName(result.records[i].failure);
  }
}

TEST_F(RunnerTest, LoadRecordsCsvRejectsUnknownFailureReason) {
  std::string path = test::MakeTempDir("eval_bad") + "/records.csv";
  {
    std::ofstream f(path);
    f << "method,user,wni,wni_rank,returned,correct,size,seconds,failure\n";
    f << "m,1,2,3,1,1,1,0.5,totally-new-reason\n";
  }
  Result<ExperimentResult> loaded = LoadRecordsCsv(path);
  EXPECT_TRUE(loaded.status().IsInvalidArgument()) << loaded.status();
}

TEST_F(RunnerTest, NestedTestThreadParallelismMatchesSerial) {
  // Scenario-level × candidate-level parallelism: the composed run must
  // produce the same records as the fully serial one.
  std::vector<MethodSpec> methods = {*FindMethod(PaperMethods(), "add_ex"),
                                     *FindMethod(PaperMethods(),
                                                 "remove_brute")};
  Result<ExperimentResult> serial =
      RunExperiment(rh_.g, scenarios_, methods, opts_, RunnerOptions{});
  explain::EmigreOptions nested_opts = opts_;
  nested_opts.test_threads = 2;
  RunnerOptions run_opts;
  run_opts.num_threads = 2;
  Result<ExperimentResult> nested =
      RunExperiment(rh_.g, scenarios_, methods, nested_opts, run_opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(nested.ok());
  ASSERT_EQ(serial->records.size(), nested->records.size());
  for (size_t i = 0; i < serial->records.size(); ++i) {
    EXPECT_EQ(serial->records[i].correct, nested->records[i].correct);
    EXPECT_EQ(serial->records[i].returned, nested->records[i].returned);
    EXPECT_EQ(serial->records[i].explanation_size,
              nested->records[i].explanation_size);
    EXPECT_EQ(serial->records[i].failure, nested->records[i].failure);
  }
}

TEST(RunnerDiagnosisTest, PopularItemFailuresAreLabelled) {
  // The Fig.-7 fixture: a bestseller carried by other users. The runner
  // must refine the remove-mode failure into the popular-item category.
  graph::HinGraph g;
  auto user_type = g.RegisterNodeType("user");
  auto item_type = g.RegisterNodeType("item");
  auto rated = g.RegisterEdgeType("rated");
  NodeId probe = g.AddNode(user_type, "probe");
  NodeId hub = g.AddNode(item_type, "hub");
  NodeId niche = g.AddNode(item_type, "niche");
  NodeId bridge = g.AddNode(item_type, "bridge");
  ASSERT_TRUE(g.AddBidirectional(probe, bridge, rated).ok());
  ASSERT_TRUE(g.AddBidirectional(bridge, hub, rated).ok());
  ASSERT_TRUE(g.AddBidirectional(bridge, niche, rated).ok());
  for (int i = 0; i < 10; ++i) {
    NodeId fan = g.AddNode(user_type);
    ASSERT_TRUE(g.AddBidirectional(fan, hub, rated).ok());
  }

  explain::EmigreOptions opts;
  opts.rec.item_type = item_type;
  opts.allowed_edge_types = {rated};
  opts.add_edge_type = rated;

  std::vector<Scenario> scenarios = {
      Scenario{probe, niche, 1, recsys::Recommend(g, probe, opts.rec)}};
  std::vector<MethodSpec> methods = {
      {"remove_Incremental", explain::Mode::kRemove,
       explain::Heuristic::kIncremental}};
  Result<ExperimentResult> result =
      RunExperiment(g, scenarios, methods, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_FALSE(result->records[0].correct);
  EXPECT_EQ(result->records[0].failure,
            explain::FailureReason::kPopularItem);
}

// ---------------------------------------------------------------------------
// Metrics math on synthetic records
// ---------------------------------------------------------------------------

TEST(MetricsTest, AggregateMathIsExact) {
  ExperimentResult result;
  auto add = [&](bool returned, bool correct, size_t size, double sec) {
    ScenarioRecord r;
    r.method = "m";
    r.returned = returned;
    r.correct = correct;
    r.explanation_size = size;
    r.seconds = sec;
    result.records.push_back(r);
  };
  add(true, true, 2, 1.0);
  add(true, true, 4, 3.0);
  add(true, false, 7, 2.0);  // returned but wrong (direct-style)
  add(false, false, 0, 4.0);

  std::vector<MethodAggregate> aggs = Aggregate(result, {"m"});
  ASSERT_EQ(aggs.size(), 1u);
  const MethodAggregate& a = aggs[0];
  EXPECT_EQ(a.scenarios, 4u);
  EXPECT_EQ(a.returned, 3u);
  EXPECT_EQ(a.correct, 2u);
  EXPECT_DOUBLE_EQ(a.success_rate, 50.0);
  EXPECT_DOUBLE_EQ(a.avg_size, 3.0);           // (2+4)/2 over correct
  EXPECT_DOUBLE_EQ(a.avg_time_all, 2.5);       // (1+3+2+4)/4
  EXPECT_DOUBLE_EQ(a.avg_time_found, 2.0);     // (1+3+2)/3
  EXPECT_DOUBLE_EQ(a.avg_time_not_found, 4.0); // 4/1
  // Ceil nearest-rank percentiles over {1, 2, 3, 4}: p50 is rank
  // ⌈0.5·4⌉ = 2, p95 is rank ⌈0.95·4⌉ = 4.
  EXPECT_DOUBLE_EQ(a.p50_time, 2.0);
  EXPECT_DOUBLE_EQ(a.p95_time, 4.0);
}

TEST(MetricsTest, PercentilesUseCeilNearestRank) {
  // Aggregate n records with seconds 1..n and check the percentile fields;
  // this pins the nearest-rank convention (rank ⌈fraction·n⌉, 1-based).
  auto percentiles = [](size_t n) {
    ExperimentResult result;
    for (size_t i = 1; i <= n; ++i) {
      ScenarioRecord r;
      r.method = "m";
      r.seconds = static_cast<double>(i);
      result.records.push_back(r);
    }
    std::vector<MethodAggregate> aggs = Aggregate(result, {"m"});
    return std::make_pair(aggs[0].p50_time, aggs[0].p95_time);
  };

  EXPECT_EQ(percentiles(1), std::make_pair(1.0, 1.0));
  // n = 2: p50 must be the LOWER sample (the old `fraction·(n−1)+0.5`
  // formula rounded up to the max).
  EXPECT_EQ(percentiles(2), std::make_pair(1.0, 2.0));
  EXPECT_EQ(percentiles(3), std::make_pair(2.0, 3.0));
  // n = 20: p50 = rank 10, p95 = rank 19 (conventional, not the max).
  EXPECT_EQ(percentiles(20), std::make_pair(10.0, 19.0));
}

TEST(MetricsTest, UnknownMethodYieldsEmptyAggregate) {
  ExperimentResult result;
  std::vector<MethodAggregate> aggs = Aggregate(result, {"ghost"});
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].scenarios, 0u);
  EXPECT_DOUBLE_EQ(aggs[0].success_rate, 0.0);
}

// ---------------------------------------------------------------------------
// Report formatting
// ---------------------------------------------------------------------------

TEST(ReportTest, FailureBreakdownCountsReasons) {
  ExperimentResult result;
  auto add = [&](bool correct, explain::FailureReason reason) {
    ScenarioRecord r;
    r.method = "m";
    r.correct = correct;
    r.failure = reason;
    result.records.push_back(r);
  };
  add(true, explain::FailureReason::kNone);
  add(false, explain::FailureReason::kColdStart);
  add(false, explain::FailureReason::kColdStart);
  add(false, explain::FailureReason::kPopularItem);
  std::string s = FormatFailureBreakdown(result, {"m"});
  EXPECT_NE(s.find("cold-start"), std::string::npos);
  EXPECT_NE(s.find("popular-item"), std::string::npos);
  // 3 failed in total, 2 cold starts.
  EXPECT_NE(s.find("3"), std::string::npos);
  EXPECT_NE(s.find("2"), std::string::npos);
}

TEST(ReportTest, FormattersMentionEveryMethod) {
  MethodAggregate a;
  a.method = "add_Incremental";
  a.scenarios = 10;
  a.returned = 6;
  a.correct = 6;
  a.success_rate = 60.0;
  a.avg_size = 2.5;
  a.avg_time_all = 0.5;
  a.avg_time_found = 0.4;
  a.avg_time_not_found = 0.7;
  MethodAggregate b = a;
  b.method = "remove_brute";
  b.success_rate = 30.0;

  std::vector<MethodAggregate> aggs = {a, b};
  std::string fig4 = FormatFigure4(aggs);
  EXPECT_NE(fig4.find("add_Incremental"), std::string::npos);
  EXPECT_NE(fig4.find("Figure 4"), std::string::npos);

  std::string fig5 = FormatFigure5(aggs, "remove_brute");
  EXPECT_NE(fig5.find("Relative"), std::string::npos);
  EXPECT_NE(fig5.find("200%"), std::string::npos);  // 60/30 relative

  std::string fig6 = FormatFigure6(aggs);
  EXPECT_NE(fig6.find("2.5 edges"), std::string::npos);

  std::string t5 = FormatTable5(aggs);
  EXPECT_NE(t5.find("Table 5"), std::string::npos);
  EXPECT_NE(t5.find("(b) found"), std::string::npos);
}

}  // namespace
}  // namespace emigre::eval
