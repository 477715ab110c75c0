// Chaos harness (docs/robustness.md): the FaultRegistry unit contract, and
// randomized seeded fault schedules over full explain queries asserting no
// crash, typed failures only, validator-clean state after every recovery,
// and exact metrics accounting of every fired fault.
//
// The registry itself works in every build; only the `EMIGRE_FAULT_POINT`
// sites compile away without -DEMIGRE_FAULT_INJECTION=ON, so the soak
// degenerates to a plain-pipeline pass there (asserted explicitly).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "eval/chaos.h"
#include "eval/scenario.h"
#include "explain/options.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/status.h"

namespace emigre {
namespace {

class FaultRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().Reset(); }
  void TearDown() override { fault::FaultRegistry::Global().Reset(); }
};

TEST_F(FaultRegistryTest, ArmRejectsMalformedSpecs) {
  auto& reg = fault::FaultRegistry::Global();
  fault::FaultSpec no_site;
  EXPECT_FALSE(reg.Arm(no_site).ok());
  fault::FaultSpec no_trigger;
  no_trigger.site = "x";
  no_trigger.nth = 0;
  no_trigger.probability = 0.0;
  EXPECT_FALSE(reg.Arm(no_trigger).ok());
  fault::FaultSpec ok_code;
  ok_code.site = "x";
  ok_code.code = StatusCode::kOk;
  EXPECT_FALSE(reg.Arm(ok_code).ok());
}

TEST_F(FaultRegistryTest, NthHitTriggerFiresDeterministically) {
  auto& reg = fault::FaultRegistry::Global();
  fault::FaultSpec spec;
  spec.site = "test.site";
  spec.nth = 3;
  spec.max_fires = 1;
  spec.code = StatusCode::kIOError;
  ASSERT_TRUE(reg.Arm(spec).ok());
  EXPECT_TRUE(reg.Check("test.site").ok());
  EXPECT_TRUE(reg.Check("test.site").ok());
  Status third = reg.Check("test.site");
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kIOError);
  // max_fires = 1: the fourth hit passes again.
  EXPECT_TRUE(reg.Check("test.site").ok());
  EXPECT_EQ(reg.hits("test.site"), 4u);
  EXPECT_EQ(reg.fires("test.site"), 1u);
  // Unarmed sites never fire.
  EXPECT_TRUE(reg.Check("not.armed").ok());
}

TEST_F(FaultRegistryTest, ProbabilisticTriggerReplaysUnderTheSameSeed) {
  auto& reg = fault::FaultRegistry::Global();
  auto run_schedule = [&reg]() {
    reg.Reset();
    reg.SetSeed(42);
    fault::FaultSpec spec;
    spec.site = "test.prob";
    spec.nth = 0;
    spec.probability = 0.5;
    spec.max_fires = 0;  // unlimited
    EXPECT_TRUE(reg.Arm(spec).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!reg.Check("test.prob").ok());
    return fired;
  };
  std::vector<bool> first = run_schedule();
  std::vector<bool> second = run_schedule();
  EXPECT_EQ(first, second);
  size_t fires = 0;
  for (bool f : first) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, 64u);
}

TEST_F(FaultRegistryTest, CheckOrThrowRaisesTypedExceptions) {
  auto& reg = fault::FaultRegistry::Global();
  fault::FaultSpec status_fault;
  status_fault.site = "test.throw.status";
  status_fault.code = StatusCode::kResourceExhausted;
  ASSERT_TRUE(reg.Arm(status_fault).ok());
  try {
    reg.CheckOrThrow("test.throw.status");
    FAIL() << "expected InjectedFaultError";
  } catch (const fault::InjectedFaultError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kResourceExhausted);
  }
  fault::FaultSpec foreign;
  foreign.site = "test.throw.foreign";
  foreign.kind = fault::FaultKind::kThrow;
  ASSERT_TRUE(reg.Arm(foreign).ok());
  EXPECT_THROW(reg.CheckOrThrow("test.throw.foreign"), std::runtime_error);
}

TEST_F(FaultRegistryTest, EveryFireIsCountedInTheObsRegistry) {
  auto& reg = fault::FaultRegistry::Global();
  uint64_t before =
      obs::Registry::Global().GetCounter("fault.test.counted.fired").Value();
  fault::FaultSpec spec;
  spec.site = "test.counted";
  spec.nth = 1;
  spec.max_fires = 3;
  ASSERT_TRUE(reg.Arm(spec).ok());
  for (int i = 0; i < 5; ++i) (void)reg.Check("test.counted");
  EXPECT_EQ(reg.fires("test.counted"), 3u);
  uint64_t after =
      obs::Registry::Global().GetCounter("fault.test.counted.fired").Value();
  EXPECT_EQ(after - before, 3u);
  auto counts = reg.FireCounts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].first, "test.counted");
  EXPECT_EQ(counts[0].second, 3u);
}

TEST_F(FaultRegistryTest, ArmFromStringParsesTheCliGrammar) {
  auto& reg = fault::FaultRegistry::Global();
  ASSERT_TRUE(reg
                  .ArmFromString("site=ppr.flp,kind=status,nth=2,"
                                 "max=1,code=IOError,msg=boom")
                  .ok());
  EXPECT_TRUE(reg.Check("ppr.flp").ok());
  Status fired = reg.Check("ppr.flp");
  EXPECT_EQ(fired.code(), StatusCode::kIOError);
  EXPECT_EQ(fired.message(), "boom");
  EXPECT_FALSE(reg.ArmFromString("kind=status").ok());       // no site
  EXPECT_FALSE(reg.ArmFromString("site=x,kind=bogus").ok()); // bad kind
  EXPECT_FALSE(reg.ArmFromString("site=x,nth=abc").ok());    // bad number
  EXPECT_FALSE(reg.ArmFromString("site=x,zzz=1").ok());      // bad key
}

// ---------------------------------------------------------------------------
// The chaos soak: ISSUE acceptance — >= 20 fixed seeds across all
// heuristics, zero crashes, typed outcomes, validator-clean recoveries,
// exact fault accounting.

TEST(ChaosSoakTest, TwentySeededSchedulesSurviveWithTypedOutcomes) {
  Rng rng(5);
  test::RandomHin rh = test::MakeRandomHin(rng, 16, 40, 4, 6);
  explain::EmigreOptions opts = test::MakeRandomHinOptions(rh);
  Result<std::vector<eval::Scenario>> scenarios = eval::GenerateScenarios(
      rh.g, rh.users, opts, /*top_k=*/4, /*max_per_user=*/1);
  ASSERT_TRUE(scenarios.ok()) << scenarios.status().ToString();
  ASSERT_FALSE(scenarios->empty());

  eval::ChaosOptions chaos_opts;
  chaos_opts.base_seed = 20260807;
  chaos_opts.num_schedules = 20;
  chaos_opts.queries_per_schedule = 2;
  chaos_opts.heuristics = {explain::Heuristic::kIncremental,
                           explain::Heuristic::kPowerset,
                           explain::Heuristic::kExhaustive};
  chaos_opts.test_threads = 2;

  Result<eval::ChaosReport> report =
      eval::RunChaosSoak(rh.g, scenarios.value(), opts, chaos_opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& v : report->violations) {
    ADD_FAILURE() << "chaos violation: " << v;
  }
  EXPECT_EQ(report->schedules_run, 20u);
  EXPECT_EQ(report->queries_run, 40u);
  if (fault::kFaultInjectionEnabled) {
    // With sites compiled in, a 20-schedule soak must actually inject.
    EXPECT_GT(report->faults_fired, 0u);
    EXPECT_GT(report->typed_failures, 0u);
  } else {
    // Plain build: the sites are no-ops; nothing may fire and every query
    // must succeed as usual.
    EXPECT_EQ(report->faults_fired, 0u);
    EXPECT_EQ(report->typed_failures, 0u);
  }
  // The registry never leaks armed faults out of the soak.
  EXPECT_FALSE(fault::FaultRegistry::Global().armed());
}

TEST(ChaosSoakTest, SoakIsDeterministicPerSeed) {
  Rng rng(9);
  test::RandomHin rh = test::MakeRandomHin(rng, 10, 24, 3, 5);
  explain::EmigreOptions opts = test::MakeRandomHinOptions(rh);
  Result<std::vector<eval::Scenario>> scenarios = eval::GenerateScenarios(
      rh.g, rh.users, opts, /*top_k=*/3, /*max_per_user=*/1);
  ASSERT_TRUE(scenarios.ok()) << scenarios.status().ToString();
  ASSERT_FALSE(scenarios->empty());

  eval::ChaosOptions chaos_opts;
  chaos_opts.base_seed = 7;
  chaos_opts.num_schedules = 4;
  chaos_opts.queries_per_schedule = 2;
  chaos_opts.test_threads = 1;    // single-threaded soaks replay exactly
  chaos_opts.tiny_deadlines = false;  // wall-clock expiry is not replayable

  Result<eval::ChaosReport> first =
      eval::RunChaosSoak(rh.g, scenarios.value(), opts, chaos_opts);
  Result<eval::ChaosReport> second =
      eval::RunChaosSoak(rh.g, scenarios.value(), opts, chaos_opts);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(first->ok());
  EXPECT_TRUE(second->ok());
  EXPECT_EQ(first->faults_fired, second->faults_fired);
  EXPECT_EQ(first->typed_failures, second->typed_failures);
  EXPECT_EQ(first->degraded_results, second->degraded_results);
  EXPECT_EQ(first->explanations_found, second->explanations_found);
}

}  // namespace
}  // namespace emigre
