// Parallel TEST verification: wall-clock of the batched candidate fan-out
// (explain/parallel_tester.h) at 1 / 2 / N worker threads, holding
// everything else fixed — runner scenario workers pinned to 1 so the only
// parallelism measured is candidate-level.
//
// Expected shape: add_ex (Exhaustive Add, large verified batches of
// single-edge candidates) scales close to linearly until the per-TEST cost
// stops dominating; remove_brute (subset enumeration in 128-candidate
// chunks) scales too but amortizes less per batch. Both must return
// byte-identical explanations at every thread count — the determinism
// contract (docs/parallelism.md) is asserted here, not just in the tests.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "eval/methods.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "obs/metrics.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct ThreadRun {
  size_t threads = 1;
  double seconds = 0.0;
  size_t successes = 0;
  size_t total_size = 0;
};

}  // namespace

int main() {
  using namespace emigre;
  bench::BenchConfig config = bench::MakeBenchConfig();
  config.lite.sample_users = config.scale == 0 ? 4 : 10;
  config.max_per_user = 2;
  config.top_k = 5;
  // The fan-out pays off when each TEST is expensive: use the exact tester
  // (full recommender re-run per candidate). Budgets must be identical
  // logical work at every thread count, so the wall-clock deadline is off
  // and the deterministic TEST cap bounds the search instead — a deadline
  // would stop faster runs at a different candidate than slower ones.
  config.method_deadline_seconds = 0.0;
  config.oracle_deadline_seconds = 0.0;
  const size_t kOracleTestCap = 1000;

  bench::PrintBenchHeader("Parallel TEST verification — thread scaling",
                          config);

  auto lite = bench::BuildBenchGraph(config);
  lite.status().CheckOK();

  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  std::vector<size_t> thread_counts = {1, 2, 4};
  if (hardware > 4) thread_counts.push_back(hardware);

  std::vector<eval::MethodSpec> paper = eval::PaperMethods();
  std::vector<eval::MethodSpec> methods = {
      *eval::FindMethod(paper, "add_ex"),
      *eval::FindMethod(paper, "remove_brute"),
  };

  eval::RunnerOptions run_opts;
  run_opts.num_threads = 1;  // isolate candidate-level parallelism

  TextTable table(
      {"method", "threads", "wall time", "speedup", "success", "avg size"});
  for (size_t c = 1; c < 6; ++c) table.SetAlign(c, Align::kRight);

  for (const eval::MethodSpec& method : methods) {
    std::vector<eval::MethodSpec> one = {method};
    std::vector<ThreadRun> runs;
    std::vector<std::vector<eval::ScenarioRecord>> records_by_run;
    for (size_t threads : thread_counts) {
      explain::EmigreOptions opts = bench::MakeEmigreOptions(config, *lite);
      opts.test_threads = threads;
      if (method.heuristic == explain::Heuristic::kBruteForce) {
        opts.max_tests = kOracleTestCap;
      }
      auto scenarios = eval::GenerateScenarios(
          lite->graph, lite->eval_users, opts, config.top_k,
          config.max_per_user);
      scenarios.status().CheckOK();

      WallTimer timer;
      auto result = eval::RunExperiment(lite->graph, scenarios.value(), one,
                                        opts, run_opts);
      result.status().CheckOK();
      double seconds = timer.ElapsedSeconds();

      ThreadRun run;
      run.threads = threads;
      run.seconds = seconds;
      for (const auto& r : result->records) {
        if (r.correct) {
          ++run.successes;
          run.total_size += r.explanation_size;
        }
      }
      runs.push_back(run);
      records_by_run.push_back(result->records);

      obs::Registry::Global()
          .GetGauge("bench.parallel_tester." + method.name + ".t" +
                    std::to_string(threads) + ".seconds")
          .Set(seconds);
    }

    // Determinism across thread counts: every run must produce the same
    // per-scenario outcome (correctness, size, failure) as the serial run.
    bool identical = true;
    for (size_t i = 1; i < records_by_run.size(); ++i) {
      const auto& a = records_by_run[0];
      const auto& b = records_by_run[i];
      if (a.size() != b.size()) identical = false;
      for (size_t k = 0; identical && k < a.size(); ++k) {
        identical = a[k].correct == b[k].correct &&
                    a[k].returned == b[k].returned &&
                    a[k].explanation_size == b[k].explanation_size &&
                    a[k].failure == b[k].failure;
      }
      if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s at %zu threads diverged "
                     "from serial\n",
                     method.name.c_str(), runs[i].threads);
        return 1;
      }
    }

    for (const ThreadRun& run : runs) {
      double speedup = runs.front().seconds > 0.0
                           ? runs.front().seconds / run.seconds
                           : 1.0;
      obs::Registry::Global()
          .GetGauge("bench.parallel_tester." + method.name + ".t" +
                    std::to_string(run.threads) + ".speedup")
          .Set(speedup);
      table.AddRow({method.name, std::to_string(run.threads),
                    FormatDuration(run.seconds),
                    FormatDouble(speedup, 2) + "x",
                    std::to_string(run.successes),
                    run.successes == 0
                        ? "-"
                        : FormatDouble(static_cast<double>(run.total_size) /
                                           static_cast<double>(run.successes),
                                       2)});
    }
    table.AddSeparator();
  }

  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Runner scenario workers pinned to 1; all parallelism above is the "
      "candidate-level TEST fan-out. Identical per-scenario outcomes at "
      "every thread count were asserted.\n");
  std::printf(
      "Hardware concurrency: %zu. Thread counts beyond it oversubscribe a "
      "single core and measure fan-out overhead, not speedup.\n", hardware);
  bench::WriteBenchMetrics("parallel_tester");
  return 0;
}
