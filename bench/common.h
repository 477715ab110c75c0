#ifndef EMIGRE_BENCH_COMMON_H_
#define EMIGRE_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "data/amazon_lite.h"
#include "data/synthetic_amazon.h"
#include "eval/methods.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "explain/options.h"
#include "util/result.h"

namespace emigre::bench {

/// \brief Scale-dependent configuration of the paper-reproduction benches.
///
/// `EMIGRE_BENCH_SCALE` selects the workload size:
///   0 — smoke (seconds),
///   1 — default (a few minutes for the full experiment, cached),
///   2 — paper profile (100 users x 9 Why-Not positions; long).
struct BenchConfig {
  int scale = 1;
  data::SyntheticAmazonOptions gen;
  data::AmazonLiteOptions lite;
  size_t top_k = 10;
  size_t max_per_user = 3;
  /// Per-attempt wall-clock budget for the seven EMiGRe methods.
  double method_deadline_seconds = 1.0;
  /// Budget for the brute-force oracle — deliberately much larger, as in
  /// the paper (where remove_brute averages ~900 s vs seconds for the
  /// heuristics), so it remains a meaningful upper bound.
  double oracle_deadline_seconds = 8.0;
  /// Push epsilon used on the scaled-down graphs.
  double epsilon = 1e-7;
};

/// Reads EMIGRE_BENCH_SCALE (default 1) and builds the configuration.
BenchConfig MakeBenchConfig();

/// EmigreOptions wired for an Amazon-Lite graph under this config.
explain::EmigreOptions MakeEmigreOptions(const BenchConfig& config,
                                         const data::AmazonLiteGraph& lite);

/// \brief Everything the figure/table benches need from one experiment run.
struct BenchExperiment {
  BenchConfig config;
  eval::ExperimentResult result;  ///< all eight methods of §6.2
  std::vector<std::string> method_names;
  size_t num_scenarios = 0;
};

/// \brief Runs (or loads from the records cache) the §6.2 experiment:
/// all eight methods over the sampled users' Why-Not scenarios.
///
/// The records are cached as CSV keyed on the configuration, at
/// `BenchOutputPath("emigre_bench_records_<scale>_<fingerprint>.csv")`, so
/// the four figure/table binaries share one run. Set EMIGRE_BENCH_FRESH=1
/// to ignore the cache.
[[nodiscard]] Result<BenchExperiment> GetOrRunPaperExperiment();

/// Builds the Amazon-Lite graph for the current config (used by benches
/// that need the graph itself rather than experiment records).
[[nodiscard]]
Result<data::AmazonLiteGraph> BuildBenchGraph(const BenchConfig& config);

/// Prints a standard header naming the bench and the scale.
void PrintBenchHeader(const std::string& title, const BenchConfig& config);

/// The path of `name` in the directory bench outputs go to:
/// EMIGRE_BENCH_METRICS_DIR when set, else the current directory. Metric
/// docs, the records cache and scratch files all land there, so runs with
/// different directories never share a file.
std::string BenchOutputPath(const std::string& name);

/// Writes the process-wide metrics registry as `BENCH_<name>.json`
/// (emigre.bench.v1 schema, see docs/observability.md) — the
/// perf-trajectory record every bench emits on exit, and the input of the
/// `emigre perfgate` regression gate. The file lands at `BenchOutputPath`.
void WriteBenchMetrics(const std::string& bench_name);

}  // namespace emigre::bench

#endif  // EMIGRE_BENCH_COMMON_H_
