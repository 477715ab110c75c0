#ifndef EMIGRE_OBS_PERFGATE_H_
#define EMIGRE_OBS_PERFGATE_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "obs/export.h"
#include "util/result.h"

namespace emigre::obs {

/// \brief Benchmark regression gate: compares a fresh emigre.bench.v1 run
/// against a checked-in baseline (bench/baselines/) with per-metric noise
/// tolerances, and fails on out-of-band drift in either direction.
///
/// Metrics are flattened to scalar series:
///   - counter `c`            -> "c"            (counter tolerance)
///   - gauge `g`              -> "g"            (latency tolerance when the
///                                               name ends in "seconds" or
///                                               "speedup", counter tolerance
///                                               otherwise)
///   - histogram `h`          -> "h/count"      (counter tolerance)
///                               "h/sum"        (latency tolerance when the
///                                               name ends in "seconds")
///
/// A metric passes when `current` lies in the two-sided band
/// `[baseline / (1 + tol), baseline * (1 + tol)]`. The lower bound is
/// deliberate: a current value far *below* baseline means the baseline is
/// stale (or the workload changed) and must be refreshed — silently keeping
/// it would let the band drift upward forever. Gauges named *speedup are
/// higher-is-better ratios and one-sided instead: a rise always passes, and
/// a fall below `baseline / (1 + latency_tol)` is a regression. Metrics
/// whose values sit below the noise floor on both sides (`counter_min` for
/// speedups) are ignored, as are names matched by a `skip` glob
/// (nondeterministic under parallelism: cache hit/miss splits,
/// cancellation counts).

struct PerfGateOptions {
  /// Relative tolerance for event counts (counters, gauges, bucket counts).
  double counter_tol = 0.10;
  /// Relative tolerance for wall-clock times (gauges named *seconds, sums
  /// of histograms named *seconds) and for the fall of *speedup ratios of
  /// two timings — wide, because absolute timings vary run to run and
  /// machine to machine.
  double latency_tol = 0.50;
  /// Noise floors: a metric is compared only when baseline or current
  /// exceeds the floor (counts, and seconds respectively).
  double counter_min = 16.0;
  double latency_min = 1e-3;
  /// Glob patterns ('*' wildcard) of flattened metric names to skip.
  std::vector<std::string> skip;
  /// Absolute minimums, keyed by bench name then exact flattened metric
  /// name (the config is shared across every bench/baseline pair, so
  /// floors scope to the bench that emits the metric). Unlike the relative
  /// band, a floor is asserted REGARDLESS of the noise floors and skip
  /// globs — it encodes a hard contract ("this speedup stays above 1.0"),
  /// not a drift check, so a sub-`counter_min` value cannot dodge it. A
  /// floored metric absent from its bench's current run is a failure too.
  std::map<std::string, std::map<std::string, double>> floors;
};

/// Parses the checked-in gate configuration (emigre.perfgate.v1):
///   {"schema": "emigre.perfgate.v1", "counter_tol": 0.1, "latency_tol":
///    0.5, "counter_min": 16, "latency_min": 0.001, "skip": ["ppr.cache.*"],
///    "floors": {"graph_io": {"bench.graph_io.snapshot_vs_csv_speedup":
///    20.0}}}
/// Absent fields keep their defaults.
[[nodiscard]] Result<PerfGateOptions> ParsePerfGateConfig(
    const std::string& json);

/// \brief One flattened metric's comparison outcome.
struct PerfGateEntry {
  enum class Verdict {
    kOk,          ///< inside the tolerance band
    kSkipped,     ///< matched a skip glob
    kBelowFloor,  ///< both sides under the noise floor
    kRegression,  ///< current > baseline * (1 + tol); for a *speedup,
                  ///< current < baseline / (1 + tol)
    kOutOfBand,   ///< current < baseline / (1 + tol): stale baseline
    kMissing,     ///< in baseline (above floor) but absent from current
    kNew,         ///< only in current (reported, never a failure)
    kBelowMin,    ///< current < its configured absolute floor
  };
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  ///< current / baseline (0 when baseline is 0)
  double tolerance = 0.0;
  double floor = 0.0;  ///< configured absolute minimum (kBelowMin only)
  Verdict verdict = Verdict::kOk;

  bool Failed() const {
    return verdict == Verdict::kRegression || verdict == Verdict::kOutOfBand ||
           verdict == Verdict::kMissing || verdict == Verdict::kBelowMin;
  }
};

/// \brief Full comparison result; `pass` iff no entry failed.
struct PerfGateReport {
  std::string bench;
  int scale = 0;
  bool pass = true;
  size_t compared = 0;
  size_t failed = 0;
  size_t skipped = 0;
  std::vector<PerfGateEntry> entries;  ///< every flattened metric, in order

  /// Human-readable report: the per-metric diff table of failures (or a
  /// one-line pass summary) plus counts.
  std::string Format() const;
};

/// Compares `current` against `baseline`. Fails with InvalidArgument (a
/// usage error, not a regression) when the two runs are not comparable —
/// different bench names or scales.
[[nodiscard]] Result<PerfGateReport> ComparePerf(const BenchDoc& baseline,
                                                 const BenchDoc& current,
                                                 const PerfGateOptions& opts);

/// '*'-wildcard glob match (no character classes), anchored at both ends.
bool GlobMatch(const std::string& pattern, const std::string& text);

}  // namespace emigre::obs

#endif  // EMIGRE_OBS_PERFGATE_H_
