#ifndef EMIGRE_OBS_QUERY_LOG_H_
#define EMIGRE_OBS_QUERY_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace emigre::obs {

/// \brief Per-query audit log: one JSON object per line (JSONL), schema
/// `emigre.query.v1`.
///
/// Every `Emigre::Explain` call appends one record capturing what the query
/// was, what it was allowed to spend (budgets), what happened (phase
/// durations, faults fired, degradation) and what came out (the explanation
/// edge set) — enough to replay the query bit-for-bit after the fact. The
/// eval runner and the CLI query commands attach a log via
/// `EmigreOptions::query_log` / `--query-log FILE`.
///
/// Record schema (absent numeric fields read as 0, strings as ""):
///
///   {"schema": "emigre.query.v1", "query_id": 7,
///    "user": 12, "why_not_item": 48,
///    "mode": "remove", "heuristic": "Incremental",
///    "heuristic_chain": ["remove/Incremental"],
///    "budgets": {"deadline_seconds": 1.0, "max_tests": 20000,
///                "test_threads": 1, "tester": "exact", "anytime": false},
///    "found": true, "verified": true, "degraded": false,
///    "degraded_gap": 0, "failure": "none", "error": "",
///    "original_rec": 3, "new_rec": 48,
///    "search_space_size": 9, "candidates_considered": 4,
///    "tests_performed": 4, "seconds": 0.012,
///    "phase_seconds": {"ranking": 0.004, "search_space": 0.003,
///                      "heuristic": 0.005},
///    "faults_fired": {"explain.query": 1},
///    "edges": [{"src": 12, "dst": 30, "type": 0}]}

/// \brief One audited query, flattened to plain values so the obs layer
/// stays independent of the explain types that produce it.
struct QueryRecord {
  uint64_t query_id = 0;
  uint64_t user = 0;
  uint64_t why_not_item = 0;
  std::string mode;
  std::string heuristic;
  /// "mode/heuristic" attempts in order; one entry per Explain call (an
  /// ExplainAuto fallback shows up as separate records sharing nothing but
  /// adjacent query ids).
  std::vector<std::string> heuristic_chain;

  // Budgets the query ran under — what a replay must reproduce.
  double deadline_seconds = 0.0;
  uint64_t max_tests = 0;
  uint64_t test_threads = 1;
  std::string tester;  ///< "exact" (older logs may name a retired tester)
  bool anytime = false;

  // Outcome.
  bool found = false;
  bool verified = false;
  bool degraded = false;
  double degraded_gap = 0.0;
  std::string failure;  ///< FailureReasonName, e.g. "none", "budget-exceeded"
  std::string error;    ///< non-OK Status text when the pipeline errored

  uint64_t original_rec = 0;
  uint64_t new_rec = 0;
  uint64_t search_space_size = 0;
  uint64_t candidates_considered = 0;
  uint64_t tests_performed = 0;
  double seconds = 0.0;

  /// Wall time per pipeline phase, in pipeline order ("ranking",
  /// "search_space", "heuristic").
  std::vector<std::pair<std::string, double>> phase_seconds;
  /// Fault sites that fired during this query, with fire counts.
  std::vector<std::pair<std::string, uint64_t>> faults_fired;

  struct Edge {
    uint64_t src = 0;
    uint64_t dst = 0;
    uint64_t type = 0;
  };
  std::vector<Edge> edges;  ///< the explanation edge set (A*)
};

/// Serializes a record as one emigre.query.v1 JSON line (no trailing
/// newline).
std::string QueryRecordJson(const QueryRecord& record);

/// Parses one emigre.query.v1 line back into a record.
[[nodiscard]] Result<QueryRecord> ParseQueryRecord(const std::string& line);

/// \brief Append-only JSONL sink; `Append` is thread-safe and flushes per
/// record so a crash loses at most the in-flight line.
class QueryLog {
 public:
  /// Opens `path` for appending.
  [[nodiscard]] static Result<std::unique_ptr<QueryLog>> Open(
      const std::string& path);

  [[nodiscard]] Status Append(const QueryRecord& record) EXCLUDES(mutex_);

  const std::string& path() const { return path_; }

 private:
  QueryLog(std::string path, std::ofstream file)
      : path_(std::move(path)), file_(std::move(file)) {}

  const std::string path_;  // NOLINT(guarded-by) const after ctor
  util::Mutex mutex_;
  std::ofstream file_ GUARDED_BY(mutex_);
};

}  // namespace emigre::obs

#endif  // EMIGRE_OBS_QUERY_LOG_H_
