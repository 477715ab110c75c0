#ifndef EMIGRE_CHECK_SELFCHECK_H_
#define EMIGRE_CHECK_SELFCHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/check_level.h"
#include "explain/options.h"
#include "graph/hin_graph.h"
#include "util/result.h"

namespace emigre::check {

/// \brief Configuration of the invariant self-check suite.
struct SelfCheckOptions {
  /// Which suites run: kBasic validates graph structure only; kFull adds
  /// the PPR residual identities and forward-push termination,
  /// overlay-vs-materialized equivalence, and an end-to-end explanation
  /// replay. kOff runs nothing.
  CheckLevel level = CheckLevel::kFull;

  /// Sampled source/target nodes per PPR suite.
  size_t num_samples = 3;

  /// Random overlay edits exercised.
  size_t num_edits = 3;

  /// Sampling seed (deterministic SplitMix64 stream).
  uint64_t seed = 20240416;
};

/// \brief Outcome of one self-check run: one line per suite plus totals.
struct SelfCheckReport {
  size_t checks_run = 0;
  size_t violations = 0;
  /// One human-readable line per executed check, "<suite>: OK" or
  /// "<suite>: FAIL <why>".
  std::vector<std::string> lines;

  bool ok() const { return violations == 0; }
};

/// \brief Runs every invariant validator against `g` (docs/invariants.md).
///
/// Unlike the `EMIGRE_DCHECK_INVARIANTS` hooks, this is an explicit entry
/// point — it validates in any build. `opts` supplies the recommender
/// configuration (item type, add-edge type) the overlay and explanation
/// suites need. The run is wrapped in a `check.selfcheck` trace span and
/// every validator outcome lands in the `check.*.pass/fail` counters, so
/// `selfcheck --metrics-out` surfaces the totals.
///
/// Returns an error Status only when the suite cannot run at all (e.g. an
/// empty graph); invariant violations are reported in the returned report,
/// not as an error.
[[nodiscard]] Result<SelfCheckReport> RunSelfCheck(
    const graph::HinGraph& g, const explain::EmigreOptions& opts,
    const SelfCheckOptions& sc = {});

}  // namespace emigre::check

#endif  // EMIGRE_CHECK_SELFCHECK_H_
