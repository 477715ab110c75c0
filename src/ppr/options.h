#ifndef EMIGRE_PPR_OPTIONS_H_
#define EMIGRE_PPR_OPTIONS_H_

#include <cstddef>

#include "util/timer.h"

namespace emigre::ppr {

/// \brief The push schedule: one value, selecting nothing.
///
/// Each push direction has one FIFO schedule. Static pushes run the dense
/// `ForwardPush`/`ReversePush` loops; `DynamicForwardPush` repairs run a
/// sparse refine seeded from the repaired row on a reusable
/// `PushWorkspace` ring (bitwise the dense `Refine()` schedule). The enum
/// and `PprOptions::engine` remain only because the end-to-end benchmark
/// (e2ebench/e2e_bench.cc) still assigns the field; both go once it stops.
enum class PushEngine {
  kKernel,
};

/// \brief Shared parameters of the Personalized PageRank computations.
///
/// Defaults follow the paper's experimental setting (§6.1): teleport
/// probability α = 0.15 and local-push tolerance ε = 2.7e-8. The push ε is
/// intentionally configurable: the benchmark harness relaxes it on scaled-
/// down graphs where the paper-tight value buys nothing.
struct PprOptions {
  /// Teleportation (restart) probability α of Eq. 1.
  double alpha = 0.15;

  /// Residual threshold ε of the Forward/Reverse Local Push methods [39].
  double epsilon = 2.7e-8;

  /// Convergence threshold (L1 change between iterations) for power
  /// iteration.
  double power_tolerance = 1e-12;

  /// Iteration cap for power iteration; (1-α)^k bounds the residual mass,
  /// so 300 iterations at α=0.15 is far beyond any practical tolerance.
  size_t max_power_iterations = 300;

  /// Selects nothing; see `PushEngine`.
  PushEngine engine = PushEngine::kKernel;

  /// Cooperative query deadline (non-owning; nullptr = none). The push hot
  /// loops (static and dynamic repair) and power iteration
  /// check it periodically — every `kDeadlineCheckInterval` pushes /
  /// every power iteration — and throw `DeadlineExceededError` once it has
  /// expired, instead of running a long push to completion first. A
  /// partially converged state is not a usable estimate, so the loops
  /// unwind rather than return early; the explain testers catch the error
  /// and fail the candidate (docs/robustness.md).
  ///
  /// Set only by `Emigre::Explain` (to its per-query deadline) on the
  /// options copy handed to the TEST path; the deadline object must
  /// outlive every computation using this options value.
  const Deadline* deadline = nullptr;
};

/// Deadline polling cadence of the push loops: the deadline is consulted
/// once every this many pushes (power of two; the loops test
/// `pushes & (interval - 1)`). One push touches a node row, so 256 pushes
/// bound the overshoot to microseconds while keeping the check itself out
/// of the per-push cost.
inline constexpr size_t kDeadlineCheckInterval = 256;

/// True when `opts` carries an expired deadline; the periodic form used by
/// the push loops.
inline bool DeadlineExpired(const PprOptions& opts, size_t pushes) {
  return opts.deadline != nullptr &&
         (pushes & (kDeadlineCheckInterval - 1)) == 0 &&
         opts.deadline->Expired();
}

/// \brief Dangling-node convention.
///
/// A random walk that reaches a node without outgoing edges has nowhere to
/// continue. We pin such walks in place (an implicit self-loop), which keeps
/// the transition matrix independent of the walk's source — a property the
/// Reverse Local Push requires (its estimates hold for *all* sources at
/// once). This matters only for isolated nodes in practice: the dataset
/// pipeline bidirectionalizes relations (paper §6.1), so true sinks are rare.
inline constexpr bool kDanglingSelfLoop = true;

}  // namespace emigre::ppr

#endif  // EMIGRE_PPR_OPTIONS_H_
