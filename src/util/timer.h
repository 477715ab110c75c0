#ifndef EMIGRE_UTIL_TIMER_H_
#define EMIGRE_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>

namespace emigre {

/// \brief Thrown by deadline-cooperative hot loops (the pushes and power
/// iteration, see `ppr::PprOptions::deadline`) when the query deadline
/// expires mid-computation.
///
/// A partially converged push state is not a usable estimate, so the loops
/// unwind instead of returning garbage. The testers catch this and fail the
/// candidate; `Emigre::Explain` converts any escape into
/// `FailureReason::kBudgetExceeded` — it never crosses a public API
/// boundary.
class DeadlineExceededError : public std::exception {
 public:
  const char* what() const noexcept override {
    return "query deadline exceeded";
  }
};

/// \brief Monotonic wall-clock stopwatch.
///
/// Used by the experiment runner to time explanation methods (paper Table 5)
/// and by algorithm wall-clock budgets.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction/Reset, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in microseconds.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Wall-clock budget: lets long-running searches (Powerset,
/// Exhaustive, Brute force) bail out deterministically at a deadline.
/// A non-positive budget means "unlimited".
class Deadline {
 public:
  /// Unlimited deadline.
  Deadline() : seconds_(0.0) {}

  /// Deadline that starts counting immediately. When the Deadline is stored
  /// (or copied) and the guarded work begins later, call Start() at that
  /// point — the copied stopwatch otherwise keeps the construction-time
  /// start and silently shortens the budget.
  explicit Deadline(double seconds) : seconds_(seconds) {}

  /// (Re)arms the deadline: the budget counts from this call.
  void Start() { timer_.Reset(); }

  bool Expired() const {
    return seconds_ > 0.0 && timer_.ElapsedSeconds() >= seconds_;
  }

  double BudgetSeconds() const { return seconds_; }

  /// Seconds left before expiry; +infinity when unlimited, clamped at 0.
  double RemainingSeconds() const {
    if (seconds_ <= 0.0) return std::numeric_limits<double>::infinity();
    double left = seconds_ - timer_.ElapsedSeconds();
    return left > 0.0 ? left : 0.0;
  }

 private:
  double seconds_;
  WallTimer timer_;
};

}  // namespace emigre

#endif  // EMIGRE_UTIL_TIMER_H_
