#ifndef EMIGRE_FAULT_FAULT_H_
#define EMIGRE_FAULT_FAULT_H_

/// \file
/// Deterministic, seed-driven fault injection (docs/robustness.md).
///
/// Production code marks the places that can actually fail — dataset
/// loaders, push engines, the thread pool, batch verification — with
/// `EMIGRE_FAULT_POINT("site")` (non-Status contexts) or
/// `EMIGRE_FAULT_POINT_STATUS("site")` (Status-returning contexts). In
/// normal builds both macros compile to `do {} while (false)`: zero code,
/// zero branches, zero overhead. Configured with
/// `-DEMIGRE_FAULT_INJECTION=ON`, each site consults the process-wide
/// `FaultRegistry`; a site armed with a `FaultSpec` then fires a
/// Status-error, an induced latency, or a foreign exception on a
/// deterministic trigger (nth hit or seeded per-hit probability).
///
/// Every firing increments the `fault.<site>.fired` obs counter and the
/// registry's own per-site tally, so the chaos harness can assert the two
/// accounts agree — no fault fires unobserved.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace emigre::fault {

/// \brief What an armed fault does when its trigger fires.
enum class FaultKind {
  /// `Check` returns the configured error Status (Status contexts) /
  /// `CheckOrThrow` throws it wrapped in an `InjectedFaultError`.
  kStatus,
  /// Sleeps for `latency_seconds`, then proceeds normally — models a slow
  /// dependency rather than a failing one (exercises deadline paths).
  kLatency,
  /// Throws a `std::runtime_error` — models a foreign exception escaping a
  /// dependency (exercises the exception-safety boundaries).
  kThrow,
};

std::string_view FaultKindName(FaultKind kind);

/// \brief One armed fault: a site, a kind, and a deterministic trigger.
struct FaultSpec {
  std::string site;
  FaultKind kind = FaultKind::kStatus;

  /// Trigger: `nth > 0` fires on the nth hit of the site after arming
  /// (1-based; hits count from `Arm`/`Reset`). `nth == 0` draws per hit
  /// from the registry's seeded RNG and fires with `probability`.
  size_t nth = 1;
  double probability = 0.0;

  /// Cap on firings (0 = unlimited). With `nth > 0` the fault re-fires on
  /// every subsequent hit once reached, up to this cap — a persistent
  /// fault; set `max_fires = 1` for a transient one.
  size_t max_fires = 1;

  /// Error category and message of `kStatus` faults. An empty message is
  /// replaced by "injected fault at <site>".
  StatusCode code = StatusCode::kInternal;
  std::string message;

  /// Sleep duration of `kLatency` faults.
  double latency_seconds = 0.001;
};

/// \brief Exception form of an injected Status fault, for non-Status
/// contexts. Converted back to its Status at the same boundaries as any
/// other `StatusError`.
class InjectedFaultError : public StatusError {
 public:
  using StatusError::StatusError;
};

/// \brief Process-wide registry of armed faults and site hit accounting.
///
/// Thread-safe. The unarmed fast path is one relaxed atomic load; tests
/// arm faults, run the scenario, and `Reset()` between seeds. Determinism:
/// nth-hit triggers depend only on the per-site hit count, and
/// probabilistic triggers draw from a `SetSeed`-controlled RNG under the
/// registry lock — a single-threaded run with a fixed seed fires an
/// identical fault schedule every time (concurrent hits of one site are
/// ordered by the lock, so multi-threaded schedules are deterministic per
/// interleaving, not across them).
class FaultRegistry {
 public:
  static FaultRegistry& Global() {
    // Intentionally leaked: fault points may fire during static teardown.
    static FaultRegistry* registry = new FaultRegistry();  // NOLINT(naked-new)
    return *registry;
  }

  /// Arms `spec`, replacing any fault previously armed at the same site
  /// (hit counts restart). Rejects malformed specs: empty site, no
  /// trigger (nth == 0 with probability <= 0), kStatus with kOk.
  [[nodiscard]] Status Arm(FaultSpec spec) {
    if (spec.site.empty()) {
      return Status::InvalidArgument("fault spec has an empty site");
    }
    if (spec.nth == 0 && spec.probability <= 0.0) {
      return Status::InvalidArgument(
          "fault spec for " + spec.site +
          " has no trigger: nth == 0 requires probability > 0");
    }
    if (spec.kind == FaultKind::kStatus && spec.code == StatusCode::kOk) {
      return Status::InvalidArgument(
          "fault spec for " + spec.site + " injects StatusCode::kOk");
    }
    if (spec.message.empty()) {
      spec.message = "injected fault at " + spec.site;
    }
    util::MutexLock lock(&mutex_);
    SiteState& state = sites_[spec.site];
    state.spec = spec;
    state.armed = true;
    state.hits = 0;
    state.fires = 0;
    armed_count_.store(CountArmedLocked(), std::memory_order_relaxed);
    return Status::OK();
  }

  /// Arms from a textual spec, the CLI / check.sh surface:
  ///   "site=<name>[,kind=status|latency|throw][,nth=<N>][,p=<prob>]
  ///    [,max=<N>][,code=<StatusCode name>][,latency=<seconds>][,msg=<text>]"
  [[nodiscard]] Status ArmFromString(std::string_view text) {
    FaultSpec spec;
    std::vector<std::string> fields;
    for (size_t pos = 0; pos <= text.size();) {
      size_t comma = text.find(',', pos);
      if (comma == std::string_view::npos) comma = text.size();
      if (comma > pos) fields.emplace_back(text.substr(pos, comma - pos));
      pos = comma + 1;
    }
    for (const std::string& field : fields) {
      size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("fault spec field without '=': " +
                                       field);
      }
      std::string key = field.substr(0, eq);
      std::string value = field.substr(eq + 1);
      try {
      if (key == "site") {
        spec.site = value;
      } else if (key == "kind") {
        if (value == "status") {
          spec.kind = FaultKind::kStatus;
        } else if (value == "latency") {
          spec.kind = FaultKind::kLatency;
        } else if (value == "throw") {
          spec.kind = FaultKind::kThrow;
        } else {
          return Status::InvalidArgument("unknown fault kind: " + value);
        }
      } else if (key == "nth") {
        spec.nth = static_cast<size_t>(std::stoull(value));
      } else if (key == "p") {
        spec.nth = 0;
        spec.probability = std::stod(value);
      } else if (key == "max") {
        spec.max_fires = static_cast<size_t>(std::stoull(value));
      } else if (key == "code") {
        bool known = false;
        for (int c = 1; c <= static_cast<int>(StatusCode::kCancelled); ++c) {
          if (value == StatusCodeToString(static_cast<StatusCode>(c))) {
            spec.code = static_cast<StatusCode>(c);
            known = true;
            break;
          }
        }
        if (!known) {
          return Status::InvalidArgument("unknown status code: " + value);
        }
      } else if (key == "latency") {
        spec.latency_seconds = std::stod(value);
      } else if (key == "msg") {
        spec.message = value;
      } else {
        return Status::InvalidArgument("unknown fault spec key: " + key);
      }
      } catch (const std::exception&) {
        return Status::InvalidArgument("unparsable fault spec field: " +
                                       field);
      }
    }
    return Arm(std::move(spec));
  }

  /// Disarms every fault and zeroes all hit/fire accounting. The seed is
  /// untouched (call `SetSeed` per chaos schedule).
  void Reset() {
    util::MutexLock lock(&mutex_);
    sites_.clear();
    armed_count_.store(0, std::memory_order_relaxed);
  }

  /// Reseeds the probabilistic-trigger RNG.
  void SetSeed(uint64_t seed) {
    util::MutexLock lock(&mutex_);
    rng_ = Rng(seed);
  }

  bool armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Hits/fires of one site since it was last armed (0 for unknown sites).
  size_t hits(std::string_view site) const {
    util::MutexLock lock(&mutex_);
    auto it = sites_.find(std::string(site));
    return it == sites_.end() ? 0 : it->second.hits;
  }
  size_t fires(std::string_view site) const {
    util::MutexLock lock(&mutex_);
    auto it = sites_.find(std::string(site));
    return it == sites_.end() ? 0 : it->second.fires;
  }

  /// Total firings across all sites since the last `Reset`.
  size_t total_fires() const {
    util::MutexLock lock(&mutex_);
    size_t total = 0;
    for (const auto& [site, state] : sites_) total += state.fires;
    return total;
  }

  /// (site, fires) for every site with at least one hit, sorted by site —
  /// the registry side of the metrics-accounting assertion.
  std::vector<std::pair<std::string, size_t>> FireCounts() const {
    util::MutexLock lock(&mutex_);
    std::vector<std::pair<std::string, size_t>> out;
    for (const auto& [site, state] : sites_) {
      out.emplace_back(site, state.fires);
    }
    return out;
  }

  /// The `EMIGRE_FAULT_POINT_STATUS` body: returns the injected error when
  /// a kStatus fault fires, sleeps through kLatency faults, throws kThrow
  /// faults. OK when the site is unarmed or the trigger does not fire.
  [[nodiscard]] Status Check(const char* site) {
    if (!armed()) return Status::OK();
    FaultSpec fired;
    if (!Hit(site, &fired)) return Status::OK();
    switch (fired.kind) {
      case FaultKind::kStatus:
        return Status(fired.code, fired.message);
      case FaultKind::kLatency:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(fired.latency_seconds));
        return Status::OK();
      case FaultKind::kThrow:
        throw std::runtime_error(fired.message);
    }
    return Status::OK();
  }

  /// The `EMIGRE_FAULT_POINT` body, for contexts that cannot return a
  /// Status: kStatus faults travel as `InjectedFaultError` (converted back
  /// at the library's exception boundaries), the other kinds behave as in
  /// `Check`.
  void CheckOrThrow(const char* site) {
    if (!armed()) return;
    FaultSpec fired;
    if (!Hit(site, &fired)) return;
    switch (fired.kind) {
      case FaultKind::kStatus:
        throw InjectedFaultError(Status(fired.code, fired.message));
      case FaultKind::kLatency:
        std::this_thread::sleep_for(
            std::chrono::duration<double>(fired.latency_seconds));
        return;
      case FaultKind::kThrow:
        throw std::runtime_error(fired.message);
    }
  }

 private:
  struct SiteState {
    FaultSpec spec;
    bool armed = false;
    size_t hits = 0;
    size_t fires = 0;
  };

  FaultRegistry() = default;

  size_t CountArmedLocked() const REQUIRES(mutex_) {
    size_t count = 0;
    for (const auto& [site, state] : sites_) {
      if (state.armed) ++count;
    }
    return count;
  }

  /// Counts the hit; true iff the armed trigger fires. The spec is copied
  /// out under the lock so every side effect — including the
  /// `fault.<site>.fired` counter, whose registry has a lock of its own —
  /// runs outside it: the fault registry lock never nests another lock.
  bool Hit(const char* site, FaultSpec* fired) EXCLUDES(mutex_) {
    {
      util::MutexLock lock(&mutex_);
      auto it = sites_.find(site);
      if (it == sites_.end() || !it->second.armed) return false;
      SiteState& state = it->second;
      ++state.hits;
      if (state.spec.max_fires > 0 && state.fires >= state.spec.max_fires) {
        return false;
      }
      bool fire = state.spec.nth > 0
                      ? state.hits >= state.spec.nth
                      : rng_.NextDouble() < state.spec.probability;
      if (!fire) return false;
      ++state.fires;
      *fired = state.spec;
    }
    obs::Registry::Global()
        .GetCounter("fault." + fired->site + ".fired")
        .Increment();
    return true;
  }

  mutable util::Mutex mutex_;
  std::map<std::string, SiteState> sites_ GUARDED_BY(mutex_);
  std::atomic<size_t> armed_count_{0};
  Rng rng_ GUARDED_BY(mutex_) = Rng(0x9E3779B97F4A7C15ull);
};

inline std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStatus:
      return "status";
    case FaultKind::kLatency:
      return "latency";
    case FaultKind::kThrow:
      return "throw";
  }
  return "?";
}

/// True when this build compiled the fault sites in
/// (`-DEMIGRE_FAULT_INJECTION=ON`); false when every site is a no-op.
#ifdef EMIGRE_FAULT_INJECTION
inline constexpr bool kFaultInjectionEnabled = true;
#else
inline constexpr bool kFaultInjectionEnabled = false;
#endif

/// Every `EMIGRE_FAULT_POINT*` site compiled into the library, one line per
/// site (tools/lint.py enforces name uniqueness). The chaos harness arms
/// randomized schedules over this catalog; keep it in sync when adding
/// sites.
inline constexpr const char* kFaultSites[] = {
    "data.load_dataset",       ///< CSV dataset loader
    "data.bin.read",           ///< binary dataset reader (binfmt)
    "graph.load",              ///< graph file reader
    "graph.snapshot.map",      ///< CSR snapshot mapper (csr_snapshot)
    "ppr.flp",                 ///< static forward push loop
    "ppr.rlp",                 ///< static reverse push loop
    "ppr.cache.fill",          ///< ReversePushCache miss fill
    "threadpool.task",         ///< ThreadPool worker task execution
    "threadpool.serial",       ///< ParallelFor's single-thread fast path
    "explain.parallel.batch",  ///< ParallelTester batch entry
    "explain.query",           ///< Emigre::Explain entry
    "eval.scenario",           ///< eval runner per-record attempt
};

}  // namespace emigre::fault

#ifdef EMIGRE_FAULT_INJECTION
/// Injection point for non-Status contexts: injected Status faults travel
/// as `InjectedFaultError` to the nearest conversion boundary.
#define EMIGRE_FAULT_POINT(site) \
  ::emigre::fault::FaultRegistry::Global().CheckOrThrow(site)
/// Injection point for Status-returning functions: injected Status faults
/// propagate as an early return.
#define EMIGRE_FAULT_POINT_STATUS(site) \
  EMIGRE_RETURN_IF_ERROR(::emigre::fault::FaultRegistry::Global().Check(site))
#else
#define EMIGRE_FAULT_POINT(site) \
  do {                           \
  } while (false)
#define EMIGRE_FAULT_POINT_STATUS(site) \
  do {                                  \
  } while (false)
#endif

#endif  // EMIGRE_FAULT_FAULT_H_
