#include "eval/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "check/invariants.h"
#include "explain/emigre.h"
#include "explain/meta.h"
#include "explain/search_space.h"
#include "explain/tester.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace emigre::eval {

namespace {

/// A failure worth retrying: infrastructure went wrong (injected fault,
/// worker-task error), not the question or the configuration.
bool IsTransient(const Status& st) {
  switch (st.code()) {
    case StatusCode::kInternal:
    case StatusCode::kIOError:
    case StatusCode::kResourceExhausted:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<const ScenarioRecord*> ExperimentResult::ForMethod(
    const std::string& method) const {
  std::vector<const ScenarioRecord*> out;
  for (const ScenarioRecord& r : records) {
    if (r.method == method) out.push_back(&r);
  }
  return out;
}

Result<ExperimentResult> RunExperiment(const graph::HinGraph& g,
                                       const std::vector<Scenario>& scenarios,
                                       const std::vector<MethodSpec>& methods,
                                       const explain::EmigreOptions& opts,
                                       const RunnerOptions& run_opts) {
  if (methods.empty()) {
    return Status::InvalidArgument("no methods to evaluate");
  }
  // One up-front structural validation covers the whole run: the graph is
  // immutable below, so per-scenario revalidation would only repeat it.
  if (check::ShouldCheck(opts.check_level, check::CheckLevel::kBasic)) {
    check::DcheckOk(check::ValidateGraph(g), "RunExperiment");
  }
  explain::Emigre engine(g, opts);

  EMIGRE_COUNTER("eval.scenarios").Increment(scenarios.size());
  // Concurrency contract of the fan-out below: `records` is sized up front
  // and every worker writes only its own disjoint `si * methods + mi`
  // slots, so the records need no lock; `done` is the only cross-worker
  // state and is atomic. The pool's `Wait()` barrier orders all record
  // writes before the return. (This file intentionally has no mutex of its
  // own — see docs/static_analysis.md on lock-free fan-out patterns.)
  ExperimentResult result;
  result.records.resize(scenarios.size() * methods.size());
  std::atomic<size_t> done{0};

  // One Explain attempt, with the scenario-loop fault site inside it so an
  // injected fault is subject to the same retry policy as a real one.
  auto attempt_once = [&](const Scenario& scenario, const MethodSpec& method,
                          explain::Heuristic heuristic)
      -> Result<explain::Explanation> {
    try {
      EMIGRE_FAULT_POINT("eval.scenario");
    } catch (const StatusError& err) {
      return err.status();
    }
    return engine.Explain(explain::WhyNotQuestion{scenario.user, scenario.wni},
                          method.mode, heuristic);
  };

  // Bounded retry with doubling backoff on transient failures.
  auto run_with_retries = [&](const Scenario& scenario,
                              const MethodSpec& method,
                              explain::Heuristic heuristic)
      -> Result<explain::Explanation> {
    Result<explain::Explanation> expl =
        attempt_once(scenario, method, heuristic);
    double backoff = run_opts.retry_backoff_seconds;
    for (size_t retry = 0;
         retry < run_opts.max_retries && !expl.ok() &&
         IsTransient(expl.status());
         ++retry) {
      EMIGRE_COUNTER("eval.retries").Increment();
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff *= 2.0;
      }
      expl = attempt_once(scenario, method, heuristic);
    }
    return expl;
  };

  auto run_one = [&](size_t si) {
    const Scenario& scenario = scenarios[si];
    // One re-verification checker per scenario, created on first unverified
    // result and reused across methods: it shares the engine's CSR snapshot
    // and keeps its overlay/workspace warm instead of paying a fresh
    // allocation per record.
    std::unique_ptr<explain::ExplanationTester> checker;
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      const MethodSpec& method = methods[mi];
      ScenarioRecord& record = result.records[si * methods.size() + mi];
      record.method = method.name;
      record.scenario = scenario;

      Result<explain::Explanation> expl =
          run_with_retries(scenario, method, method.heuristic);
      if (!expl.ok() && IsTransient(expl.status())) {
        // Retries exhausted: walk the configured heuristic fallback chain
        // before giving up on the record.
        for (explain::Heuristic fb : run_opts.fallback_heuristics) {
          if (fb == method.heuristic) continue;
          EMIGRE_COUNTER("eval.fallbacks").Increment();
          expl = run_with_retries(scenario, method, fb);
          if (expl.ok()) break;
        }
      }
      if (!expl.ok()) {
        // Degrade, don't die: a persistent failure becomes a typed
        // per-record outcome instead of aborting the whole experiment
        // (scenario generation guarantees Definition 4.1, so this is an
        // infrastructure failure, and the other records stay valid).
        EMIGRE_LOG(kError) << "method " << method.name << " failed on user "
                           << scenario.user << ", wni " << scenario.wni
                           << ": " << expl.status().ToString();
        EMIGRE_COUNTER("eval.records.internal_error").Increment();
        EMIGRE_COUNTER("eval.records").Increment();
        record.failure = explain::FailureReason::kInternalError;
        continue;
      }
      const explain::Explanation& e = expl.value();
      EMIGRE_COUNTER("eval.records").Increment();
      EMIGRE_HISTOGRAM("eval.record.seconds").Record(e.seconds);
      record.returned = e.found;
      record.explanation_size = e.size();
      record.seconds = e.seconds;
      record.failure = e.failure;
      if (e.found && e.verified) {
        record.correct = true;
      } else if (e.found) {
        // Unverified output (Exhaustive-direct, which skips TEST): success
        // is decided by an untimed independent check, mirroring the paper's
        // accounting.
        if (checker == nullptr) {
          checker = std::make_unique<explain::ExplanationTester>(
              g, scenario.user, scenario.wni, opts, &engine.csr());
        }
        record.correct = checker->Test(e.edges, e.mode);
      }
      if (!e.found && e.failure == explain::FailureReason::kSearchExhausted) {
        // Refine the failure label with the §6.4 meta-explanation taxonomy
        // (e.g. "popular item"), outside the method's timed section.
        auto space =
            method.mode == explain::Mode::kRemove
                ? explain::BuildRemoveSearchSpace(g, scenario.user,
                                                  e.original_rec,
                                                  scenario.wni, opts)
                : explain::BuildAddSearchSpace(g, scenario.user,
                                               e.original_rec, scenario.wni,
                                               opts);
        if (space.ok()) {
          record.failure =
              explain::DiagnoseFailure(g, space.value(), e, opts).reason;
        }
      }
    }
    size_t completed = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (run_opts.progress_every > 0 &&
        completed % run_opts.progress_every == 0) {
      EMIGRE_LOG(kInfo) << "scenarios " << completed << "/"
                        << scenarios.size();
    }
  };

  // Scenario-level fan-out composes with the candidate-level TEST fan-out
  // (opts.test_threads, docs/parallelism.md): each scenario worker may spin
  // up test_threads verification workers of its own, so cap the scenario
  // workers at hardware / test_threads to keep the product within the
  // machine instead of oversubscribing every core test_threads-fold.
  size_t hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  size_t scenario_threads =
      run_opts.num_threads == 0 ? hardware : run_opts.num_threads;
  size_t test_threads =
      opts.test_threads == 0 ? hardware : opts.test_threads;
  if (test_threads > 1) {
    scenario_threads =
        std::min(scenario_threads, std::max<size_t>(1, hardware / test_threads));
  }
  EMIGRE_RETURN_IF_ERROR(
      ThreadPool::ParallelFor(scenarios.size(), scenario_threads, run_one));
  return result;
}

}  // namespace emigre::eval
