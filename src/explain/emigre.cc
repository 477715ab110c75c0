#include "explain/emigre.h"

#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "fault/fault.h"
#include "explain/brute_force.h"
#include "explain/exhaustive.h"
#include "explain/fast_tester.h"
#include "explain/incremental.h"
#include "explain/parallel_tester.h"
#include "explain/powerset.h"
#include "explain/search_space.h"
#include "explain/tester.h"
#include "graph/csr_snapshot.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "recsys/recommender.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace emigre::explain {

std::shared_ptr<const recsys::RecommendationList> RankingSlot::Find(
    graph::NodeId user) const {
  util::MutexLock lock(&mutex_);
  return user_ == user ? ranking_ : nullptr;
}

void RankingSlot::Store(graph::NodeId user,
                        recsys::RecommendationList ranking) {
  auto stored =
      std::make_shared<const recsys::RecommendationList>(std::move(ranking));
  util::MutexLock lock(&mutex_);
  user_ = user;
  ranking_.swap(stored);  // the replaced ranking is freed after the unlock
}

template <typename G>
recsys::RecommendationList EmigreT<G>::CurrentRanking(
    graph::NodeId user) const {
  if (std::shared_ptr<const recsys::RecommendationList> hit =
          last_ranking_.Find(user)) {
    EMIGRE_COUNTER("explain.ranking.reused").Increment();
    return *hit;
  }
  recsys::RecommendationList ranking = recsys::RankItems(*g_, user, opts_.rec);
  last_ranking_.Store(user, ranking);
  return ranking;
}

template <typename G>
Status EmigreT<G>::ValidateQuestion(const WhyNotQuestion& q,
                                    graph::NodeId rec) const {
  if (!g_->IsValidNode(q.user)) {
    return Status::InvalidArgument(StrFormat("invalid user %u", q.user));
  }
  if (!g_->IsValidNode(q.why_not_item)) {
    return Status::InvalidArgument(
        StrFormat("invalid Why-Not item %u", q.why_not_item));
  }
  if (g_->NodeType(q.why_not_item) != opts_.rec.item_type) {
    return Status::InvalidArgument(StrFormat(
        "Why-Not item %u is not an item node", q.why_not_item));
  }
  if (g_->HasEdge(q.user, q.why_not_item)) {
    return Status::InvalidArgument(StrFormat(
        "user %u already interacted with item %u (Definition 4.1 requires "
        "(u, WNI) ∉ E)",
        q.user, q.why_not_item));
  }
  if (q.why_not_item == rec) {
    return Status::InvalidArgument(StrFormat(
        "item %u already is the top recommendation", q.why_not_item));
  }
  return Status::OK();
}

namespace {

/// Fault sites whose fire counts grew between the two FireCounts snapshots.
std::vector<std::pair<std::string, uint64_t>> FaultDelta(
    const std::vector<std::pair<std::string, size_t>>& before,
    const std::vector<std::pair<std::string, size_t>>& after) {
  std::map<std::string, size_t> base(before.begin(), before.end());
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const auto& [site, fires] : after) {
    size_t prior = 0;
    if (auto it = base.find(site); it != base.end()) prior = it->second;
    if (fires > prior) out.emplace_back(site, fires - prior);
  }
  return out;
}

}  // namespace

template <typename G>
Result<Explanation> EmigreT<G>::Explain(const WhyNotQuestion& q, Mode mode,
                                        Heuristic heuristic) const {
  // One id per attempt, also inherited by this query's worker threads, so
  // timeline events and the audit record join back to this result.
  const uint64_t query_id = obs::BeginQuery();
  obs::QueryRecord record;
  record.query_id = query_id;
  WallTimer timer;
  std::vector<std::pair<std::string, size_t>> fires_before;
  if (opts_.query_log != nullptr) {
    fires_before = fault::FaultRegistry::Global().FireCounts();
  }
  obs::QueryRecord* record_ptr =
      opts_.query_log != nullptr ? &record : nullptr;

  // Exception boundary of the explain pipeline ("no exceptions cross public
  // API boundaries"): everything thrown below — worker-task failures
  // surfaced as StatusError, injected faults, deadline unwinds that escaped
  // the testers (e.g. during tester construction), stray std exceptions —
  // converts to a Status or a typed FailureReason here.
  Result<Explanation> outcome = [&]() -> Result<Explanation> {
    try {
      EMIGRE_FAULT_POINT("explain.query");
      return ExplainImpl(q, mode, heuristic, record_ptr);
    } catch (const StatusError& e) {
      return e.status();
    } catch (const DeadlineExceededError&) {
      Explanation out;
      out.mode = mode;
      out.heuristic = heuristic;
      out.failure = FailureReason::kBudgetExceeded;
      return out;
    } catch (const std::exception& e) {
      return Status::Internal(std::string("explain pipeline failure: ") +
                              e.what());
    }
  }();
  if (outcome.ok()) outcome->query_id = query_id;

  if (opts_.query_log != nullptr) {
    record.user = q.user;
    record.why_not_item = q.why_not_item;
    record.mode = std::string(ModeName(mode));
    record.heuristic = std::string(HeuristicName(heuristic));
    record.heuristic_chain = {record.mode + "/" + record.heuristic};
    record.deadline_seconds = opts_.deadline_seconds;
    record.max_tests = opts_.max_tests;
    record.test_threads = opts_.test_threads;
    record.tester =
        opts_.tester == TesterKind::kDynamicPush ? "dynamic_push" : "exact";
    record.anytime = opts_.anytime;
    record.seconds = timer.ElapsedSeconds();
    if (outcome.ok()) {
      const Explanation& e = *outcome;
      record.found = e.found;
      record.verified = e.verified;
      record.degraded = e.degraded;
      record.degraded_gap = e.degraded_gap;
      record.failure = std::string(FailureReasonName(e.failure));
      record.original_rec = e.original_rec;
      record.new_rec = e.new_rec;
      record.search_space_size = e.search_space_size;
      record.candidates_considered = e.candidates_considered;
      record.tests_performed = e.tests_performed;
      for (const graph::EdgeRef& edge : e.edges) {
        record.edges.push_back({edge.src, edge.dst, edge.type});
      }
    } else {
      record.error = outcome.status().ToString();
      record.failure = std::string(FailureReasonName(
          outcome.status().IsInvalidArgument()
              ? FailureReason::kInvalidQuestion
              : FailureReason::kInternalError));
    }
    record.faults_fired =
        FaultDelta(fires_before, fault::FaultRegistry::Global().FireCounts());
    Status log_status = opts_.query_log->Append(record);
    if (!log_status.ok()) {
      std::fprintf(stderr, "[emigre] query-log append failed: %s\n",
                   log_status.ToString().c_str());
    }
  }
  return outcome;
}

template <typename G>
Result<Explanation> EmigreT<G>::ExplainImpl(const WhyNotQuestion& q, Mode mode,
                                            Heuristic heuristic,
                                            obs::QueryRecord* record) const {
  EMIGRE_SPAN("explain");
  if (check::ShouldCheck(opts_.check_level, check::CheckLevel::kFull)) {
    // The HinGraph validator also cross-checks the type registries; other
    // views (the snapshot) get the structural GraphLike validation.
    if constexpr (std::is_same_v<G, graph::HinGraph>) {
      check::DcheckOk(check::ValidateGraph(*g_), "Emigre::Explain(graph)");
    } else {
      check::DcheckOk(check::ValidateGraphView(*g_), "Emigre::Explain(graph)");
    }
  }
  // Node-id bounds come first: CurrentRanking indexes adjacency by q.user,
  // so an invalid id must be rejected before ranking (caught by ASan).
  if (!g_->IsValidNode(q.user)) {
    return Status::InvalidArgument(StrFormat("invalid user %u", q.user));
  }
  if (!g_->IsValidNode(q.why_not_item)) {
    return Status::InvalidArgument(
        StrFormat("invalid Why-Not item %u", q.why_not_item));
  }
  WallTimer phase_timer;
  recsys::RecommendationList ranking = CurrentRanking(q.user);
  graph::NodeId rec = ranking.Top();
  EMIGRE_RETURN_IF_ERROR(ValidateQuestion(q, rec));
  if (record != nullptr) {
    record->phase_seconds.emplace_back("ranking", phase_timer.ElapsedSeconds());
  }

  phase_timer.Reset();
  EMIGRE_ASSIGN_OR_RETURN(
      SearchSpace space,
      mode == Mode::kRemove
          ? BuildRemoveSearchSpace(*g_, q.user, rec, q.why_not_item, opts_,
                                   ppr_cache_.get())
          : BuildAddSearchSpace(*g_, q.user, rec, q.why_not_item, opts_,
                                ppr_cache_.get()));
  if (record != nullptr) {
    record->phase_seconds.emplace_back("search_space",
                                       phase_timer.ElapsedSeconds());
  }

  // Per-query deadline, propagated cooperatively into the TEST path's PPR
  // loops (push kernels, dynamic repair, power iteration). The ranking and
  // search-space phases above intentionally run without it: their pushes
  // fill the shared cross-query PPR cache, and unwinding one mid-fill would
  // waste work later queries reuse. The Deadline outlives the testers (both
  // live to the end of this scope).
  Deadline deadline(opts_.deadline_seconds);
  deadline.Start();
  EmigreOptions eopts = opts_;
  eopts.rec.ppr.deadline = &deadline;

  // Factory for per-thread testers: each worker of a ParallelTester owns a
  // private overlay/dynamic-push state built by this closure.
  auto make_tester = [this, &q, &eopts]() -> std::unique_ptr<TesterInterface> {
    if (opts_.tester == TesterKind::kDynamicPush) {
      return std::make_unique<FastExplanationTesterT<G>>(
          *g_, q.user, q.why_not_item, eopts, &csr_);
    }
    return std::make_unique<ExplanationTesterT<G>>(*g_, q.user, q.why_not_item,
                                                   eopts, &csr_);
  };
  std::unique_ptr<TesterInterface> tester;
  if (opts_.test_threads != 1) {
    tester = std::make_unique<ParallelTester>(make_tester, opts_.test_threads);
  } else {
    tester = make_tester();
  }

  phase_timer.Reset();
  Explanation result;
  switch (heuristic) {
    case Heuristic::kIncremental:
      result = RunIncremental(space, *tester, opts_);
      break;
    case Heuristic::kPowerset:
      result = RunPowerset(space, *tester, opts_);
      break;
    case Heuristic::kExhaustive:
    case Heuristic::kExhaustiveDirect: {
      // T = the original top-k recommendation list (minus WNI, handled
      // inside), the items the Why-Not item must dominate.
      std::vector<graph::NodeId> targets;
      size_t k = opts_.exhaustive_targets > 0 ? opts_.exhaustive_targets
                                              : ranking.size();
      for (size_t i = 0; i < ranking.size() && targets.size() < k; ++i) {
        targets.push_back(ranking.at(i).item);
      }
      result = RunExhaustive(*g_, space, targets, *tester, opts_,
                             heuristic == Heuristic::kExhaustiveDirect,
                             ppr_cache_.get());
      break;
    }
    case Heuristic::kBruteForce:
      result = RunBruteForce(space, *tester, opts_);
      break;
  }
  if (record != nullptr) {
    record->phase_seconds.emplace_back("heuristic",
                                       phase_timer.ElapsedSeconds());
  }
  result.original_rec = rec;
  // Verified results went through the exact TEST; replaying them must flip
  // the recommendation. Unverified ones (approximate testers, the
  // Exhaustive-direct baseline) may legitimately fail replay — the eval
  // harness measures that, so they are not validated here.
  if (result.found && result.verified &&
      check::ShouldCheck(opts_.check_level, check::CheckLevel::kBasic)) {
    check::DcheckOk(check::ValidateExplanation(*g_, q, result, opts_),
                    "Emigre::Explain(explanation)");
  }
  return result;
}

template <typename G>
Result<Explanation> EmigreT<G>::ExplainAuto(const WhyNotQuestion& q,
                                            Heuristic heuristic) const {
  // §5.4: Remove mode reasons over the user's own history — meaningful when
  // that history exists. Otherwise, and whenever Remove fails (the paper's
  // popular-item cases), fall back to Add mode's wider search space.
  size_t allowed_actions = 0;
  if (g_->IsValidNode(q.user)) {
    g_->ForEachOutEdge(
        q.user, [&](graph::NodeId dst, graph::EdgeTypeId type, double) {
          if (dst != q.user && opts_.IsAllowedEdgeType(type)) {
            ++allowed_actions;
          }
        });
  }
  if (allowed_actions > 0) {
    EMIGRE_ASSIGN_OR_RETURN(Explanation removal,
                            Explain(q, Mode::kRemove, heuristic));
    if (removal.found && !removal.degraded) return removal;
    if (removal.found) {
      // Anytime mode handed back a degraded best-so-far: prefer a real
      // Add-mode explanation if one exists, otherwise keep the degraded
      // removal (better than Add mode's failure or its own degraded
      // candidate, which lacks the Remove-mode contribution ordering).
      EMIGRE_ASSIGN_OR_RETURN(Explanation addition,
                              Explain(q, Mode::kAdd, heuristic));
      if (addition.found && !addition.degraded) return addition;
      return removal;
    }
  }
  return Explain(q, Mode::kAdd, heuristic);
}

// Explicit instantiations: the classic in-memory graph and the mmap-backed
// snapshot view.
template class EmigreT<graph::HinGraph>;
template class EmigreT<graph::CsrSnapshotView>;

}  // namespace emigre::explain
