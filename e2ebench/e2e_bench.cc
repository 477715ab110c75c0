// End-to-end Why-Not query benchmark (see README.md in this directory).
//
//   e2e_bench prepare --workload W --seed N --dir D
//       Generates the workload's band with seed N, converts it to an
//       emigre.csr.v1 snapshot (D/<band>-<N>.csr) and samples the seeded
//       question list (D/<W>-<N>.questions). Runs outside the measured
//       process, so it inflates neither setup_s nor peak_rss_mb.
//   e2e_bench serve --workload W --dir D --seed N --seconds S --trace 0|1
//       Serves the question list through the public facade in a closed
//       loop (one client, next request when the previous one returns),
//       checks every answer, and prints the metrics. With --trace 1 it also
//       replays every question through the layer functions with spans
//       recorded around each call, prints the per-layer metrics and writes
//       the spans to D/<W>-<N>.spans.json.
//
// The last line of `serve`'s standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.h"
#include "data/bin_io.h"
#include "data/dataset_to_csr.h"
#include "data/synthetic_amazon.h"
#include "explain/brute_force.h"
#include "explain/emigre.h"
#include "explain/exhaustive.h"
#include "explain/incremental.h"
#include "explain/meta.h"
#include "explain/powerset.h"
#include "explain/search_space.h"
#include "explain/tester.h"
#include "graph/csr_snapshot.h"
#include "graph/overlay.h"
#include "obs/metrics.h"
#include "ppr/cache.h"
#include "recsys/recommender.h"
#include "util/rng.h"

namespace {

using namespace emigre;  // NOLINT(google-build-using-namespace)
using View = graph::CsrSnapshotView;
using Engine = explain::EmigreT<View>;
using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "e2e_bench: %s\n", msg.c_str());
  std::exit(1);
}

// --- Workloads ---------------------------------------------------------------

/// One way of answering a question: a heuristic in a fixed mode, or the
/// CLI default `ExplainAuto` (Remove first, then Add).
struct Method {
  const char* name;
  explain::Heuristic heuristic;
  explain::Mode mode;
  bool auto_mode;
};

constexpr Method kAutoIncremental{"auto/incremental",
                                  explain::Heuristic::kIncremental,
                                  explain::Mode::kRemove, true};
// The Table 5 method set: Powerset and Exhaustive in both modes, BruteForce
// (the oracle baseline) in Remove mode only.
constexpr Method kTable5[] = {
    {"add/powerset", explain::Heuristic::kPowerset, explain::Mode::kAdd,
     false},
    {"remove/powerset", explain::Heuristic::kPowerset, explain::Mode::kRemove,
     false},
    {"add/exhaustive", explain::Heuristic::kExhaustive, explain::Mode::kAdd,
     false},
    {"remove/exhaustive", explain::Heuristic::kExhaustive,
     explain::Mode::kRemove, false},
    {"remove/brute_force", explain::Heuristic::kBruteForce,
     explain::Mode::kRemove, false},
};

struct Workload {
  std::string name;
  std::string band;     ///< SyntheticAmazonPreset name
  bool recommend_only;  ///< requests are top-10 rankings, not questions
  size_t graphs;        ///< snapshots generated per seed
  size_t users;         ///< users sampled per snapshot
  size_t positions;     ///< Why-Not positions (ranks 1..9) per user
  std::vector<Method> methods;  ///< methods run on every question
  size_t max_tests;     ///< deterministic stand-in for the CLI's deadline
};

std::optional<Workload> FindWorkload(const std::string& name) {
  if (name == "interactive-medium") {
    return Workload{name, "medium", false, 1, 8, 3, {kAutoIncremental}, 2};
  }
  if (name == "search-small") {
    return Workload{name, "small", false, 4, 10, 1,
                    std::vector<Method>(std::begin(kTable5), std::end(kTable5)),
                    8};
  }
  if (name == "recommend-medium") {
    return Workload{name, "medium", true, 1, 40, 0, {}, 0};
  }
  return std::nullopt;
}

constexpr size_t kTopN = 10;

/// The options `emigre explain` uses (QueryOptionsFor in the CLI) with the
/// kernel engine, the exact tester and serial TESTs, except that the
/// wall-clock deadline becomes a TEST cap, so every answer is a function of
/// the inputs alone.
explain::EmigreOptions QueryOptions(const View& g, const Workload& w) {
  explain::EmigreOptions opts;
  opts.rec.item_type = g.FindNodeType("item");
  if (opts.rec.item_type == graph::kInvalidNodeType) {
    Die("snapshot has no 'item' node type");
  }
  for (const char* name : {"rated", "reviewed"}) {
    graph::EdgeTypeId t = g.FindEdgeType(name);
    if (t != graph::kInvalidEdgeType) opts.allowed_edge_types.push_back(t);
  }
  opts.add_edge_type = g.FindEdgeType("rated");
  opts.rec.ppr.epsilon = 1e-7;
  opts.rec.ppr.engine = ppr::PushEngine::kKernel;
  opts.tester = explain::TesterKind::kExact;
  opts.test_threads = 1;
  opts.deadline_seconds = 0.0;
  if (w.max_tests > 0) opts.max_tests = w.max_tests;
  return opts;
}

/// One request of the closed loop: a Why-Not question on snapshot `graph`,
/// answered by every method of the workload in turn, or (recommend-only) a
/// user's top-10.
struct Request {
  size_t graph = 0;
  graph::NodeId user = graph::kInvalidNode;
  graph::NodeId wni = graph::kInvalidNode;
};

/// Generator seed of snapshot `j` of a run with workload seed `seed`.
uint64_t GraphSeed(uint64_t seed, size_t j) {
  return seed + j * 0x9E3779B97F4A7C15ULL;
}

std::string SnapshotPath(const std::string& dir, const Workload& w,
                         uint64_t seed, size_t j) {
  return dir + "/" + w.band + "-" + std::to_string(GraphSeed(seed, j)) +
         ".csr";
}

std::string QuestionsPath(const std::string& dir, const Workload& w,
                          uint64_t seed) {
  return dir + "/" + w.name + "-" + std::to_string(seed) + ".questions";
}

std::string SpansPath(const std::string& dir, const Workload& w,
                      uint64_t seed) {
  return dir + "/" + w.name + "-" + std::to_string(seed) + ".spans.json";
}

// --- prepare -----------------------------------------------------------------

/// Samples `users` user nodes, then `positions` distinct Why-Not ranks from
/// 1..9 of each user's current top-10 (Definition 4.1 holds by
/// construction: ranked items are non-interacted and differ from rec).
std::vector<Request> SampleRequests(const View& g, const Workload& w,
                                    uint64_t seed, size_t graph_index) {
  explain::EmigreOptions opts = QueryOptions(g, w);
  graph::NodeTypeId user_type = g.FindNodeType("user");
  std::vector<graph::NodeId> all_users;
  for (graph::NodeId n = 0; n < g.NumNodes(); ++n) {
    if (g.NodeType(n) == user_type) all_users.push_back(n);
  }
  if (all_users.size() < w.users) Die("band has too few users");
  // Stratified by activity: users sorted by their number of allowed actions
  // (what sizes the Remove-mode search space and drives the cost of a
  // question) are cut into `w.users` equal strata, and one user is drawn
  // from each. Every seed then asks about the same spread of users.
  std::vector<std::pair<size_t, graph::NodeId>> by_activity;
  for (graph::NodeId u : all_users) {
    size_t actions = 0;
    g.ForEachOutEdge(u, [&](graph::NodeId, graph::EdgeTypeId t, double) {
      actions += opts.IsAllowedEdgeType(t);
    });
    by_activity.emplace_back(actions, u);
  }
  std::sort(by_activity.begin(), by_activity.end());
  Rng rng(GraphSeed(seed, graph_index) ^ 0x5eed5eedULL);
  std::vector<graph::NodeId> sampled;
  const size_t n = all_users.size();
  for (size_t i = 0; i < w.users; ++i) {
    size_t lo = i * n / w.users, hi = (i + 1) * n / w.users;
    sampled.push_back(by_activity[lo + rng.NextBounded(hi - lo)].second);
  }
  // Seeded request order, so strata are not served in activity order.
  std::vector<size_t> order(w.users);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::vector<Request> out;
  for (size_t i : order) {
    graph::NodeId user = sampled[i];
    if (w.recommend_only) {
      out.push_back({graph_index, user, graph::kInvalidNode});
      continue;
    }
    recsys::RecommendationList top =
        recsys::RankItems(g, user, opts.rec).TopN(kTopN);
    // Stratified ranks: question j of stratum order asks about rank
    // 1 + 4j mod 9, so every seed pairs the same activity strata with the
    // same Why-Not ranks, and every rank is asked about equally often.
    for (size_t k = 0; k < w.positions; ++k) {
      size_t rank = 1 + (4 * (i * w.positions + k)) % (kTopN - 1);
      if (rank < top.size()) {
        out.push_back({graph_index, user, top.at(rank).item});
      }
    }
  }
  return out;
}

int RunPrepare(const Workload& w, uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = QuestionsPath(dir, w, seed);
  if (std::filesystem::exists(path)) return 0;
  std::vector<Request> requests;
  for (size_t j = 0; j < w.graphs; ++j) {
    const std::string snapshot = SnapshotPath(dir, w, seed, j);
    if (!std::filesystem::exists(snapshot)) {
      Result<data::SyntheticAmazonOptions> gen =
          data::SyntheticAmazonPreset(w.band);
      if (!gen.ok()) Die(gen.status().ToString());
      gen->seed = GraphSeed(seed, j);
      const std::string bin = snapshot + ".bin.tmp";
      const std::string tmp = snapshot + ".tmp";
      Status st = data::GenerateSyntheticAmazonBin(gen.value(), bin);
      if (!st.ok()) Die(st.ToString());
      Result<data::DatasetToCsrStats> stats =
          data::ConvertBinDatasetToCsrSnapshot(bin, tmp);
      if (!stats.ok()) Die(stats.status().ToString());
      std::filesystem::remove(bin);
      std::filesystem::rename(tmp, snapshot);
    }
    Result<View> view = View::Load(snapshot);
    if (!view.ok()) Die(view.status().ToString());
    std::vector<Request> part = SampleRequests(view.value(), w, seed, j);
    requests.insert(requests.end(), part.begin(), part.end());
    std::printf("prepared %s graph %zu: %zu nodes, %zu edges, %zu requests\n",
                w.name.c_str(), j, view->NumNodes(), view->NumEdges(),
                part.size());
  }
  {
    std::ofstream out(path + ".tmp");
    for (const Request& r : requests) {
      out << r.graph << ' ' << r.user << ' ' << r.wni << '\n';
    }
    if (!out) Die("cannot write " + path);
  }
  std::filesystem::rename(path + ".tmp", path);
  return 0;
}

std::vector<Request> ReadRequests(const std::string& path, const Workload& w) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path + " (run prepare first)");
  std::vector<Request> out;
  Request r;
  while (in >> r.graph >> r.user >> r.wni) {
    if (r.graph >= w.graphs) Die("bad snapshot index in " + path);
    out.push_back(r);
  }
  if (out.empty()) Die("no requests in " + path);
  return out;
}

// --- Answers -----------------------------------------------------------------

/// What one method answered: the facade's explanation, plus the CLI's
/// diagnosis when nothing was found.
struct Outcome {
  bool ok = true;  ///< false: the facade returned an error Status
  std::string error;
  bool found = false;
  bool verified = false;
  explain::Mode mode = explain::Mode::kRemove;
  std::vector<graph::EdgeRef> edges;
  explain::FailureReason failure = explain::FailureReason::kNone;
  explain::FailureReason diagnosis = explain::FailureReason::kNone;
  size_t tests = 0;

  void Take(const explain::Explanation& e) {
    found = e.found;
    verified = e.verified;
    mode = e.mode;
    edges = e.edges;
    failure = e.failure;
    tests = e.tests_performed;
  }
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// What one request produced: one outcome per method, or a top-10 list.
struct Answer {
  std::vector<Outcome> outcomes;
  std::vector<recsys::ScoredItem> top;

  friend bool operator==(const Answer&, const Answer&) = default;

  /// Identity of the answer: what a later change must reproduce exactly.
  uint64_t Digest(size_t index) const {
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
    };
    mix(index);
    for (const Outcome& o : outcomes) {
      mix(o.ok);
      mix(o.found);
      mix(static_cast<uint64_t>(o.mode));
      mix(static_cast<uint64_t>(o.failure));
      mix(static_cast<uint64_t>(o.diagnosis));
      mix(o.tests);
      for (const graph::EdgeRef& e : o.edges) {
        mix(e.src);
        mix(e.dst);
        mix(e.type);
      }
    }
    for (const recsys::ScoredItem& s : top) {
      uint64_t bits = 0;
      std::memcpy(&bits, &s.score, sizeof(bits));
      mix(s.item);
      mix(bits);
    }
    return h;
  }
};

/// The §6.4 meta-explanation `emigre explain` prints on failure: it rebuilds
/// the failed mode's search space without the engine's cache.
explain::FailureReason Diagnose(const View& g, const explain::WhyNotQuestion& q,
                                const explain::Explanation& e,
                                const explain::EmigreOptions& opts) {
  Result<explain::SearchSpace> space =
      e.mode == explain::Mode::kRemove
          ? explain::BuildRemoveSearchSpace(g, q.user, e.original_rec,
                                            q.why_not_item, opts)
          : explain::BuildAddSearchSpace(g, q.user, e.original_rec,
                                         q.why_not_item, opts);
  if (!space.ok()) return explain::FailureReason::kInternalError;
  return explain::DiagnoseFailure(g, space.value(), e, opts).reason;
}

/// One request through the public facade: each method answers the way
/// `emigre explain --mode M --heuristic H` does.
Answer Serve(const Engine& engine, const Workload& w, const Request& r) {
  Answer a;
  if (w.recommend_only) {
    a.top = engine.CurrentRanking(r.user).TopN(kTopN).items();
    return a;
  }
  const explain::WhyNotQuestion q{r.user, r.wni};
  for (const Method& m : w.methods) {
    Outcome& o = a.outcomes.emplace_back();
    Result<explain::Explanation> res =
        m.auto_mode ? engine.ExplainAuto(q, m.heuristic)
                    : engine.Explain(q, m.mode, m.heuristic);
    if (!res.ok()) {
      o.ok = false;
      o.error = res.status().ToString();
      continue;
    }
    o.Take(res.value());
    if (!o.found) {
      o.diagnosis = Diagnose(engine.graph(), q, res.value(), engine.options());
    }
  }
  return a;
}

// --- Tracing -------------------------------------------------------------------

enum Layer : int {
  kRequest = 0,
  kRank,
  kSearchSpace,
  kHeuristic,
  kTester,
  kMeta,
  kNumLayers
};
constexpr const char* kLayerNames[kNumLayers] = {
    "request", "recsys.rank", "explain.search_space", "explain.heuristic",
    "explain.tester", "explain.meta"};

struct Span {
  uint32_t request;
  Layer layer;
  int32_t parent;  ///< index into the span list, -1 for a request root
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder: spans are appended as they open and written
/// out once the run ends.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, Layer layer) : t_(t) { t_->Open(layer); }
    ~Scope() { t_->Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  void set_request(uint32_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  void Open(Layer layer) {
    int32_t parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int32_t>(spans_.size()));
    spans_.push_back({request_, layer, parent, Clock::now(), {}});
  }
  void Close() {
    spans_[static_cast<size_t>(open_.back())].end = Clock::now();
    open_.pop_back();
  }

  uint32_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// TEST decorator: a span around every Test/TestMixed, plus the accepted
/// count. Batches go through the base class's serial scan, i.e. Test().
class TracedTester final : public explain::TesterInterface {
 public:
  TracedTester(explain::TesterInterface* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  bool Test(const std::vector<graph::EdgeRef>& edits, explain::Mode mode,
            graph::NodeId* new_rec) override {
    Tracer::Scope span(tracer_, kTester);
    bool ok = inner_->Test(edits, mode, new_rec);
    accepted_ += ok;
    return ok;
  }
  bool TestMixed(const std::vector<ModedEdit>& edits,
                 graph::NodeId* new_rec) override {
    Tracer::Scope span(tracer_, kTester);
    bool ok = inner_->TestMixed(edits, new_rec);
    accepted_ += ok;
    return ok;
  }
  size_t num_tests() const override { return inner_->num_tests(); }
  bool IsExact() const override { return inner_->IsExact(); }
  size_t accepted() const { return accepted_; }

 private:
  explain::TesterInterface* inner_;
  Tracer* tracer_;
  size_t accepted_ = 0;
};

/// Work the traced replay counts at the layer boundaries.
struct LayerCounts {
  size_t search_space_candidates = 0;  ///< Σ |H| over search-space builds
  size_t heuristic_candidates = 0;     ///< Σ candidates_considered
  size_t tests_accepted = 0;
};

/// Replays one request through the layer functions themselves, mirroring
/// `EmigreT::Explain`/`ExplainAuto` and the CLI's diagnosis, with a span
/// around each layer call. `cache` is the benchmark's own reverse-push
/// cache over the engine's CSR, standing in for the facade's.
class Replayer {
 public:
  Replayer(const Engine& engine, const Workload& w,
           ppr::ReversePushCache<graph::CsrGraph>* cache, Tracer* tracer)
      : engine_(engine), w_(w), cache_(cache), tracer_(tracer) {}

  Answer Run(const Request& r) {
    Tracer::Scope root(tracer_, kRequest);
    Answer a;
    if (w_.recommend_only) {
      a.top = Rank(r.user).TopN(kTopN).items();
      return a;
    }
    const explain::WhyNotQuestion q{r.user, r.wni};
    for (const Method& m : w_.methods) {
      Outcome& o = a.outcomes.emplace_back();
      Result<explain::Explanation> res =
          m.auto_mode ? Auto(q, m.heuristic) : Attempt(q, m.mode, m.heuristic);
      if (!res.ok()) {
        o.ok = false;
        o.error = res.status().ToString();
        continue;
      }
      o.Take(res.value());
      if (!o.found) {
        Tracer::Scope span(tracer_, kMeta);
        o.diagnosis =
            Diagnose(engine_.graph(), q, res.value(), engine_.options());
      }
    }
    return a;
  }

  const LayerCounts& counts() const { return counts_; }

 private:
  recsys::RecommendationList Rank(graph::NodeId user) {
    Tracer::Scope span(tracer_, kRank);
    return engine_.CurrentRanking(user);
  }

  Result<explain::Explanation> Auto(const explain::WhyNotQuestion& q,
                                    explain::Heuristic h) {
    const explain::EmigreOptions& opts = engine_.options();
    size_t allowed_actions = 0;
    engine_.graph().ForEachOutEdge(
        q.user, [&](graph::NodeId dst, graph::EdgeTypeId type, double) {
          if (dst != q.user && opts.IsAllowedEdgeType(type)) ++allowed_actions;
        });
    if (allowed_actions > 0) {
      Result<explain::Explanation> removal =
          Attempt(q, explain::Mode::kRemove, h);
      if (!removal.ok() || removal->found) return removal;
    }
    return Attempt(q, explain::Mode::kAdd, h);
  }

  Result<explain::Explanation> Attempt(const explain::WhyNotQuestion& q,
                                       explain::Mode mode,
                                       explain::Heuristic h) {
    const View& g = engine_.graph();
    const explain::EmigreOptions& opts = engine_.options();
    recsys::RecommendationList ranking = Rank(q.user);
    graph::NodeId rec = ranking.Top();
    Status valid = engine_.ValidateQuestion(q, rec);
    if (!valid.ok()) return valid;
    Result<explain::SearchSpace> space = [&] {
      Tracer::Scope span(tracer_, kSearchSpace);
      return mode == explain::Mode::kRemove
                 ? explain::BuildRemoveSearchSpace(g, q.user, rec,
                                                   q.why_not_item, opts, cache_)
                 : explain::BuildAddSearchSpace(g, q.user, rec, q.why_not_item,
                                                opts, cache_);
    }();
    if (!space.ok()) return space.status();
    counts_.search_space_candidates += space->actions.size();

    explain::ExplanationTesterT<View> exact(g, q.user, q.why_not_item, opts,
                                            &engine_.csr());
    TracedTester tester(&exact, tracer_);
    explain::Explanation result;
    {
      Tracer::Scope span(tracer_, kHeuristic);
      switch (h) {
        case explain::Heuristic::kIncremental:
          result = explain::RunIncremental(space.value(), tester, opts);
          break;
        case explain::Heuristic::kPowerset:
          result = explain::RunPowerset(space.value(), tester, opts);
          break;
        case explain::Heuristic::kExhaustive:
        case explain::Heuristic::kExhaustiveDirect: {
          std::vector<graph::NodeId> targets;
          size_t k = opts.exhaustive_targets > 0 ? opts.exhaustive_targets
                                                 : ranking.size();
          for (size_t i = 0; i < ranking.size() && targets.size() < k; ++i) {
            targets.push_back(ranking.at(i).item);
          }
          result = explain::RunExhaustive(
              g, space.value(), targets, tester, opts,
              h == explain::Heuristic::kExhaustiveDirect, cache_);
          break;
        }
        case explain::Heuristic::kBruteForce:
          result = explain::RunBruteForce(space.value(), tester, opts);
          break;
      }
    }
    counts_.heuristic_candidates += result.candidates_considered;
    counts_.tests_accepted += tester.accepted();
    result.original_rec = rec;
    return result;
  }

  const Engine& engine_;
  const Workload& w_;
  ppr::ReversePushCache<graph::CsrGraph>* cache_;
  Tracer* tracer_;
  LayerCounts counts_;
};

/// Per-layer self time (span duration minus its children's), call counts
/// and per-call durations, aggregated over a span list.
struct LayerTimes {
  double self_ms[kNumLayers] = {};
  double total_ms[kNumLayers] = {};
  size_t calls[kNumLayers] = {};
  std::vector<double> call_ms[kNumLayers];
};

LayerTimes AggregateSpans(const std::vector<Span>& spans) {
  LayerTimes t;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += MsBetween(s.start, s.end);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double ms = MsBetween(s.start, s.end);
    t.total_ms[s.layer] += ms;
    t.self_ms[s.layer] += ms - child_ms[i];
    ++t.calls[s.layer];
    t.call_ms[s.layer].push_back(ms);
  }
  return t;
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto) of the spans.
void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (spans.empty()) return;
  std::ofstream out(path);
  const Clock::time_point t0 = spans.front().start;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", kLayerNames[s.layer],
                  MsBetween(t0, s.start) * 1e3, MsBetween(s.start, s.end) * 1e3,
                  s.request, i, s.parent);
    out << line;
  }
  out << "\n]}\n";
  if (!out) std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
}

// --- Measurement helpers ---------------------------------------------------------

/// Linear-interpolated percentile (numpy's default) of unsorted samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

/// The highest whole percentile that leaves at least 10 of `n` samples
/// above it. Fixed by the question count, so it does not move with machine
/// speed.
int TailPercentile(size_t n) {
  if (n <= 10) return 0;
  return static_cast<int>(std::floor(100.0 * static_cast<double>(n - 10) /
                                     static_cast<double>(n)));
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).Value();
}

/// The program's own obs counters that explain a pass's work.
struct Work {
  uint64_t tests = 0;
  uint64_t power_iterations = 0;
  uint64_t rlp_pushes = 0;

  static Work Now() {
    Work w;
    w.tests = CounterValue("explain.tests.exact");
    w.power_iterations = CounterValue("ppr.power.iterations");
    // The facade's cache pushes with the kernel engine; the diagnosis
    // rebuild (no cache) falls back to the dense legacy push.
    w.rlp_pushes = CounterValue("ppr.rlp.pushes") +
                   CounterValue("ppr.rlp.kernel.pushes") +
                   CounterValue("ppr.rlp.fast.pushes");
    return w;
  }
  Work Minus(const Work& o) const {
    return {tests - o.tests, power_iterations - o.power_iterations,
            rlp_pushes - o.rlp_pushes};
  }
  bool operator==(const Work&) const = default;
};

/// A loaded snapshot and the engine over it, with their set-up times.
struct Served {
  std::unique_ptr<View> view;
  std::unique_ptr<Engine> engine;
  double load_ms = 0.0;
  double init_ms = 0.0;
};

Served SetUp(const std::string& snapshot, const Workload& w) {
  Served s;
  Clock::time_point t0 = Clock::now();
  Result<View> view = View::Load(snapshot);
  if (!view.ok()) Die(view.status().ToString());
  s.view = std::make_unique<View>(std::move(view).value());
  Clock::time_point t1 = Clock::now();
  s.engine = std::make_unique<Engine>(*s.view, QueryOptions(*s.view, w));
  Clock::time_point t2 = Clock::now();
  s.load_ms = MsBetween(t0, t1);
  s.init_ms = MsBetween(t1, t2);
  return s;
}

/// Fresh engines over every snapshot of the run; set-up times go to
/// `record`.
template <typename F>
std::vector<Served> SetUpAll(const std::vector<std::string>& snapshots,
                             const Workload& w, F&& record) {
  std::vector<Served> out;
  for (const std::string& path : snapshots) {
    out.push_back(SetUp(path, w));
    record(out.back());
  }
  return out;
}

/// Result line metrics, in insertion order.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  void Print() const {
    for (const Item& m : items_) {
      std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    items_[i].name.c_str(), items_[i].value,
                    items_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Violations of the answer check; any one makes the run incorrect.
class Checker {
 public:
  void Fail(const std::string& msg) {
    if (violations_ < 20) std::printf("CHECK FAILED: %s\n", msg.c_str());
    ++violations_;
  }
  bool ok() const { return violations_ == 0; }

 private:
  size_t violations_ = 0;
};

/// Untimed answer check of one first-pass answer against the math: a found
/// explanation must replay under `check::ValidateExplanation` (power
/// iteration on a fresh overlay); a not-found one must carry a typed
/// reason; a top-10 list must match a ranking recomputed on an overlay.
/// Returns false when the answer counts as failed.
bool CheckAnswer(const Engine& engine, const Workload& w, const Request& r,
                 const Answer& a, size_t index, Checker* checker) {
  const std::string where = "request " + std::to_string(index);
  if (w.recommend_only) {
    graph::BasicGraphOverlay<View> overlay(engine.graph());
    std::vector<recsys::ScoredItem> want =
        recsys::RankItems(overlay, r.user, engine.options().rec)
            .TopN(kTopN)
            .items();
    bool same = want.size() == kTopN && want.size() == a.top.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same = want[i].item == a.top[i].item &&
             std::abs(want[i].score - a.top[i].score) <=
                 1e-12 * std::max(1.0, std::abs(want[i].score));
    }
    if (!same) {
      checker->Fail(where + ": top-10 list differs from the overlay ranking");
    }
    return same;
  }
  bool ok = true;
  for (size_t m = 0; m < a.outcomes.size(); ++m) {
    const Outcome& o = a.outcomes[m];
    const std::string what = where + " " + w.methods[m].name;
    if (!o.ok) {
      checker->Fail(what + ": error status " + o.error);
      ok = false;
    } else if (o.found) {
      explain::Explanation e;
      e.mode = o.mode;
      e.found = true;
      e.verified = o.verified;
      e.edges = o.edges;
      Status st = check::ValidateExplanation(
          engine.graph(), explain::WhyNotQuestion{r.user, r.wni}, e,
          engine.options());
      if (!o.verified || !st.ok()) {
        checker->Fail(what + ": found answer fails replay: " + st.ToString());
        ok = false;
      }
    } else if (o.failure == explain::FailureReason::kNone ||
               o.failure == explain::FailureReason::kInternalError) {
      checker->Fail(what + ": not-found answer has no typed failure reason");
      ok = false;
    }
  }
  return ok;
}

// --- serve ---------------------------------------------------------------------

struct PassResult {
  std::vector<Answer> answers;
  std::vector<double> latency_ms;
  Work work;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  bool complete = false;
};

/// One pass over the request list through the facade on fresh engines.
/// Passes after the first stop at `deadline`. `between` runs before each
/// request, outside its latency.
template <typename F>
PassResult ServePass(const std::vector<Served>& served, const Workload& w,
                     const std::vector<Request>& requests,
                     std::optional<Clock::time_point> deadline, F&& between) {
  PassResult p;
  Work before = Work::Now();
  for (const Request& r : requests) {
    if (deadline && Clock::now() >= *deadline) break;
    between();
    Clock::time_point t0 = Clock::now();
    p.answers.push_back(Serve(*served[r.graph].engine, w, r));
    p.latency_ms.push_back(MsBetween(t0, Clock::now()));
  }
  p.complete = p.answers.size() == requests.size();
  p.work = Work::Now().Minus(before);
  for (const Served& s : served) {
    p.cache_hits += s.engine->ppr_cache().hits();
    p.cache_misses += s.engine->ppr_cache().misses();
  }
  return p;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One traced replay of the request list on fresh engines, each with the
/// benchmark's own reverse-push cache over the engine's CSR.
struct TracedPassResult {
  std::vector<Answer> answers;
  std::vector<Span> spans;
  LayerTimes layers;
  std::vector<double> latency_ms;  ///< per request: its root span
  LayerCounts counts;
  Work work;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

TracedPassResult TracedPass(const std::vector<std::string>& snapshots,
                            const Workload& w,
                            const std::vector<Request>& requests) {
  TracedPassResult out;
  std::vector<Served> served = SetUpAll(snapshots, w, [](const Served&) {});
  std::vector<std::unique_ptr<ppr::ReversePushCache<graph::CsrGraph>>> caches;
  std::vector<std::unique_ptr<Replayer>> replayers;
  Tracer tracer;
  for (const Served& s : served) {
    caches.push_back(std::make_unique<ppr::ReversePushCache<graph::CsrGraph>>(
        s.engine->csr(), s.engine->options().rec.ppr));
    replayers.push_back(std::make_unique<Replayer>(*s.engine, w,
                                                   caches.back().get(), &tracer));
  }
  Work before = Work::Now();
  for (size_t i = 0; i < requests.size(); ++i) {
    tracer.set_request(static_cast<uint32_t>(i));
    out.answers.push_back(replayers[requests[i].graph]->Run(requests[i]));
  }
  out.work = Work::Now().Minus(before);
  out.spans = tracer.spans();
  out.layers = AggregateSpans(out.spans);
  for (const Span& s : out.spans) {
    if (s.parent < 0) out.latency_ms.push_back(MsBetween(s.start, s.end));
  }
  for (size_t j = 0; j < replayers.size(); ++j) {
    const LayerCounts& c = replayers[j]->counts();
    out.counts.search_space_candidates += c.search_space_candidates;
    out.counts.heuristic_candidates += c.heuristic_candidates;
    out.counts.tests_accepted += c.tests_accepted;
    out.cache_hits += caches[j]->hits();
    out.cache_misses += caches[j]->misses();
  }
  return out;
}

/// Each request's fastest latency over the passes that served it. Every
/// pass repeats the same work on fresh engines, so the fastest sample is
/// the one least disturbed by other load on the machine.
std::vector<double> BestLatencies(
    const std::vector<const std::vector<double>*>& passes) {
  std::vector<double> best = *passes.front();
  for (const std::vector<double>* p : passes) {
    for (size_t i = 0; i < p->size() && i < best.size(); ++i) {
      best[i] = std::min(best[i], (*p)[i]);
    }
  }
  return best;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Set-ups timed before each request. A set-up takes tens of microseconds,
/// and its speed shifts with the host's load from one moment to the next,
/// so samples spread over the whole run give a steady median.
constexpr int kSetupsPerRequest = 25;

int RunServe(const Workload& w, uint64_t seed, const std::string& dir,
             double seconds, bool trace) {
  std::vector<std::string> snapshots;
  for (size_t j = 0; j < w.graphs; ++j) {
    snapshots.push_back(SnapshotPath(dir, w, seed, j));
  }
  const std::vector<Request> requests =
      ReadRequests(QuestionsPath(dir, w, seed), w);
  Checker checker;

  // Set-up: snapshot Load + engine construction, repeated; median reported.
  std::vector<double> load_ms, init_ms, setup_s;
  auto record_setup = [&](const Served& s) {
    load_ms.push_back(s.load_ms);
    init_ms.push_back(s.init_ms);
    setup_s.push_back((s.load_ms + s.init_ms) / 1e3);
  };
  size_t next_setup = 0;
  auto time_setups = [&] {
    for (int i = 0; i < kSetupsPerRequest; ++i) {
      record_setup(SetUp(snapshots[next_setup++ % snapshots.size()], w));
    }
  };

  // Closed loop, one client. Every pass serves the request list on fresh
  // engines, so it repeats pass 0's work exactly. Pass 0 always completes;
  // later passes stop at `seconds`. A traced run follows pass 0 with one
  // complete traced replay, and each later pass with another one if the
  // last replay's time still fits before `seconds`.
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<PassResult> passes;
  std::vector<TracedPassResult> traced;
  double peak_rss_mb = 0.0;
  for (;;) {
    {
      std::vector<Served> served = SetUpAll(snapshots, w, record_setup);
      passes.push_back(ServePass(
          served, w, requests,
          passes.empty() ? std::nullopt
                         : std::optional<Clock::time_point>(deadline),
          time_setups));
    }
    if (passes.size() == 1) peak_rss_mb = PeakRssMb();
    if (trace &&
        (traced.empty() ||
         Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                Sum(traced.back().latency_ms))) <
             deadline)) {
      traced.push_back(TracedPass(snapshots, w, requests));
    }
    if (Clock::now() >= deadline) break;
  }
  const double measured_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Answer check (untimed) of pass 0 on fresh engines; every later pass and
  // every traced replay must reproduce pass 0 exactly.
  std::vector<Served> oracle = SetUpAll(snapshots, w, [](const Served&) {});
  const PassResult& first = passes.front();
  std::vector<bool> failed0(requests.size(), false);
  // An answer is one explanation per method, or one top-10 list.
  size_t asked = 0, found = 0, found_edges = 0;
  uint64_t digest = 1469598103934665603ULL;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Answer& a = first.answers[i];
    failed0[i] = !CheckAnswer(*oracle[requests[i].graph].engine, w,
                              requests[i], a, i, &checker);
    if (w.recommend_only) {
      ++asked;
      found += !failed0[i];
      found_edges += failed0[i] ? 0 : a.top.size();
    }
    for (const Outcome& o : a.outcomes) {
      ++asked;
      if (o.found && !failed0[i]) {
        ++found;
        found_edges += o.edges.size();
      }
    }
    digest = (digest ^ a.Digest(i)) * 1099511628211ULL;
  }
  size_t attempted = 0, failed = 0;
  std::vector<const std::vector<double>*> untraced_latencies;
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pass = passes[p];
    attempted += pass.answers.size();
    untraced_latencies.push_back(&pass.latency_ms);
    for (size_t i = 0; i < pass.answers.size(); ++i) {
      failed += failed0[i];
      if (p > 0 && !(pass.answers[i] == first.answers[i])) {
        checker.Fail("pass " + std::to_string(p) + " request " +
                     std::to_string(i) + ": answer differs from pass 0");
      }
    }
    if (p > 0 && pass.complete &&
        (!(pass.work == first.work) || pass.cache_hits != first.cache_hits ||
         pass.cache_misses != first.cache_misses)) {
      checker.Fail("pass " + std::to_string(p) +
                   ": work counts differ from pass 0");
    }
  }
  for (const TracedPassResult& t : traced) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!(t.answers[i] == first.answers[i])) {
        checker.Fail("request " + std::to_string(i) +
                     ": traced replay differs from the facade's answer");
      }
    }
    if (!(t.work == first.work) || t.cache_hits != first.cache_hits ||
        t.cache_misses != first.cache_misses) {
      checker.Fail("traced replay did different work than the facade");
    }
  }
  const std::vector<double> best = BestLatencies(untraced_latencies);

  std::printf("workload %s seed %" PRIu64 ": %zu requests per pass, %zu "
              "pass(es), %zu requests in %.2f s; a request's latency is the "
              "fastest of its passes\n",
              w.name.c_str(), seed, requests.size(), passes.size(), attempted,
              measured_s);
  std::printf("work: tests=%" PRIu64 " power_iterations=%" PRIu64
              " rlp_pushes=%" PRIu64 " cache_hits=%zu cache_misses=%zu "
              "found=%zu digest=%016" PRIx64 "\n",
              first.work.tests, first.work.power_iterations,
              first.work.rlp_pushes, first.cache_hits, first.cache_misses,
              found, digest);
  std::printf("failed_ratio: %zu / %zu = %.6f\n", failed, attempted,
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("success_ratio: %zu / %zu = %.6f; explanation_size_mean: "
              "%zu / %zu = %.6f\n",
              found, asked,
              static_cast<double>(found) / static_cast<double>(asked),
              found_edges, found,
              static_cast<double>(found_edges) /
                  static_cast<double>(std::max<size_t>(found, 1)));

  Metrics metrics;
  if (!trace) {
    const int tail = TailPercentile(best.size());
    const double tail_ms = Percentile(best, tail);
    std::printf("latency_tail_ms is p%d of %zu requests, %zu above it\n", tail,
                best.size(),
                static_cast<size_t>(std::count_if(
                    best.begin(), best.end(),
                    [&](double v) { return v > tail_ms; })));
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("latency_p50_ms", Percentile(best, 50.0), "ms");
    metrics.Add("latency_tail_ms", tail_ms, "ms");
    metrics.Add("requests_per_s",
                static_cast<double>(best.size()) / (Sum(best) / 1e3), "1/s");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    // Layer figures come from the fastest traced replay; the overhead sets
    // each request's fastest traced time against its fastest untraced one.
    const TracedPassResult* fastest = &traced.front();
    std::vector<const std::vector<double>*> traced_latencies;
    for (const TracedPassResult& t : traced) {
      traced_latencies.push_back(&t.latency_ms);
      if (Sum(t.latency_ms) < Sum(fastest->latency_ms)) fastest = &t;
    }
    const double traced_ms = Sum(BestLatencies(traced_latencies));
    const double untraced_ms = Sum(best);
    const LayerTimes& lt = fastest->layers;
    const double wall_ms = lt.total_ms[kRequest];
    const double unattributed_ms = lt.self_ms[kRequest];
    const double overhead_ms = std::max(0.0, traced_ms - untraced_ms);
    // The layer self times must account for the traced wall time up to the
    // tracing overhead (or 1% of the wall, whichever is larger).
    const bool sums = unattributed_ms <= std::max(overhead_ms, 0.01 * wall_ms);
    std::printf("trace: %zu passes, %zu spans per pass; layer self times sum "
                "to %.3f of %.3f ms traced wall, unattributed %.3f ms, tracing "
                "overhead %.3f ms (%.3f traced vs %.3f untraced): %s\n",
                traced.size(), fastest->spans.size(), wall_ms - unattributed_ms,
                wall_ms, unattributed_ms, traced_ms - untraced_ms, traced_ms,
                untraced_ms, sums ? "ok" : "VIOLATION");
    if (!sums) checker.Fail("layer self times do not sum to the traced wall");
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    const size_t gets = fastest->cache_hits + fastest->cache_misses;
    std::printf("ppr.cache.hit_ratio base: %zu Gets; explain.tester."
                "accept_ratio base: %zu TESTs\n",
                gets, lt.calls[kTester]);
    for (int l = kRank; l < kNumLayers; ++l) {
      std::printf("share %-22s %6.2f%% (%zu calls, %.3f ms self)\n",
                  kLayerNames[l], 100.0 * ratio(lt.self_ms[l], wall_ms),
                  lt.calls[l], lt.self_ms[l]);
    }
    metrics.Add("graph.load_ms", Median(load_ms), "ms");
    metrics.Add("graph.engine_init_ms", Median(init_ms), "ms");
    metrics.Add("recsys.rank.calls", lt.calls[kRank], "count");
    metrics.Add("recsys.rank.ms", lt.self_ms[kRank], "ms");
    metrics.Add("recsys.rank.p50_ms", Median(lt.call_ms[kRank]), "ms");
    metrics.Add("ppr.power.iterations", fastest->work.power_iterations,
                "count");
    metrics.Add("ppr.rlp.pushes", fastest->work.rlp_pushes, "count");
    metrics.Add("ppr.cache.hits", fastest->cache_hits, "count");
    metrics.Add("ppr.cache.misses", fastest->cache_misses, "count");
    metrics.Add("ppr.cache.hit_ratio",
                ratio(fastest->cache_hits, static_cast<double>(gets)),
                "ratio");
    metrics.Add("explain.search_space.calls", lt.calls[kSearchSpace], "count");
    metrics.Add("explain.search_space.ms", lt.self_ms[kSearchSpace], "ms");
    metrics.Add("explain.search_space.candidates",
                fastest->counts.search_space_candidates, "count");
    metrics.Add("explain.tester.calls", lt.calls[kTester], "count");
    metrics.Add("explain.tester.ms", lt.self_ms[kTester], "ms");
    metrics.Add("explain.tester.p50_ms", Median(lt.call_ms[kTester]), "ms");
    metrics.Add("explain.tester.accept_ratio",
                ratio(fastest->counts.tests_accepted,
                      static_cast<double>(lt.calls[kTester])),
                "ratio");
    metrics.Add("explain.heuristic.self_ms", lt.self_ms[kHeuristic], "ms");
    metrics.Add("explain.heuristic.candidates",
                fastest->counts.heuristic_candidates, "count");
    metrics.Add("explain.meta.calls", lt.calls[kMeta], "count");
    metrics.Add("explain.meta.ms", lt.self_ms[kMeta], "ms");
    metrics.Add("bench.trace_overhead_ratio", ratio(traced_ms, untraced_ms),
                "ratio");
    WriteSpans(SpansPath(dir, w, seed), fastest->spans);
  }
  metrics.Print();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              checker.ok() ? "true" : "false", attempted, failed,
              metrics.Json().c_str());
  std::fflush(stdout);
  return checker.ok() ? 0 : 1;
}

/// `--key value` flags after the subcommand.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      Die(std::string("bad argument ") + argv[i]);
    }
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& name, const char* fallback = nullptr) {
  auto it = flags.find(name);
  if (it != flags.end()) return it->second;
  if (fallback == nullptr) Die("--" + name + " is required");
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: e2e_bench prepare|serve --workload W ...");
  const std::string cmd = argv[1];
  const std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  std::optional<Workload> w = FindWorkload(Flag(flags, "workload"));
  if (!w) Die("unknown workload " + Flag(flags, "workload"));
  const uint64_t seed = std::stoull(Flag(flags, "seed"));
  const std::string dir = Flag(flags, "dir");
  if (cmd == "prepare") return RunPrepare(*w, seed, dir);
  if (cmd == "serve") {
    return RunServe(*w, seed, dir, std::stod(Flag(flags, "seconds")),
                    Flag(flags, "trace", "0") == "1");
  }
  Die("unknown command " + cmd);
}
