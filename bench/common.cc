#include "common.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/export.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace emigre::bench {

namespace {

int ReadScale() {
  const char* env = std::getenv("EMIGRE_BENCH_SCALE");
  if (env == nullptr) return 1;
  int scale = std::atoi(env);
  if (scale < 0) scale = 0;
  if (scale > 2) scale = 2;
  return scale;
}

/// FNV-1a over the parameters that shape the cached experiment.
uint64_t ConfigFingerprint(const BenchConfig& c) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(c.scale));
  mix(c.gen.seed);
  mix(c.gen.num_users);
  mix(c.gen.num_items);
  mix(c.gen.num_categories);
  mix(c.lite.sample_users);
  mix(c.top_k);
  mix(c.max_per_user);
  mix(static_cast<uint64_t>(c.method_deadline_seconds * 1e3));
  mix(static_cast<uint64_t>(c.oracle_deadline_seconds * 1e3));
  mix(static_cast<uint64_t>(c.epsilon * 1e12));
  return h;
}

}  // namespace

BenchConfig MakeBenchConfig() {
  BenchConfig c;
  c.scale = ReadScale();
  switch (c.scale) {
    case 0:
      c.gen.num_users = 40;
      c.gen.num_items = 300;
      c.gen.num_categories = 8;
      c.lite.sample_users = 6;
      c.top_k = 5;
      c.max_per_user = 2;
      c.method_deadline_seconds = 0.3;
      c.oracle_deadline_seconds = 1.5;
      break;
    case 2:
      // The paper's design: 100 sampled users, every position 2..10 of the
      // top-10 list as the Why-Not item.
      c.gen.num_users = 120;
      c.gen.num_items = 2000;
      c.gen.num_categories = 32;
      c.lite.sample_users = 100;
      c.top_k = 10;
      c.max_per_user = 9;
      c.method_deadline_seconds = 5.0;
      c.oracle_deadline_seconds = 30.0;
      break;
    case 1:
    default:
      c.gen.num_users = 100;
      c.gen.num_items = 900;
      c.gen.num_categories = 16;
      c.lite.sample_users = 15;
      c.top_k = 10;
      c.max_per_user = 3;
      c.method_deadline_seconds = 1.0;
      c.oracle_deadline_seconds = 8.0;
      break;
  }
  return c;
}

explain::EmigreOptions MakeEmigreOptions(const BenchConfig& config,
                                         const data::AmazonLiteGraph& lite) {
  explain::EmigreOptions opts;
  opts.rec.item_type = lite.item_type;
  // The paper's T_e: user–item edges only (both rated and reviewed), for
  // privacy (§6.2).
  opts.allowed_edge_types = {lite.rated_type, lite.reviewed_type};
  opts.add_edge_type = lite.rated_type;
  opts.rec.ppr.epsilon = config.epsilon;
  opts.deadline_seconds = config.method_deadline_seconds;
  return opts;
}

Result<data::AmazonLiteGraph> BuildBenchGraph(const BenchConfig& config) {
  EMIGRE_ASSIGN_OR_RETURN(data::Dataset dataset,
                          data::GenerateSyntheticAmazon(config.gen));
  return data::BuildAmazonLite(dataset, config.lite);
}

Result<BenchExperiment> GetOrRunPaperExperiment() {
  BenchExperiment experiment;
  experiment.config = MakeBenchConfig();
  for (const eval::MethodSpec& m : eval::PaperMethods()) {
    experiment.method_names.push_back(m.name);
  }

  const std::string cache_path = BenchOutputPath(StrFormat(
      "emigre_bench_records_%d_%016llx.csv", experiment.config.scale,
      static_cast<unsigned long long>(ConfigFingerprint(experiment.config))));

  bool fresh = std::getenv("EMIGRE_BENCH_FRESH") != nullptr;
  if (!fresh) {
    std::ifstream probe(cache_path);
    if (probe.good()) {
      Result<eval::ExperimentResult> cached =
          eval::LoadRecordsCsv(cache_path);
      if (cached.ok() && !cached->records.empty()) {
        experiment.result = std::move(cached).value();
        experiment.num_scenarios = experiment.result.records.size() /
                                   experiment.method_names.size();
        std::fprintf(stderr, "[bench] loaded cached experiment from %s\n",
                     cache_path.c_str());
        return experiment;
      }
    }
  }

  WallTimer timer;
  EMIGRE_ASSIGN_OR_RETURN(data::AmazonLiteGraph lite,
                          BuildBenchGraph(experiment.config));
  explain::EmigreOptions opts =
      MakeEmigreOptions(experiment.config, lite);
  EMIGRE_ASSIGN_OR_RETURN(
      std::vector<eval::Scenario> scenarios,
      eval::GenerateScenarios(lite.graph, lite.eval_users, opts,
                              experiment.config.top_k,
                              experiment.config.max_per_user));
  experiment.num_scenarios = scenarios.size();
  std::fprintf(stderr,
               "[bench] graph: %zu nodes, %zu edges; %zu scenarios; "
               "running 8 methods...\n",
               lite.graph.NumNodes(), lite.graph.NumEdges(),
               scenarios.size());

  // Heuristic methods under the per-method budget...
  std::vector<eval::MethodSpec> heuristics;
  std::vector<eval::MethodSpec> oracle;
  for (const eval::MethodSpec& m : eval::PaperMethods()) {
    if (m.heuristic == explain::Heuristic::kBruteForce) {
      oracle.push_back(m);
    } else {
      heuristics.push_back(m);
    }
  }
  eval::RunnerOptions run_opts;
  run_opts.num_threads = 0;  // all cores
  run_opts.progress_every = scenarios.size() > 20 ? 10 : 0;
  EMIGRE_ASSIGN_OR_RETURN(
      eval::ExperimentResult heuristic_result,
      eval::RunExperiment(lite.graph, scenarios, heuristics, opts,
                          run_opts));

  // ... and the oracle under its own, much larger budget.
  explain::EmigreOptions oracle_opts = opts;
  oracle_opts.deadline_seconds =
      experiment.config.oracle_deadline_seconds;
  EMIGRE_ASSIGN_OR_RETURN(
      eval::ExperimentResult oracle_result,
      eval::RunExperiment(lite.graph, scenarios, oracle, oracle_opts,
                          run_opts));

  experiment.result.records = std::move(heuristic_result.records);
  experiment.result.records.insert(experiment.result.records.end(),
                                   oracle_result.records.begin(),
                                   oracle_result.records.end());
  std::fprintf(stderr, "[bench] experiment took %.1fs; caching to %s\n",
               timer.ElapsedSeconds(), cache_path.c_str());
  // Write under a per-process name and rename into place, so a concurrent
  // reader never loads a half-written cache.
  const std::string tmp_path =
      StrFormat("%s.%ld.tmp", cache_path.c_str(), static_cast<long>(getpid()));
  Status st = eval::WriteRecordsCsv(experiment.result, tmp_path);
  std::error_code ec;
  if (st.ok()) {
    std::filesystem::rename(tmp_path, cache_path, ec);
    if (ec) st = Status::Internal("rename failed: " + ec.message());
  }
  if (!st.ok()) {
    std::filesystem::remove(tmp_path, ec);
    std::fprintf(stderr, "[bench] cache write failed: %s\n",
                 st.ToString().c_str());
  }
  return experiment;
}

std::string BenchOutputPath(const std::string& name) {
  const char* dir = std::getenv("EMIGRE_BENCH_METRICS_DIR");
  return dir != nullptr ? std::string(dir) + "/" + name : name;
}

void WriteBenchMetrics(const std::string& bench_name) {
  std::string path = BenchOutputPath("BENCH_" + bench_name + ".json");
  obs::BenchDoc doc;
  doc.bench = bench_name;
  doc.scale = ReadScale();
  doc.metrics = obs::Registry::Global().Snapshot();
  doc.trace = obs::TraceSnapshot();
  Status st = obs::WriteBenchJson(path, doc);
  if (!st.ok()) {
    std::fprintf(stderr, "[bench] metrics write failed: %s\n",
                 st.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "[bench] metrics -> %s\n", path.c_str());
}

void PrintBenchHeader(const std::string& title, const BenchConfig& config) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(EMIGRE_BENCH_SCALE=%d; see DESIGN.md for the experiment "
              "index)\n", config.scale);
  std::printf("==============================================================\n\n");
}

}  // namespace emigre::bench
