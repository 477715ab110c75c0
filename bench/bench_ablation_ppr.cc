// PPR engine micro-benchmarks (google-benchmark): the substrate ablation
// behind EMiGRe's design choices (DESIGN.md "Ablations").
//
//   * Power iteration cost grows with graph size (it touches every edge per
//     iteration) — this is what every TEST invocation pays.
//   * Forward/Reverse Local Push cost is governed by ε, not graph size
//     (locality) — this is why the search-space phase is cheap.

#include <benchmark/benchmark.h>

#include "common.h"
#include "data/amazon_lite.h"
#include "data/synthetic_amazon.h"
#include "ppr/forward_push.h"
#include "ppr/power_iteration.h"
#include "ppr/reverse_push.h"

namespace {

using namespace emigre;

data::AmazonLiteGraph MakeGraph(size_t num_items) {
  data::SyntheticAmazonOptions gen;
  gen.num_users = 60;
  gen.num_items = num_items;
  gen.num_categories = 12;
  data::AmazonLiteOptions lite;
  lite.sample_users = 10;
  lite.neighborhood_hops = 0;  // keep the whole graph: size is the variable
  auto ds = data::GenerateSyntheticAmazon(gen);
  ds.status().CheckOK();
  auto built = data::BuildAmazonLite(ds.value(), lite);
  built.status().CheckOK();
  return std::move(built).value();
}

graph::NodeId FirstUser(const data::AmazonLiteGraph& lite) {
  return lite.eval_users.empty() ? 0 : lite.eval_users.front();
}

void BM_PowerIteration(benchmark::State& state) {
  data::AmazonLiteGraph lite = MakeGraph(static_cast<size_t>(state.range(0)));
  ppr::PprOptions opts;
  graph::NodeId seed = FirstUser(lite);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ppr::PowerIterationPpr(lite.graph, seed, opts));
  }
  state.SetLabel(std::to_string(lite.graph.NumEdges()) + " edges");
}
BENCHMARK(BM_PowerIteration)->Arg(200)->Arg(600)->Arg(1800);

void BM_ForwardPush(benchmark::State& state) {
  data::AmazonLiteGraph lite = MakeGraph(600);
  ppr::PprOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  graph::NodeId seed = FirstUser(lite);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppr::ForwardPush(lite.graph, seed, opts));
  }
  state.SetLabel("eps=1/" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ForwardPush)->Arg(1000)->Arg(100000)->Arg(10000000);

void BM_ReversePush(benchmark::State& state) {
  data::AmazonLiteGraph lite = MakeGraph(600);
  ppr::PprOptions opts;
  opts.epsilon = 1.0 / static_cast<double>(state.range(0));
  // Reverse push from an item node (as the Add-mode search space does).
  graph::NodeId target = 0;
  for (graph::NodeId n = 0; n < lite.graph.NumNodes(); ++n) {
    if (lite.graph.NodeType(n) == lite.item_type) {
      target = n;
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppr::ReversePush(lite.graph, target, opts));
  }
  state.SetLabel("eps=1/" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ReversePush)->Arg(1000)->Arg(100000)->Arg(10000000);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emigre::bench::WriteBenchMetrics("ablation_ppr");
  return 0;
}
