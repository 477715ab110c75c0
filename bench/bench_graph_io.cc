// Graph I/O paths, raced and ASSERTED: CSV parsing vs the emigre.bin.v1
// columnar dataset vs the emigre.csr.v1 mmap snapshot (docs/data_format.md).
//
// The workload is the medium synthetic-Amazon preset — the size the
// ≥20x floor in bench/baselines/perfgate.json is defined on — regardless of
// EMIGRE_BENCH_SCALE (the scale only picks the repetition count). Four
// timed phases, best-of-k wall time each:
//
//   csv_parse     — LoadDatasetCsv: the text path every cold start used to
//                   pay (per-field parse, per-row validation).
//   bin_load      — LoadDatasetBin: same relations from typed little-endian
//                   columns, CRC-verified.
//   csv_graph     — LoadDatasetCsv + BuildAmazonLite: full cold start from
//                   text to a queryable HinGraph (informational).
//   snapshot_load — CsrSnapshotView::Load: mmap the prebuilt CSR image and
//                   serve queries off the page cache.
//
// Guarantees checked here (any violation exits 1):
//   1. The mmap'd snapshot serves the same graph: node/edge counts and the
//      type vocabularies match the HinGraph the CSV route builds.
//   2. snapshot_load is >= kSnapshotVsCsvFloor x faster than csv_parse —
//      the headline claim of the binary format layer. The same floor is
//      enforced against the emitted metrics by the perfgate config, so a
//      stale baseline cannot hide a regression.
//   3. Resident-set growth of the snapshot load stays within 2x the
//      snapshot file size (plus a fixed slack absorbing allocator noise at
//      this scale) — the mmap path must not degenerate into a full heap
//      copy. This is the medium-scale proxy for the 10M-node band's
//      "peak RSS <= 2x snapshot size" acceptance bar.
//
// Peak RSS per phase is sampled from /proc/self/status (VmRSS before/after,
// VmHWM at exit); on non-Linux builds the RSS gauges read 0 and the RSS
// assertion is skipped.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "data/amazon_lite.h"
#include "data/bin_io.h"
#include "data/csv_io.h"
#include "data/schema.h"
#include "data/synthetic_amazon.h"
#include "graph/csr_snapshot.h"
#include "graph/hin_graph.h"
#include "obs/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace emigre;

constexpr double kSnapshotVsCsvFloor = 20.0;

/// Reads a "VmRSS:  1234 kB"-style line from /proc/self/status; 0 when the
/// key (or the proc filesystem) is unavailable.
size_t ReadProcStatusBytes(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return static_cast<size_t>(
                 std::strtoull(line.c_str() + key_len + 1, nullptr, 10)) *
             1024;
    }
  }
  return 0;
}

size_t FileBytes(const std::string& path) {
  std::error_code ec;
  auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<size_t>(size);
}

size_t DirBytes(const std::string& dir) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

struct PhaseResult {
  double best_seconds = 0.0;
  size_t rss_delta_bytes = 0;  ///< VmRSS growth across the first iteration
};

/// Runs `body` `iters` times; keeps the best wall time and the first
/// iteration's resident-set growth (later iterations recycle allocator
/// pools and tell nothing about the phase's own footprint).
template <typename Fn>
PhaseResult TimePhase(int iters, Fn&& body) {
  PhaseResult out;
  for (int i = 0; i < iters; ++i) {
    size_t rss_before = ReadProcStatusBytes("VmRSS:");
    WallTimer timer;
    size_t live_bytes = body();  // returns bytes held at peak, unused
    (void)live_bytes;
    double elapsed = timer.ElapsedSeconds();
    size_t rss_after = ReadProcStatusBytes("VmRSS:");
    if (i == 0 && rss_after > rss_before) {
      out.rss_delta_bytes = rss_after - rss_before;
    }
    if (i == 0 || elapsed < out.best_seconds) out.best_seconds = elapsed;
  }
  return out;
}

void SetGauge(const std::string& name, double value) {
  obs::Registry::Global().GetGauge("bench.graph_io." + name).Set(value);
}

}  // namespace

int main() {
  bench::BenchConfig config = bench::MakeBenchConfig();
  bench::PrintBenchHeader(
      "graph I/O: CSV parse vs emigre.bin.v1 vs mmap CSR snapshot", config);
  const int iters = config.scale == 0 ? 3 : 6;

  // --- Scratch directory next to the metrics doc (removed at exit):
  // generate the medium dataset once in all three encodings.
  const std::string work = bench::BenchOutputPath("emigre_bench_graph_io");
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  std::filesystem::create_directories(work + "/csv");
  auto opts = data::SyntheticAmazonPreset("medium");
  opts.status().CheckOK();
  auto ds = data::GenerateSyntheticAmazon(opts.value());
  ds.status().CheckOK();
  data::SaveDatasetCsv(ds.value(), work + "/csv").CheckOK();
  data::SaveDatasetBin(ds.value(), work + "/ds.bin").CheckOK();

  // The graph the snapshot must reproduce: the full serving graph (no
  // neighborhood pruning), similarity links included.
  data::AmazonLiteOptions lite_opts;
  lite_opts.neighborhood_hops = 0;
  auto lite = data::BuildAmazonLite(ds.value(), lite_opts);
  lite.status().CheckOK();
  const graph::HinGraph& built = lite->graph;
  graph::WriteGraphSnapshot(built, work + "/graph.csr").CheckOK();

  const size_t csv_bytes = DirBytes(work + "/csv");
  const size_t bin_bytes = FileBytes(work + "/ds.bin");
  const size_t snapshot_bytes = FileBytes(work + "/graph.csr");
  std::printf("dataset: %zu users, %zu items, %zu ratings, %zu reviews\n",
              ds->users.size(), ds->items.size(), ds->ratings.size(),
              ds->reviews.size());
  std::printf("graph:   %zu nodes, %zu edges\n", built.NumNodes(),
              built.NumEdges());
  std::printf("sizes:   csv %zu B, bin %zu B, snapshot %zu B\n\n", csv_bytes,
              bin_bytes, snapshot_bytes);

  bool ok = true;

  // --- Timed phases (best of `iters`).
  PhaseResult csv_parse = TimePhase(iters, [&] {
    auto loaded = data::LoadDatasetCsv(work + "/csv");
    loaded.status().CheckOK();
    return loaded->ratings.size();
  });
  PhaseResult bin_load = TimePhase(iters, [&] {
    auto loaded = data::LoadDatasetBin(work + "/ds.bin");
    loaded.status().CheckOK();
    return loaded->ratings.size();
  });
  // Informational and by far the slowest phase (BuildAmazonLite dominates);
  // one iteration is plenty for a ballpark.
  PhaseResult csv_graph = TimePhase(1, [&] {
    auto loaded = data::LoadDatasetCsv(work + "/csv");
    loaded.status().CheckOK();
    auto g = data::BuildAmazonLite(loaded.value(), lite_opts);
    g.status().CheckOK();
    return g->graph.NumEdges();
  });
  PhaseResult snapshot_load = TimePhase(iters, [&] {
    auto view = graph::CsrSnapshotView::Load(work + "/graph.csr");
    view.status().CheckOK();
    return view->NumEdges();
  });
  // Full page-in sweep: what a query-saturating workload would fault in.
  PhaseResult snapshot_touch = TimePhase(iters, [&] {
    auto view = graph::CsrSnapshotView::Load(work + "/graph.csr");
    view.status().CheckOK();
    double acc = 0.0;
    const uint64_t n = view->NumNodes();
    for (uint64_t u = 0; u < n; ++u) {
      view->ForEachOutEdge(static_cast<graph::NodeId>(u),
                           [&](graph::NodeId, graph::EdgeTypeId, double w) {
                             acc += w;
                           });
    }
    return static_cast<size_t>(acc);
  });

  // --- Guarantee 1: same graph behind the mmap.
  {
    auto view = graph::CsrSnapshotView::Load(work + "/graph.csr");
    view.status().CheckOK();
    if (view->NumNodes() != built.NumNodes() ||
        view->NumEdges() != built.NumEdges()) {
      std::fprintf(stderr,
                   "GRAPH VIOLATION: snapshot %zu nodes / %zu edges vs "
                   "built %zu / %zu\n",
                   view->NumNodes(), view->NumEdges(), built.NumNodes(),
                   built.NumEdges());
      ok = false;
    }
    for (graph::NodeTypeId t = 0; t < built.NumNodeTypes(); ++t) {
      if (view->NodeTypeName(t) != built.NodeTypeName(t)) {
        std::fprintf(stderr, "GRAPH VIOLATION: node type %u name mismatch\n",
                     t);
        ok = false;
      }
    }
  }

  const double speedup = snapshot_load.best_seconds > 0.0
                             ? csv_parse.best_seconds /
                                   snapshot_load.best_seconds
                             : 0.0;
  const double bin_speedup =
      bin_load.best_seconds > 0.0
          ? csv_parse.best_seconds / bin_load.best_seconds
          : 0.0;

  std::printf("csv_parse:     %8.2f ms  (rss +%zu KiB)\n",
              csv_parse.best_seconds * 1e3, csv_parse.rss_delta_bytes >> 10);
  std::printf("bin_load:      %8.2f ms  (rss +%zu KiB, %.1fx vs csv)\n",
              bin_load.best_seconds * 1e3, bin_load.rss_delta_bytes >> 10,
              bin_speedup);
  std::printf("csv_graph:     %8.2f ms  (parse + BuildAmazonLite)\n",
              csv_graph.best_seconds * 1e3);
  std::printf("snapshot_load: %8.2f ms  (rss +%zu KiB, %.1fx vs csv)\n",
              snapshot_load.best_seconds * 1e3,
              snapshot_load.rss_delta_bytes >> 10, speedup);
  std::printf("snapshot_touch:%8.2f ms  (load + full adjacency sweep)\n\n",
              snapshot_touch.best_seconds * 1e3);

  // --- Guarantee 2: the headline floor.
  if (speedup < kSnapshotVsCsvFloor) {
    std::fprintf(stderr,
                 "PERF VIOLATION: snapshot load only %.1fx faster than CSV "
                 "parse (floor %.0fx)\n",
                 speedup, kSnapshotVsCsvFloor);
    ok = false;
  }

  // --- Guarantee 3: mmap, not a heap copy. The fixed slack absorbs
  // allocator bookkeeping at this (small) scale; at the 10M-node band the
  // 2x term dominates.
  const size_t rss_slack = 16u << 20;
  if (snapshot_load.rss_delta_bytes > 0 &&
      snapshot_load.rss_delta_bytes > 2 * snapshot_bytes + rss_slack) {
    std::fprintf(stderr,
                 "RSS VIOLATION: snapshot load grew RSS by %zu B "
                 "(> 2x file size %zu B + slack)\n",
                 snapshot_load.rss_delta_bytes, snapshot_bytes);
    ok = false;
  }

  SetGauge("csv_parse_seconds", csv_parse.best_seconds);
  SetGauge("bin_load_seconds", bin_load.best_seconds);
  SetGauge("csv_graph_seconds", csv_graph.best_seconds);
  SetGauge("snapshot_load_seconds", snapshot_load.best_seconds);
  SetGauge("snapshot_touch_seconds", snapshot_touch.best_seconds);
  SetGauge("snapshot_vs_csv_speedup", speedup);
  SetGauge("bin_vs_csv_speedup", bin_speedup);
  SetGauge("csv_bytes", static_cast<double>(csv_bytes));
  SetGauge("bin_bytes", static_cast<double>(bin_bytes));
  SetGauge("snapshot_bytes", static_cast<double>(snapshot_bytes));
  SetGauge("csv_parse_rss_bytes",
           static_cast<double>(csv_parse.rss_delta_bytes));
  SetGauge("bin_load_rss_bytes",
           static_cast<double>(bin_load.rss_delta_bytes));
  SetGauge("snapshot_load_rss_bytes",
           static_cast<double>(snapshot_load.rss_delta_bytes));
  SetGauge("peak_rss_bytes",
           static_cast<double>(ReadProcStatusBytes("VmHWM:")));
  SetGauge("nodes", static_cast<double>(built.NumNodes()));
  SetGauge("edges", static_cast<double>(built.NumEdges()));

  bench::WriteBenchMetrics("graph_io");
  std::filesystem::remove_all(work, ec);
  if (!ok) return 1;
  std::printf("graph I/O guarantees hold (snapshot %.1fx over CSV, floor "
              "%.0fx)\n",
              speedup, kSnapshotVsCsvFloor);
  return 0;
}
