// Tests for the flight-recorder layer of src/obs/: the per-thread timeline
// rings and Chrome-trace export (timeline.h), query-id propagation, the
// emigre.query.v1 audit records (query_log.h), and the perf-gate comparator
// (perfgate.h).

#include "obs/timeline.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/perfgate.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace emigre::obs {
namespace {

// --- Timeline -------------------------------------------------------------

class TimelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(true);
    SetTimelineEnabled(true);
    ResetTimeline();
  }
  void TearDown() override {
    SetTimelineEnabled(false);
    SetTracingEnabled(false);
    ResetTimeline();
  }

  static const TimelineEvent* FindPath(const std::vector<TimelineEvent>& events,
                                       const std::string& path) {
    for (const TimelineEvent& e : events) {
      if (e.path == path) return &e;
    }
    return nullptr;
  }
};

TEST_F(TimelineTest, SpansRecordNestedEventsWithQueryId) {
  const uint64_t qid = BeginQuery();
  {
    EMIGRE_SPAN("rec_outer");
    EMIGRE_SPAN("rec_inner");
  }
  SetCurrentQueryId(0);
  std::vector<TimelineEvent> events = TimelineSnapshot();
  const TimelineEvent* outer = FindPath(events, "rec_outer");
  const TimelineEvent* inner = FindPath(events, "rec_outer/rec_inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->query_id, qid);
  EXPECT_EQ(inner->query_id, qid);
  EXPECT_GE(outer->dur_us, 0.0);
  // The inner span starts no earlier and ends no later than its parent.
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us,
            outer->start_us + outer->dur_us + 1e-3);
}

TEST_F(TimelineTest, SnapshotIsSortedByStartTime) {
  for (int i = 0; i < 5; ++i) {
    EMIGRE_SPAN("tick");
  }
  std::vector<TimelineEvent> events = TimelineSnapshot();
  ASSERT_GE(events.size(), 5u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_us, events[i].start_us);
  }
}

TEST_F(TimelineTest, DisabledTimelineRecordsNoEvents) {
  SetTimelineEnabled(false);
  {
    EMIGRE_SPAN("quiet");
  }
  EXPECT_EQ(FindPath(TimelineSnapshot(), "quiet"), nullptr);
}

TEST_F(TimelineTest, EventsFromWorkerThreadsCarryDistinctThreadIds) {
  ASSERT_TRUE(ThreadPool::ParallelFor(4, 4, [&](size_t) {
                EMIGRE_SPAN("worker");
              }).ok());
  std::vector<TimelineEvent> events = TimelineSnapshot();
  size_t count = 0;
  for (const TimelineEvent& e : events) {
    if (e.path == "worker") ++count;
  }
  EXPECT_EQ(count, 4u);
}

TEST_F(TimelineTest, ChromeTraceExportIsValidTraceEventJson) {
  const uint64_t qid = BeginQuery();
  {
    EMIGRE_SPAN("phase_a");
  }
  SetCurrentQueryId(0);
  std::vector<TimelineEvent> events = TimelineSnapshot();
  ASSERT_FALSE(events.empty());
  std::string out = ExportChromeTrace(events);
  Result<json::JsonValue> parsed = json::Parse(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << out;
  const json::JsonValue* trace_events = parsed->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->kind, json::JsonValue::Kind::kArray);
  ASSERT_FALSE(trace_events->array.empty());
  bool saw_phase_a = false;
  for (const json::JsonValue& ev : trace_events->array) {
    EXPECT_EQ(json::StringOr(ev, "ph"), "X");
    const json::JsonValue* args = ev.Find("args");
    ASSERT_NE(args, nullptr);
    if (json::StringOr(*args, "path") == "phase_a") {
      saw_phase_a = true;
      EXPECT_EQ(json::StringOr(ev, "name"), "phase_a");
      EXPECT_EQ(json::UintOr(*args, "query"), qid);
    }
  }
  EXPECT_TRUE(saw_phase_a);
}

TEST_F(TimelineTest, WriteChromeTraceCreatesFile) {
  {
    EMIGRE_SPAN("to_disk");
  }
  std::string dir = test::MakeTempDir("timeline");
  std::string path = dir + "/trace.json";
  ASSERT_TRUE(WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  Result<json::JsonValue> parsed = json::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("traceEvents"), nullptr);
}

TEST_F(TimelineTest, RingOverwritesOldestWhenFull) {
  // More events than one ring holds: the snapshot stays bounded and keeps
  // the newest events (flight-recorder semantics).
  constexpr int kEvents = (1 << 14) + 64;
  for (int i = 0; i < kEvents; ++i) {
    EMIGRE_SPAN("flood");
  }
  std::vector<TimelineEvent> events = TimelineSnapshot();
  EXPECT_LE(events.size(), static_cast<size_t>(1 << 14));
  EXPECT_FALSE(events.empty());
}

TEST(QueryIdTest, BeginQueryAllocatesFreshIdsAndSetsCurrent) {
  uint64_t a = BeginQuery();
  uint64_t b = BeginQuery();
  EXPECT_GT(b, a);
  EXPECT_EQ(CurrentQueryId(), b);
  SetCurrentQueryId(17);
  EXPECT_EQ(CurrentQueryId(), 17u);
  SetCurrentQueryId(0);
  EXPECT_EQ(CurrentQueryId(), 0u);
}

// --- emigre.query.v1 records ----------------------------------------------

QueryRecord MakeFullRecord() {
  QueryRecord r;
  r.query_id = 42;
  r.user = 12;
  r.why_not_item = 48;
  r.mode = "remove";
  r.heuristic = "Incremental";
  r.heuristic_chain = {"remove/Incremental"};
  r.deadline_seconds = 1.5;
  r.max_tests = 20000;
  r.test_threads = 4;
  r.tester = "dynamic_push";
  r.anytime = true;
  r.found = true;
  r.verified = true;
  r.degraded = false;
  r.degraded_gap = 0.0;
  r.failure = "none";
  r.error = "";
  r.original_rec = 3;
  r.new_rec = 48;
  r.search_space_size = 9;
  r.candidates_considered = 4;
  r.tests_performed = 4;
  r.seconds = 0.0125;
  r.phase_seconds = {{"ranking", 0.004}, {"search_space", 0.003},
                     {"heuristic", 0.005}};
  r.faults_fired = {{"explain.query", 1}};
  r.edges = {{12, 30, 0}, {12, 31, 2}};
  return r;
}

TEST(QueryRecordTest, JsonRoundTripPreservesEveryField) {
  QueryRecord r = MakeFullRecord();
  std::string line = QueryRecordJson(r);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "JSONL: one line";
  Result<QueryRecord> p = ParseQueryRecord(line);
  ASSERT_TRUE(p.ok()) << p.status().ToString() << "\n" << line;
  EXPECT_EQ(p->query_id, r.query_id);
  EXPECT_EQ(p->user, r.user);
  EXPECT_EQ(p->why_not_item, r.why_not_item);
  EXPECT_EQ(p->mode, r.mode);
  EXPECT_EQ(p->heuristic, r.heuristic);
  EXPECT_EQ(p->heuristic_chain, r.heuristic_chain);
  EXPECT_DOUBLE_EQ(p->deadline_seconds, r.deadline_seconds);
  EXPECT_EQ(p->max_tests, r.max_tests);
  EXPECT_EQ(p->test_threads, r.test_threads);
  EXPECT_EQ(p->tester, r.tester);
  EXPECT_EQ(p->anytime, r.anytime);
  EXPECT_EQ(p->found, r.found);
  EXPECT_EQ(p->verified, r.verified);
  EXPECT_EQ(p->degraded, r.degraded);
  EXPECT_EQ(p->failure, r.failure);
  EXPECT_EQ(p->error, r.error);
  EXPECT_EQ(p->original_rec, r.original_rec);
  EXPECT_EQ(p->new_rec, r.new_rec);
  EXPECT_EQ(p->search_space_size, r.search_space_size);
  EXPECT_EQ(p->candidates_considered, r.candidates_considered);
  EXPECT_EQ(p->tests_performed, r.tests_performed);
  EXPECT_DOUBLE_EQ(p->seconds, r.seconds);
  EXPECT_EQ(p->phase_seconds, r.phase_seconds);
  EXPECT_EQ(p->faults_fired, r.faults_fired);
  ASSERT_EQ(p->edges.size(), r.edges.size());
  for (size_t i = 0; i < r.edges.size(); ++i) {
    EXPECT_EQ(p->edges[i].src, r.edges[i].src);
    EXPECT_EQ(p->edges[i].dst, r.edges[i].dst);
    EXPECT_EQ(p->edges[i].type, r.edges[i].type);
  }
  // Re-serialization is byte-identical (stable key order, exact numbers).
  EXPECT_EQ(QueryRecordJson(*p), line);
}

TEST(QueryRecordTest, ParseRejectsWrongSchemaAndGarbage) {
  EXPECT_FALSE(ParseQueryRecord("{\"schema\": \"emigre.metrics.v1\"}").ok());
  EXPECT_FALSE(ParseQueryRecord("not json").ok());
}

TEST(QueryRecordTest, LogAppendsOneLinePerRecord) {
  std::string dir = test::MakeTempDir("querylog");
  std::string path = dir + "/q.jsonl";
  {
    Result<std::unique_ptr<QueryLog>> log = QueryLog::Open(path);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    QueryRecord r = MakeFullRecord();
    ASSERT_TRUE((*log)->Append(r).ok());
    r.query_id = 43;
    ASSERT_TRUE((*log)->Append(r).ok());
  }
  std::ifstream in(path);
  std::string line;
  std::vector<uint64_t> ids;
  while (std::getline(in, line)) {
    Result<QueryRecord> p = ParseQueryRecord(line);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ids.push_back(p->query_id);
  }
  EXPECT_EQ(ids, (std::vector<uint64_t>{42, 43}));
}

TEST(QueryRecordTest, OpenAppendsToExistingFile) {
  std::string dir = test::MakeTempDir("querylog_append");
  std::string path = dir + "/q.jsonl";
  for (uint64_t id : {1u, 2u}) {
    Result<std::unique_ptr<QueryLog>> log = QueryLog::Open(path);
    ASSERT_TRUE(log.ok());
    QueryRecord r;
    r.query_id = id;
    ASSERT_TRUE((*log)->Append(r).ok());
  }
  std::ifstream in(path);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2u);
}

// --- Perf gate ------------------------------------------------------------

BenchDoc MakeBaselineDoc() {
  BenchDoc doc;
  doc.bench = "kernels";
  doc.scale = 0;
  doc.metrics.counters = {{"ppr.pushes", 10000}, {"tiny.counter", 4}};
  doc.metrics.gauges = {{"queue.depth", 128.0}};
  HistogramSample h;
  h.name = "explain.query.seconds";
  h.count = 100;
  h.sum = 2.0;
  h.min = 0.01;
  h.max = 0.05;
  h.buckets.assign(Histogram::kNumBuckets, 0);
  h.buckets[20] = 100;
  doc.metrics.histograms = {h};
  return doc;
}

TEST(PerfGateTest, IdenticalRunsPass) {
  BenchDoc base = MakeBaselineDoc();
  Result<PerfGateReport> report = ComparePerf(base, base, PerfGateOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->pass);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_GT(report->compared, 0u);
  EXPECT_NE(report->Format().find("PASS"), std::string::npos);
}

TEST(PerfGateTest, InflatedCounterFailsAsRegression) {
  BenchDoc base = MakeBaselineDoc();
  BenchDoc cur = base;
  cur.metrics.counters[0].value = 12000;  // +20% > 10% tolerance
  Result<PerfGateReport> report = ComparePerf(base, cur, PerfGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  bool found = false;
  for (const PerfGateEntry& e : report->entries) {
    if (e.metric == "ppr.pushes") {
      found = true;
      EXPECT_EQ(e.verdict, PerfGateEntry::Verdict::kRegression);
      EXPECT_NEAR(e.ratio, 1.2, 1e-9);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(report->Format().find("ppr.pushes"), std::string::npos);
}

TEST(PerfGateTest, DoubledBaselineLatencyFailsTheFreshRun) {
  // The acceptance scenario: inflate a baseline latency 2×; the unchanged
  // current run now sits below baseline/(1+tol) and must fail as stale.
  BenchDoc base = MakeBaselineDoc();
  BenchDoc cur = base;
  base.metrics.histograms[0].sum *= 2.0;
  Result<PerfGateReport> report = ComparePerf(base, cur, PerfGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  bool found = false;
  for (const PerfGateEntry& e : report->entries) {
    if (e.metric == "explain.query.seconds/sum") {
      found = true;
      EXPECT_EQ(e.verdict, PerfGateEntry::Verdict::kOutOfBand);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PerfGateTest, LatencyToleranceIsWiderThanCounterTolerance) {
  BenchDoc base = MakeBaselineDoc();
  BenchDoc cur = base;
  // +30% on a seconds/sum series: inside the 50% latency tolerance even
  // though it would fail the 10% counter tolerance.
  cur.metrics.histograms[0].sum *= 1.3;
  Result<PerfGateReport> report = ComparePerf(base, cur, PerfGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass) << report->Format();
  // +120% breaches it.
  cur.metrics.histograms[0].sum = base.metrics.histograms[0].sum * 2.2;
  report = ComparePerf(base, cur, PerfGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
}

TEST(PerfGateTest, WallClockGaugesAreLatencies) {
  // A bench gauge named *seconds is a wall-clock time: it takes the latency
  // tolerance and noise floor, not the counter ones (under which a time
  // below 16 s was never compared and one above it flaked at 10%).
  BenchDoc base = MakeBaselineDoc();
  base.metrics.gauges.push_back({"bench.row.t1.seconds", 9.53});
  base.metrics.gauges.push_back({"bench.row.fast_seconds", 0.2});
  BenchDoc cur = base;
  cur.metrics.gauges[1].value = 16.47;  // +73%: inside a 4.0 latency band
  PerfGateOptions opts;
  opts.latency_tol = 4.0;
  Result<PerfGateReport> report = ComparePerf(base, cur, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass) << report->Format();
  for (const PerfGateEntry& e : report->entries) {
    if (e.metric == "bench.row.t1.seconds" ||
        e.metric == "bench.row.fast_seconds") {
      EXPECT_EQ(e.verdict, PerfGateEntry::Verdict::kOk) << e.metric;
      EXPECT_DOUBLE_EQ(e.tolerance, 4.0) << e.metric;
    }
  }
  // A sub-16 s time is compared, not skipped: 6x breaches the 4.0 band.
  cur.metrics.gauges[2].value = 1.2;
  report = ComparePerf(base, cur, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  bool found = false;
  for (const PerfGateEntry& e : report->entries) {
    if (e.metric == "bench.row.fast_seconds") {
      found = true;
      EXPECT_EQ(e.verdict, PerfGateEntry::Verdict::kRegression);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PerfGateTest, NoiseFloorSilencesTinySeries) {
  BenchDoc base = MakeBaselineDoc();
  BenchDoc cur = base;
  cur.metrics.counters[1].value = 12;  // 4 -> 12: 3x, but both under 16
  Result<PerfGateReport> report = ComparePerf(base, cur, PerfGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass) << report->Format();
}

TEST(PerfGateTest, MissingMetricFailsButNewMetricDoesNot) {
  BenchDoc base = MakeBaselineDoc();
  BenchDoc cur = base;
  cur.metrics.counters.erase(cur.metrics.counters.begin());  // drop ppr.pushes
  cur.metrics.gauges.push_back({"brand.new", 500.0});
  Result<PerfGateReport> report = ComparePerf(base, cur, PerfGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  bool missing = false, is_new = false;
  for (const PerfGateEntry& e : report->entries) {
    if (e.metric == "ppr.pushes") {
      missing = true;
      EXPECT_EQ(e.verdict, PerfGateEntry::Verdict::kMissing);
      EXPECT_TRUE(e.Failed());
    }
    if (e.metric == "brand.new") {
      is_new = true;
      EXPECT_EQ(e.verdict, PerfGateEntry::Verdict::kNew);
      EXPECT_FALSE(e.Failed());
    }
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(is_new);
}

TEST(PerfGateTest, SkipGlobsSilenceMatchedMetrics) {
  BenchDoc base = MakeBaselineDoc();
  BenchDoc cur = base;
  cur.metrics.counters[0].value *= 5;  // wild drift on ppr.pushes
  PerfGateOptions opts;
  opts.skip = {"ppr.*"};
  Result<PerfGateReport> report = ComparePerf(base, cur, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass) << report->Format();
  EXPECT_GT(report->skipped, 0u);
}

TEST(PerfGateTest, MismatchedBenchOrScaleIsUsageError) {
  BenchDoc base = MakeBaselineDoc();
  BenchDoc other_bench = base;
  other_bench.bench = "different";
  EXPECT_TRUE(ComparePerf(base, other_bench, PerfGateOptions{})
                  .status()
                  .IsInvalidArgument());
  BenchDoc other_scale = base;
  other_scale.scale = 2;
  EXPECT_TRUE(ComparePerf(base, other_scale, PerfGateOptions{})
                  .status()
                  .IsInvalidArgument());
}

TEST(PerfGateTest, ConfigParsesFieldsAndSkips) {
  Result<PerfGateOptions> opts = ParsePerfGateConfig(
      "{\"schema\": \"emigre.perfgate.v1\", \"counter_tol\": 0.2, "
      "\"latency_tol\": 2.5, \"counter_min\": 32, \"latency_min\": 0.01, "
      "\"skip\": [\"ppr.cache.*\", \"*.cancelled\"]}");
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  EXPECT_DOUBLE_EQ(opts->counter_tol, 0.2);
  EXPECT_DOUBLE_EQ(opts->latency_tol, 2.5);
  EXPECT_DOUBLE_EQ(opts->counter_min, 32.0);
  EXPECT_DOUBLE_EQ(opts->latency_min, 0.01);
  EXPECT_EQ(opts->skip,
            (std::vector<std::string>{"ppr.cache.*", "*.cancelled"}));
}

TEST(PerfGateTest, ConfigKeepsDefaultsForAbsentFieldsRejectsWrongSchema) {
  Result<PerfGateOptions> opts =
      ParsePerfGateConfig("{\"schema\": \"emigre.perfgate.v1\"}");
  ASSERT_TRUE(opts.ok());
  PerfGateOptions defaults;
  EXPECT_DOUBLE_EQ(opts->counter_tol, defaults.counter_tol);
  EXPECT_DOUBLE_EQ(opts->latency_tol, defaults.latency_tol);
  EXPECT_FALSE(ParsePerfGateConfig("{\"schema\": \"emigre.bench.v1\"}").ok());
  EXPECT_FALSE(ParsePerfGateConfig("[]").ok());
}

TEST(PerfGateTest, FloorsAssertAbsoluteMinimumsBelowTheNoiseFloor) {
  // A speedup gauge of ~1.4 sits far under counter_min=16, so the relative
  // band would skip it entirely; a floor still holds it to >= 1.0.
  BenchDoc base = MakeBaselineDoc();
  base.metrics.gauges.push_back({"bench.kernels.fast_speedup", 1.4});
  BenchDoc cur = base;
  PerfGateOptions opts;
  opts.floors["kernels"]["bench.kernels.fast_speedup"] = 1.0;

  Result<PerfGateReport> report = ComparePerf(base, cur, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass) << report->Format();

  cur.metrics.gauges.back().value = 0.8;  // now slower than the baseline path
  report = ComparePerf(base, cur, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  bool found = false;
  for (const PerfGateEntry& e : report->entries) {
    if (e.metric == "bench.kernels.fast_speedup") {
      found = true;
      EXPECT_EQ(e.verdict, PerfGateEntry::Verdict::kBelowMin);
      EXPECT_DOUBLE_EQ(e.floor, 1.0);
      EXPECT_TRUE(e.Failed());
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(report->Format().find("BELOW-MIN"), std::string::npos);
}

TEST(PerfGateTest, FlooredMetricAbsentFromCurrentRunFails) {
  BenchDoc base = MakeBaselineDoc();
  BenchDoc cur = base;
  PerfGateOptions opts;
  opts.floors["kernels"]["bench.kernels.fast_speedup"] = 1.0;
  // Neither side emits the gauge: the contract cannot be attested.
  Result<PerfGateReport> report = ComparePerf(base, cur, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  bool found = false;
  for (const PerfGateEntry& e : report->entries) {
    if (e.metric == "bench.kernels.fast_speedup") {
      found = true;
      EXPECT_EQ(e.verdict, PerfGateEntry::Verdict::kBelowMin);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PerfGateTest, FloorsScopeToTheirBench) {
  // The config is shared across bench pairs: another bench's floors must
  // not fail a run that never emits those metrics.
  BenchDoc base = MakeBaselineDoc();
  BenchDoc cur = base;
  PerfGateOptions opts;
  opts.floors["other_bench"]["bench.other.speedup"] = 1.0;
  Result<PerfGateReport> report = ComparePerf(base, cur, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass) << report->Format();
}

TEST(PerfGateTest, FloorOutranksSkipGlobs) {
  BenchDoc base = MakeBaselineDoc();
  base.metrics.gauges.push_back({"bench.kernels.fast_speedup", 1.4});
  BenchDoc cur = base;
  cur.metrics.gauges.back().value = 0.5;
  PerfGateOptions opts;
  opts.skip = {"bench.*"};
  opts.floors["kernels"]["bench.kernels.fast_speedup"] = 1.0;
  Result<PerfGateReport> report = ComparePerf(base, cur, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass) << "a skip glob must not disable a hard floor";
}

// A ratio of two timings that reads at least counter_min: the shape of
// bench_ppr_kernels' repair_speedup.
BenchDoc WithSpeedup(double value) {
  BenchDoc doc = MakeBaselineDoc();
  doc.metrics.gauges.push_back({"bench.kernels.repair_speedup", value});
  return doc;
}

const PerfGateEntry* FindEntry(const PerfGateReport& report,
                               const std::string& metric) {
  for (const PerfGateEntry& e : report.entries) {
    if (e.metric == metric) return &e;
  }
  return nullptr;
}

TEST(PerfGateTest, SpeedupRiseNeverFails) {
  // +30% and 10x: both outside the ±10% counter band a count would get.
  for (double current : {42.8, 330.0}) {
    Result<PerfGateReport> report =
        ComparePerf(WithSpeedup(33.0), WithSpeedup(current), PerfGateOptions{});
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->pass) << report->Format();
    const PerfGateEntry* e = FindEntry(*report, "bench.kernels.repair_speedup");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->verdict, PerfGateEntry::Verdict::kOk) << current;
    EXPECT_DOUBLE_EQ(e->tolerance, PerfGateOptions{}.latency_tol);
  }
}

TEST(PerfGateTest, SpeedupFallFailsOnlyPastLatencyTolerance) {
  // latency_tol 0.5: a fall fails below 33 / 1.5 = 22.
  Result<PerfGateReport> report =
      ComparePerf(WithSpeedup(33.0), WithSpeedup(29.3), PerfGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass) << "-11% is run-to-run timing noise: "
                            << report->Format();

  report = ComparePerf(WithSpeedup(33.0), WithSpeedup(20.0), PerfGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  const PerfGateEntry* e = FindEntry(*report, "bench.kernels.repair_speedup");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->verdict, PerfGateEntry::Verdict::kRegression);
  EXPECT_NE(report->Format().find("REGRESSION"), std::string::npos);
}

TEST(PerfGateTest, SpeedupFloorStillApplies) {
  // Inside the one-sided band, but under the configured absolute minimum.
  PerfGateOptions opts;
  opts.floors["kernels"]["bench.kernels.repair_speedup"] = 30.0;
  Result<PerfGateReport> report =
      ComparePerf(WithSpeedup(33.0), WithSpeedup(29.3), opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->pass);
  const PerfGateEntry* e = FindEntry(*report, "bench.kernels.repair_speedup");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->verdict, PerfGateEntry::Verdict::kBelowMin);
  EXPECT_DOUBLE_EQ(e->floor, 30.0);
  // A rise clears the floor and the band alike.
  report = ComparePerf(WithSpeedup(33.0), WithSpeedup(45.0), opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->pass) << report->Format();
}

TEST(PerfGateTest, ConfigParsesFloors) {
  Result<PerfGateOptions> opts = ParsePerfGateConfig(
      "{\"schema\": \"emigre.perfgate.v1\", \"floors\": {\"ppr_kernels\": "
      "{\"bench.ppr_kernels.repair_speedup\": 1.0, "
      "\"bench.ppr_kernels.fast_overall_speedup\": 0.5}}}");
  ASSERT_TRUE(opts.ok()) << opts.status().ToString();
  ASSERT_EQ(opts->floors.size(), 1u);
  const auto& kernels = opts->floors.at("ppr_kernels");
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_DOUBLE_EQ(kernels.at("bench.ppr_kernels.repair_speedup"), 1.0);
  EXPECT_DOUBLE_EQ(kernels.at("bench.ppr_kernels.fast_overall_speedup"), 0.5);
  // Malformed floors are config errors, not silent no-ops.
  EXPECT_FALSE(ParsePerfGateConfig(
                   "{\"schema\": \"emigre.perfgate.v1\", \"floors\": [1]}")
                   .ok());
  EXPECT_FALSE(ParsePerfGateConfig(
                   "{\"schema\": \"emigre.perfgate.v1\", "
                   "\"floors\": {\"b\": {\"m\": \"fast\"}}}")
                   .ok());
}

TEST(GlobMatchTest, WildcardsAnchorsAndQuestionMarks) {
  EXPECT_TRUE(GlobMatch("ppr.cache.*", "ppr.cache.hits"));
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("*.cancelled", "explain.parallel.cancelled"));
  EXPECT_TRUE(GlobMatch("a*b*c", "aXXbYYc"));
  EXPECT_FALSE(GlobMatch("ppr.cache.*", "explain.tests"));
  EXPECT_FALSE(GlobMatch("abc", "abcd")) << "anchored at both ends";
  EXPECT_FALSE(GlobMatch("abcd", "abc"));
  EXPECT_TRUE(GlobMatch("h?t", "hit"));
  EXPECT_FALSE(GlobMatch("h?t", "heat"));
}

}  // namespace
}  // namespace emigre::obs
