// Tests for the per-query audit log wiring: `Emigre::Explain` with
// `EmigreOptions::query_log` set appends one emigre.query.v1 record per
// call, and a query replayed from a record alone (same question, mode,
// heuristic and budgets) reproduces the logged explanation edge set.

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "explain/emigre.h"
#include "gtest/gtest.h"
#include "obs/query_log.h"
#include "test_util.h"

namespace emigre::explain {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool ModeFromName(const std::string& name, Mode* mode) {
  for (Mode m : {Mode::kRemove, Mode::kAdd}) {
    if (name == ModeName(m)) {
      *mode = m;
      return true;
    }
  }
  return false;
}

bool HeuristicFromName(const std::string& name, Heuristic* heuristic) {
  for (Heuristic h : {Heuristic::kIncremental, Heuristic::kPowerset,
                      Heuristic::kExhaustive, Heuristic::kExhaustiveDirect,
                      Heuristic::kBruteForce}) {
    if (name == HeuristicName(h)) {
      *heuristic = h;
      return true;
    }
  }
  return false;
}

/// Opens a fresh log in its own temp dir and returns (log, path).
std::unique_ptr<obs::QueryLog> OpenLog(const std::string& tag,
                                       std::string* path) {
  *path = test::MakeTempDir(tag) + "/queries.jsonl";
  Result<std::unique_ptr<obs::QueryLog>> log = obs::QueryLog::Open(*path);
  EXPECT_TRUE(log.ok()) << log.status().ToString();
  return log.ok() ? std::move(*log) : nullptr;
}

TEST(QueryLogWiringTest, ExplainAppendsOneRecordPerCall) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  std::string path;
  std::unique_ptr<obs::QueryLog> log = OpenLog("query_log_wiring", &path);
  ASSERT_NE(log, nullptr);
  f.opts.query_log = log.get();
  Emigre engine(f.g, f.opts);

  Result<Explanation> removal = engine.Explain(
      WhyNotQuestion{f.user, f.wni}, Mode::kRemove, Heuristic::kIncremental);
  ASSERT_TRUE(removal.ok()) << removal.status().ToString();
  ASSERT_TRUE(removal->found);
  Result<Explanation> addition = engine.Explain(
      WhyNotQuestion{f.user, f.wni}, Mode::kAdd, Heuristic::kPowerset);
  ASSERT_TRUE(addition.ok()) << addition.status().ToString();

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);

  Result<obs::QueryRecord> first = obs::ParseQueryRecord(lines[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->query_id, removal->query_id);
  EXPECT_EQ(first->user, f.user);
  EXPECT_EQ(first->why_not_item, f.wni);
  EXPECT_EQ(first->mode, "remove");
  EXPECT_EQ(first->heuristic, "Incremental");
  EXPECT_EQ(first->heuristic_chain,
            (std::vector<std::string>{"remove/Incremental"}));
  EXPECT_TRUE(first->found);
  EXPECT_EQ(first->failure, "none");
  EXPECT_EQ(first->edges.size(), removal->edges.size());
  EXPECT_EQ(first->tests_performed, removal->tests_performed);
  EXPECT_GT(first->seconds, 0.0);
  // All three pipeline phases reported a wall time.
  ASSERT_EQ(first->phase_seconds.size(), 3u);
  EXPECT_EQ(first->phase_seconds[0].first, "ranking");
  EXPECT_EQ(first->phase_seconds[1].first, "search_space");
  EXPECT_EQ(first->phase_seconds[2].first, "heuristic");

  Result<obs::QueryRecord> second = obs::ParseQueryRecord(lines[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->query_id, addition->query_id);
  EXPECT_GT(second->query_id, first->query_id);
  EXPECT_EQ(second->mode, "add");
  EXPECT_EQ(second->heuristic, "Powerset");
}

TEST(QueryLogWiringTest, InvalidQuestionLogsErrorRecord) {
  test::BookGraph bg = test::MakeBookGraph();
  EmigreOptions opts = test::MakeBookOptions(bg);
  std::string path;
  std::unique_ptr<obs::QueryLog> log = OpenLog("query_log_invalid", &path);
  ASSERT_NE(log, nullptr);
  opts.query_log = log.get();
  Emigre engine(bg.g, opts);

  // fantasy is a category node, not an item: Definition 4.1 violation.
  Result<Explanation> r = engine.Explain(
      WhyNotQuestion{bg.paul, bg.fantasy}, Mode::kAdd,
      Heuristic::kIncremental);
  ASSERT_TRUE(r.status().IsInvalidArgument());

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  Result<obs::QueryRecord> record = obs::ParseQueryRecord(lines[0]);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_FALSE(record->found);
  EXPECT_EQ(record->failure, "invalid-question");
  EXPECT_NE(record->error.find("not an item"), std::string::npos)
      << record->error;
}

/// The acceptance scenario: run a query with the log attached, then rebuild
/// the question, mode, heuristic and budgets purely from the logged record
/// and re-run on a fresh engine — the replay must reproduce the logged
/// explanation edge set exactly (the pipeline is deterministic at any
/// test_threads setting).
void RunReplayCase(size_t test_threads, const std::string& tag) {
  test::ScenarioFixture f = test::MakeRemoveFriendlyCase();
  f.opts.test_threads = test_threads;
  std::string path;
  std::unique_ptr<obs::QueryLog> log = OpenLog(tag, &path);
  ASSERT_NE(log, nullptr);
  f.opts.query_log = log.get();
  Emigre engine(f.g, f.opts);
  Result<Explanation> original = engine.Explain(
      WhyNotQuestion{f.user, f.wni}, Mode::kRemove, Heuristic::kIncremental);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_TRUE(original->found);
  ASSERT_FALSE(original->edges.empty());

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 1u);
  // Logs written while an approximate tester still existed may name it in
  // budgets.tester; such a record still parses and replays, on the exact
  // TEST like every other.
  std::string old_line = lines[0];
  const std::string exact_field = "\"tester\": \"exact\"";
  const size_t at = old_line.find(exact_field);
  ASSERT_NE(at, std::string::npos) << old_line;
  old_line.replace(at, exact_field.size(), "\"tester\": \"dynamic_push\"");

  for (const std::string& line : {lines[0], old_line}) {
    SCOPED_TRACE(line);
    Result<obs::QueryRecord> parsed = obs::ParseQueryRecord(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const obs::QueryRecord& record = *parsed;

    Mode mode;
    ASSERT_TRUE(ModeFromName(record.mode, &mode));
    Heuristic heuristic;
    ASSERT_TRUE(HeuristicFromName(record.heuristic, &heuristic));

    // Deployment config (graph, action vocabulary) comes from the fixture;
    // everything the record audits — question, mode, heuristic, budgets —
    // comes from the record alone.
    EmigreOptions replay_opts = test::MakeRemoveFriendlyCase().opts;
    replay_opts.deadline_seconds = record.deadline_seconds;
    replay_opts.max_tests = record.max_tests;
    replay_opts.test_threads = record.test_threads;
    replay_opts.anytime = record.anytime;
    Emigre replay_engine(f.g, replay_opts);
    Result<Explanation> replay = replay_engine.Explain(
        WhyNotQuestion{static_cast<graph::NodeId>(record.user),
                       static_cast<graph::NodeId>(record.why_not_item)},
        mode, heuristic);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    ASSERT_TRUE(replay->found);
    ASSERT_EQ(replay->edges.size(), record.edges.size());
    for (size_t i = 0; i < record.edges.size(); ++i) {
      EXPECT_EQ(replay->edges[i].src, record.edges[i].src);
      EXPECT_EQ(replay->edges[i].dst, record.edges[i].dst);
      EXPECT_EQ(replay->edges[i].type, record.edges[i].type);
    }
    EXPECT_EQ(replay->new_rec, record.new_rec);
  }
}

TEST(QueryLogReplayTest, ReplayFromRecordReproducesEdgeSet) {
  RunReplayCase(1, "query_log_replay_serial");
}

TEST(QueryLogReplayTest, ReplayFromRecordReproducesEdgeSetParallel) {
  RunReplayCase(2, "query_log_replay_parallel");
}

}  // namespace
}  // namespace emigre::explain
