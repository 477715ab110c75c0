#include "obs/perfgate.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/json.h"
#include "util/string_util.h"
#include "util/table.h"

namespace emigre::obs {

namespace {

/// How a flattened series is judged.
enum class SeriesKind {
  kCount,    ///< event count: the two-sided counter band
  kLatency,  ///< wall time: the two-sided latency band
  kSpeedup,  ///< higher-is-better ratio: fails only on a fall past the
             ///< latency band
};

SeriesKind KindOf(const std::string& flat_name) {
  // Wall time is a gauge named *seconds (the bench rows' timings) or
  // "explain.query.seconds/sum", the sum of a *seconds histogram; its count
  // (and every other series but the *speedup ratios) is an event count.
  if (EndsWith(flat_name, "seconds") || EndsWith(flat_name, "seconds/sum")) {
    return SeriesKind::kLatency;
  }
  if (EndsWith(flat_name, "speedup")) return SeriesKind::kSpeedup;
  return SeriesKind::kCount;
}

double ToleranceOf(SeriesKind kind, const PerfGateOptions& opts) {
  return kind == SeriesKind::kCount ? opts.counter_tol : opts.latency_tol;
}

double NoiseFloorOf(SeriesKind kind, const PerfGateOptions& opts) {
  return kind == SeriesKind::kLatency ? opts.latency_min : opts.counter_min;
}

struct FlatMetric {
  std::string name;
  double value = 0.0;
};

std::vector<FlatMetric> Flatten(const MetricsSnapshot& snapshot) {
  std::vector<FlatMetric> out;
  for (const CounterSample& c : snapshot.counters) {
    out.push_back({c.name, static_cast<double>(c.value)});
  }
  for (const GaugeSample& g : snapshot.gauges) {
    out.push_back({g.name, g.value});
  }
  for (const HistogramSample& h : snapshot.histograms) {
    out.push_back({h.name + "/count", static_cast<double>(h.count)});
    out.push_back({h.name + "/sum", h.sum});
  }
  std::sort(out.begin(), out.end(),
            [](const FlatMetric& a, const FlatMetric& b) {
              return a.name < b.name;
            });
  return out;
}

std::string_view VerdictLabel(PerfGateEntry::Verdict v) {
  switch (v) {
    case PerfGateEntry::Verdict::kOk: return "ok";
    case PerfGateEntry::Verdict::kSkipped: return "skipped";
    case PerfGateEntry::Verdict::kBelowFloor: return "below-floor";
    case PerfGateEntry::Verdict::kRegression: return "REGRESSION";
    case PerfGateEntry::Verdict::kOutOfBand: return "OUT-OF-BAND";
    case PerfGateEntry::Verdict::kMissing: return "MISSING";
    case PerfGateEntry::Verdict::kNew: return "new";
    case PerfGateEntry::Verdict::kBelowMin: return "BELOW-MIN";
  }
  return "?";
}

}  // namespace

bool GlobMatch(const std::string& pattern, const std::string& text) {
  // Iterative '*' matcher with backtracking to the last star.
  size_t p = 0, t = 0;
  size_t star = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == text[t] || pattern[p] == '?')) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

Result<PerfGateOptions> ParsePerfGateConfig(const std::string& config_json) {
  EMIGRE_ASSIGN_OR_RETURN(json::JsonValue root, json::Parse(config_json));
  if (root.kind != json::JsonValue::Kind::kObject) {
    return Status::InvalidArgument(
        "perfgate config: top level is not an object");
  }
  if (json::StringOr(root, "schema") != "emigre.perfgate.v1") {
    return Status::InvalidArgument(
        "perfgate config: missing or unknown \"schema\"");
  }
  PerfGateOptions opts;
  opts.counter_tol = json::DoubleOr(root, "counter_tol", opts.counter_tol);
  opts.latency_tol = json::DoubleOr(root, "latency_tol", opts.latency_tol);
  opts.counter_min = json::DoubleOr(root, "counter_min", opts.counter_min);
  opts.latency_min = json::DoubleOr(root, "latency_min", opts.latency_min);
  if (const json::JsonValue* skip = root.Find("skip")) {
    for (const json::JsonValue& v : skip->array) {
      if (v.kind == json::JsonValue::Kind::kString) {
        opts.skip.push_back(v.string);
      }
    }
  }
  if (const json::JsonValue* floors = root.Find("floors")) {
    if (floors->kind != json::JsonValue::Kind::kObject) {
      return Status::InvalidArgument(
          "perfgate config: \"floors\" is not an object");
    }
    for (const auto& [bench, metrics] : floors->object) {
      if (metrics.kind != json::JsonValue::Kind::kObject) {
        return Status::InvalidArgument(
            "perfgate config: floors for bench \"" + bench +
            "\" is not an object");
      }
      for (const auto& [name, v] : metrics.object) {
        if (v.kind != json::JsonValue::Kind::kNumber) {
          return Status::InvalidArgument(
              "perfgate config: floor \"" + name + "\" is not a number");
        }
        opts.floors[bench][name] = v.number;
      }
    }
  }
  return opts;
}

Result<PerfGateReport> ComparePerf(const BenchDoc& baseline,
                                   const BenchDoc& current,
                                   const PerfGateOptions& opts) {
  if (baseline.bench != current.bench) {
    return Status::InvalidArgument(StrFormat(
        "bench mismatch: baseline is \"%s\", current is \"%s\"",
        baseline.bench.c_str(), current.bench.c_str()));
  }
  if (baseline.scale != current.scale) {
    return Status::InvalidArgument(StrFormat(
        "scale mismatch: baseline ran at %d, current at %d (set "
        "EMIGRE_BENCH_SCALE to match or refresh the baseline)",
        baseline.scale, current.scale));
  }

  PerfGateReport report;
  report.bench = current.bench;
  report.scale = current.scale;

  std::map<std::string, double> base_by_name;
  for (const FlatMetric& m : Flatten(baseline.metrics)) {
    base_by_name[m.name] = m.value;
  }

  auto skip_matched = [&opts](const std::string& name) {
    for (const std::string& pattern : opts.skip) {
      if (GlobMatch(pattern, name)) return true;
    }
    return false;
  };

  std::map<std::string, double> unmet_floors;
  if (auto fl = opts.floors.find(current.bench); fl != opts.floors.end()) {
    unmet_floors = fl->second;
  }

  for (const FlatMetric& m : Flatten(current.metrics)) {
    PerfGateEntry entry;
    entry.metric = m.name;
    entry.current = m.value;
    const SeriesKind kind = KindOf(m.name);
    entry.tolerance = ToleranceOf(kind, opts);
    double floor = NoiseFloorOf(kind, opts);

    // Absolute floors outrank every other disposition: they apply to new
    // metrics, skipped metrics, and metrics under the noise floor alike.
    if (auto fit = unmet_floors.find(m.name); fit != unmet_floors.end()) {
      entry.floor = fit->second;
      unmet_floors.erase(fit);
      if (m.value < entry.floor) {
        if (auto bit = base_by_name.find(m.name); bit != base_by_name.end()) {
          entry.baseline = bit->second;
          base_by_name.erase(bit);
        }
        entry.ratio = entry.floor > 0.0 ? m.value / entry.floor : 0.0;
        entry.verdict = PerfGateEntry::Verdict::kBelowMin;
        ++report.compared;
        ++report.failed;
        report.entries.push_back(std::move(entry));
        continue;
      }
    }

    auto it = base_by_name.find(m.name);
    if (it == base_by_name.end()) {
      entry.verdict = PerfGateEntry::Verdict::kNew;
      report.entries.push_back(std::move(entry));
      continue;
    }
    entry.baseline = it->second;
    base_by_name.erase(it);

    if (skip_matched(m.name)) {
      entry.verdict = PerfGateEntry::Verdict::kSkipped;
      ++report.skipped;
    } else if (entry.baseline < floor && entry.current < floor) {
      entry.verdict = PerfGateEntry::Verdict::kBelowFloor;
      ++report.skipped;
    } else {
      ++report.compared;
      entry.ratio =
          entry.baseline > 0.0 ? entry.current / entry.baseline : 0.0;
      double upper = entry.baseline * (1.0 + entry.tolerance);
      double lower = entry.baseline / (1.0 + entry.tolerance);
      if (kind == SeriesKind::kSpeedup) {
        // A higher speedup is better, never stale: only a fall regresses.
        entry.verdict = entry.current < lower
                            ? PerfGateEntry::Verdict::kRegression
                            : PerfGateEntry::Verdict::kOk;
      } else if (entry.current > upper) {
        entry.verdict = PerfGateEntry::Verdict::kRegression;
      } else if (entry.current < lower) {
        entry.verdict = PerfGateEntry::Verdict::kOutOfBand;
      } else {
        entry.verdict = PerfGateEntry::Verdict::kOk;
      }
    }
    if (entry.Failed()) ++report.failed;
    report.entries.push_back(std::move(entry));
  }

  // A floored metric the current run never emitted cannot attest its
  // contract — that is a failure, not a silent skip.
  for (const auto& [name, min_value] : unmet_floors) {
    PerfGateEntry entry;
    entry.metric = name;
    entry.floor = min_value;
    if (auto bit = base_by_name.find(name); bit != base_by_name.end()) {
      entry.baseline = bit->second;
      base_by_name.erase(bit);
    }
    entry.verdict = PerfGateEntry::Verdict::kBelowMin;
    ++report.failed;
    report.entries.push_back(std::move(entry));
  }

  // Whatever is left in the baseline map never showed up in the current run.
  for (const auto& [name, value] : base_by_name) {
    PerfGateEntry entry;
    entry.metric = name;
    entry.baseline = value;
    const SeriesKind kind = KindOf(name);
    entry.tolerance = ToleranceOf(kind, opts);
    if (skip_matched(name) || value < NoiseFloorOf(kind, opts)) {
      entry.verdict = PerfGateEntry::Verdict::kSkipped;
      ++report.skipped;
    } else {
      entry.verdict = PerfGateEntry::Verdict::kMissing;
      ++report.failed;
    }
    report.entries.push_back(std::move(entry));
  }

  std::sort(report.entries.begin(), report.entries.end(),
            [](const PerfGateEntry& a, const PerfGateEntry& b) {
              return a.metric < b.metric;
            });
  report.pass = report.failed == 0;
  return report;
}

std::string PerfGateReport::Format() const {
  std::ostringstream out;
  out << StrFormat("perfgate: bench \"%s\" (scale %d): %zu compared, "
                   "%zu skipped, %zu failed\n",
                   bench.c_str(), scale, compared, skipped, failed);
  if (pass) {
    out << "perfgate: PASS\n";
    return out.str();
  }
  TextTable table({"metric", "baseline", "current", "ratio", "tol", "verdict"});
  for (size_t col = 1; col <= 4; ++col) table.SetAlign(col, Align::kRight);
  for (const PerfGateEntry& e : entries) {
    if (!e.Failed()) continue;
    // A floor violation compares against the configured minimum, not the
    // baseline; show the number the metric actually had to beat.
    bool below_min = e.verdict == PerfGateEntry::Verdict::kBelowMin;
    table.AddRow({e.metric,
                  FormatDouble(below_min ? e.floor : e.baseline, 4),
                  FormatDouble(e.current, 4), FormatDouble(e.ratio, 3),
                  FormatDouble(e.tolerance, 2),
                  std::string(VerdictLabel(e.verdict))});
  }
  out << table.ToString();
  out << "perfgate: FAIL (refresh stale baselines with "
         "tools/perfgate.py --update-baselines)\n";
  return out.str();
}

}  // namespace emigre::obs
