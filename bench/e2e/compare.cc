#include "compare.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

namespace brisk::e2e {

StatusOr<std::vector<MetricSpec>> EndToEndSpecs(const Json& benchmark) {
  const Json* list = benchmark.Find("end_to_end");
  if (list == nullptr || list->type != Json::Type::kArray) {
    return Status::InvalidArgument("BENCHMARK.json: no end_to_end list");
  }
  std::vector<MetricSpec> specs;
  for (const Json& m : list->items) {
    const Json* name = m.Find("name");
    const Json* unit = m.Find("unit");
    const Json* better = m.Find("better");
    const Json* bound = m.Find("bound");
    if (name == nullptr || unit == nullptr || better == nullptr ||
        bound == nullptr || bound->type != Json::Type::kNumber) {
      return Status::InvalidArgument(
          "BENCHMARK.json: end_to_end entry needs name, unit, better, bound");
    }
    if (better->str != "higher" && better->str != "lower") {
      return Status::InvalidArgument("BENCHMARK.json: better must be "
                                     "'higher' or 'lower' for " +
                                     name->str);
    }
    specs.push_back(
        {name->str, unit->str, better->str == "higher", bound->number});
  }
  return specs;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kBetter:
      return "better";
    case Verdict::kWithin:
      return "within bound";
    case Verdict::kWorse:
      return "worse";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

Comparison Compare(const std::vector<double>& base,
                   const std::vector<double>& cand, const MetricSpec& spec) {
  Comparison c;
  c.base = QuartilesOf(base);
  c.cand = QuartilesOf(cand);
  // Orient every comparison so that "a beats b" means a is better.
  const auto beats = [&spec](double a, double b) {
    return spec.higher_is_better ? a > b : a < b;
  };
  const double delta = c.cand.median - c.base.median;
  const double signed_worse = spec.higher_is_better ? -delta : delta;
  c.worsening = c.base.median != 0.0 ? signed_worse / std::fabs(c.base.median)
                : signed_worse == 0.0 ? 0.0
                : signed_worse > 0.0  ? INFINITY
                                      : -INFINITY;

  c.pairs = static_cast<int>(std::min(base.size(), cand.size()));
  for (int i = 0; i < c.pairs; ++i) {
    if (beats(cand[i], base[i])) ++c.wins;
  }
  bool all_better = !base.empty() && !cand.empty();
  for (const double b : cand) {
    for (const double a : base) {
      if (!beats(b, a)) all_better = false;
    }
  }

  if (c.base.SpreadShare() > spec.bound) {
    c.verdict = all_better ? Verdict::kBetter : Verdict::kUnresolved;
  } else if (c.worsening > spec.bound) {
    c.verdict = Verdict::kWorse;
  } else if (c.worsening < 0.0 && c.pairs > 0 && 10 * c.wins >= 9 * c.pairs &&
             std::fabs(delta) > c.base.q3 - c.base.q1) {
    c.verdict = Verdict::kBetter;
  } else {
    c.verdict = Verdict::kWithin;
  }
  return c;
}

namespace {

/// Adds one untraced bench_e2e result file ({"workload", "traced",
/// "metrics": {name: {"value", "unit"}}}) to `set`; returns false when
/// `doc` is not a result file. A traced run's numbers carry the tracing
/// overhead, so they never enter a comparison.
bool AddResultFile(const Json& doc, ResultSet* set) {
  const Json* workload = doc.Find("workload");
  const Json* metrics = doc.Find("metrics");
  if (workload == nullptr || metrics == nullptr ||
      workload->type != Json::Type::kString ||
      metrics->type != Json::Type::kObject) {
    return false;
  }
  const Json* traced = doc.Find("traced");
  if (traced != nullptr && traced->boolean) return true;
  for (const auto& [name, m] : metrics->members) {
    const Json* value = m.Find("value");
    if (value != nullptr && value->type == Json::Type::kNumber) {
      (*set)[workload->str][name].push_back(value->number);
    }
  }
  return true;
}

/// Adds a baseline summary ({"workloads": {w: {metric: {"values"}}}}).
bool AddBaseline(const Json& doc, ResultSet* set) {
  const Json* workloads = doc.Find("workloads");
  if (workloads == nullptr || workloads->type != Json::Type::kObject) {
    return false;
  }
  for (const auto& [workload, metrics] : workloads->members) {
    for (const auto& [name, m] : metrics.members) {
      const Json* values = m.Find("values");
      if (values == nullptr) continue;
      for (const Json& v : values->items) {
        if (v.type == Json::Type::kNumber) {
          (*set)[workload][name].push_back(v.number);
        }
      }
    }
  }
  return true;
}

}  // namespace

StatusOr<ResultSet> LoadResultSet(const std::string& path) {
  namespace fs = std::filesystem;
  ResultSet set;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());  // stable run pairing
    for (const std::string& file : files) {
      BRISK_ASSIGN_OR_RETURN(Json doc, ReadJsonFile(file));
      AddResultFile(doc, &set);
    }
  } else {
    BRISK_ASSIGN_OR_RETURN(Json doc, ReadJsonFile(path));
    if (!AddResultFile(doc, &set) && !AddBaseline(doc, &set)) {
      return Status::InvalidArgument(path +
                                     ": neither a result file nor a baseline");
    }
  }
  if (set.empty()) return Status::NotFound("no results under " + path);
  return set;
}

}  // namespace brisk::e2e
