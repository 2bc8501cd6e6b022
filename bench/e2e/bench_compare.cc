// bench_compare: the relative regression gate over bench_e2e results.
//
//   bench_compare <BENCHMARK.json> <base> <candidate>
//       Per workload row and end-to-end metric: each side's median and
//       quartiles, the gain (relative change of the median, positive =
//       better), the bound, the index-paired wins, and a verdict (better
//       / within bound / worse / unresolved; rules in compare.h). Exits
//       1 on any "worse", 2 when a pair is missing on one side.
//   bench_compare --summarize <BENCHMARK.json> <results> [<second set>]
//       Prints a baseline summary (values, median, quartiles, spread
//       per metric, plus the host fingerprint) as JSON — the format of
//       baseline/seed.json, which is also accepted as <base>. With a
//       second set, each metric also records that set's median and
//       spread, its gain over the first, and the verdict.
//
// <base>, <candidate> and <results> are directories of result files
// written by bench_e2e --out, single result files, or a summary.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "compare.h"
#include "report.h"

namespace brisk::e2e {
namespace {

int Usage() {
  std::cerr << "usage: bench_compare <BENCHMARK.json> <base> <candidate>\n"
               "       bench_compare --summarize <BENCHMARK.json> <results> "
               "[<second set>]\n";
  return 2;
}

int CompareSets(const std::vector<MetricSpec>& specs, const ResultSet& base,
                const ResultSet& cand) {
  std::set<std::string> workloads;
  for (const auto& [w, m] : base) workloads.insert(w);
  for (const auto& [w, m] : cand) workloads.insert(w);
  int worse = 0;
  int missing = 0;
  std::printf("%-13s %-15s %-34s %-34s %8s %6s %5s  %s\n", "workload",
              "metric", "base median [q1, q3]", "candidate median [q1, q3]",
              "gain", "bound", "wins", "verdict");
  for (const std::string& w : workloads) {
    for (const MetricSpec& spec : specs) {
      const auto b = base.find(w);
      const auto c = cand.find(w);
      if (b == base.end() || c == cand.end() || !b->second.count(spec.name) ||
          !c->second.count(spec.name)) {
        std::printf("%-13s %-15s missing on one side\n", w.c_str(),
                    spec.name.c_str());
        ++missing;
        continue;
      }
      const Comparison r =
          Compare(b->second.at(spec.name), c->second.at(spec.name), spec);
      char base_s[64];
      char cand_s[64];
      std::snprintf(base_s, sizeof(base_s), "%.6g [%.6g, %.6g]",
                    r.base.median, r.base.q1, r.base.q3);
      std::snprintf(cand_s, sizeof(cand_s), "%.6g [%.6g, %.6g]",
                    r.cand.median, r.cand.q1, r.cand.q3);
      std::printf("%-13s %-15s %-34s %-34s %+7.2f%% %5.1f%% %2d/%-2d  %s\n",
                  w.c_str(), spec.name.c_str(), base_s, cand_s,
                  -100.0 * r.worsening, 100.0 * spec.bound, r.wins, r.pairs,
                  VerdictName(r.verdict));
      if (r.verdict == Verdict::kWorse) ++worse;
    }
  }
  std::printf("%d regression(s), %d missing pair(s)\n", worse, missing);
  if (worse > 0) return 1;
  return missing > 0 ? 2 : 0;
}

/// The first result file's host fingerprint under `path` (a directory
/// or a file), or null.
Json FingerprintOf(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> files;
  if (fs::is_directory(path, ec)) {
    for (const auto& e : fs::directory_iterator(path, ec)) {
      if (e.path().extension() == ".json") files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  for (const std::string& f : files) {
    auto doc = ReadJsonFile(f);
    if (!doc.ok()) continue;
    if (const Json* fp = doc->Find("fingerprint")) return *fp;
  }
  return Json();
}

int Summarize(const std::vector<MetricSpec>& specs, const std::string& path,
              const ResultSet& set, const ResultSet* second) {
  Json workloads = Json::Object();
  for (const auto& [w, metrics] : set) {
    Json row = Json::Object();
    for (const MetricSpec& spec : specs) {
      const auto it = metrics.find(spec.name);
      if (it == metrics.end()) continue;
      const Quartiles q = QuartilesOf(it->second);
      Json m = Json::Object();
      m.Set("unit", spec.unit);
      Json values = Json::Array();
      for (const double v : it->second) values.Push(v);
      m.Set("values", std::move(values));
      m.Set("median", q.median);
      m.Set("q1", q.q1);
      m.Set("q3", q.q3);
      m.Set("spread", q.SpreadShare());
      m.Set("bound", spec.bound);
      if (second != nullptr && second->count(w) &&
          second->at(w).count(spec.name)) {
        const Comparison c =
            Compare(it->second, second->at(w).at(spec.name), spec);
        Json two = Json::Object();
        two.Set("second_median", c.cand.median);
        two.Set("second_spread", c.cand.SpreadShare());
        two.Set("gain", -c.worsening);
        two.Set("verdict", VerdictName(c.verdict));
        m.Set("two_set", std::move(two));
      }
      row.Set(spec.name, std::move(m));
    }
    workloads.Set(w, std::move(row));
  }
  Json doc = Json::Object();
  doc.Set("fingerprint", FingerprintOf(path));
  doc.Set("workloads", std::move(workloads));
  std::cout << doc.Dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace brisk::e2e

int main(int argc, char** argv) {
  using namespace brisk::e2e;
  std::vector<std::string> args(argv + 1, argv + argc);
  const bool summarize = !args.empty() && args[0] == "--summarize";
  if (summarize) args.erase(args.begin());
  if (args.size() < 2 || args.size() > 3 || (!summarize && args.size() != 3)) {
    return Usage();
  }
  auto benchmark = ReadJsonFile(args[0]);
  if (!benchmark.ok()) {
    std::cerr << benchmark.status().ToString() << "\n";
    return 2;
  }
  auto specs = EndToEndSpecs(*benchmark);
  auto first = LoadResultSet(args[1]);
  if (!specs.ok() || !first.ok()) {
    std::cerr << (specs.ok() ? first.status() : specs.status()).ToString()
              << "\n";
    return 2;
  }
  std::optional<ResultSet> second;
  if (args.size() == 3) {
    auto loaded = LoadResultSet(args[2]);
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      return 2;
    }
    second = std::move(*loaded);
  }
  if (summarize) {
    return Summarize(*specs, args[1], *first,
                     second.has_value() ? &*second : nullptr);
  }
  return CompareSets(*specs, *first, *second);
}
