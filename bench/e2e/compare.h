// The regression gate: compares two sets of bench_e2e runs metric by
// metric against the bounds BENCHMARK.json fixes.
//
// Rules (one verdict per workload row and end-to-end metric):
//   - the spread is the base side's interquartile range over its
//     median; when it exceeds the metric's bound the pair is
//     "unresolved" — unless every candidate run beats every base run;
//   - a candidate median worse than the base median by more than the
//     bound is "worse" (a regression: bench_compare exits nonzero);
//   - "better" needs the candidate to win at least 9 of every 10 runs
//     paired by index (ties count for neither side) and the medians to
//     differ by more than the base side's interquartile range;
//   - anything else is "within bound".
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "report.h"

namespace brisk::e2e {

/// One end_to_end entry of BENCHMARK.json.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  ///< tolerated worsening, share of the base median
};

StatusOr<std::vector<MetricSpec>> EndToEndSpecs(const Json& benchmark);

enum class Verdict { kBetter, kWithin, kWorse, kUnresolved };
const char* VerdictName(Verdict verdict);

struct Comparison {
  Quartiles base;
  Quartiles cand;
  /// Relative change of the candidate median, positive = worse.
  double worsening = 0.0;
  int wins = 0;   ///< index-paired runs the candidate won
  int pairs = 0;  ///< index-paired runs
  Verdict verdict = Verdict::kWithin;
};

Comparison Compare(const std::vector<double>& base,
                   const std::vector<double>& cand, const MetricSpec& spec);

/// workload -> metric -> one value per run.
using ResultSet =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

/// Loads a directory of bench_e2e result files (--out; traced runs are
/// skipped), one result file, or a committed baseline summary
/// (baseline/seed.json).
StatusOr<ResultSet> LoadResultSet(const std::string& path);

}  // namespace brisk::e2e
