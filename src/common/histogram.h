// Streaming histogram with log-spaced buckets, used for latency
// distributions (Fig. 7 CDF, Table 5 tail latencies) and the windowed
// per-tuple execution time CDF of the profiling run (Fig. 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace brisk {

/// Fixed-layout histogram over positive values (e.g. nanoseconds).
///
/// Buckets grow geometrically: each is `kGrowth` times wider than the
/// previous, giving ~2% relative quantile error across twelve decades —
/// the same design RocksDB/HdrHistogram use for latency tracking. Not
/// thread-safe; each recording thread owns one and merges at the end.
class Histogram {
 public:
  Histogram();

  /// Records one sample (values < 1 clamp to the first bucket).
  void Add(double value);

  /// Records `count` identical samples (weighted add — e.g. one
  /// latency observation covering a whole tuple batch).
  void AddN(double value, uint64_t count);

  /// Merges another histogram's counts into this one.
  void Merge(const Histogram& other);

  void Reset();

  uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Quantile q in [0, 1]; interpolates within the containing bucket.
  double Percentile(double q) const;

  double Median() const { return Percentile(0.5); }
  double P99() const { return Percentile(0.99); }

  /// (value, cumulative fraction) pairs for every non-empty bucket —
  /// directly plottable as a CDF.
  std::vector<std::pair<double, double>> Cdf() const;

  /// Multi-line human-readable summary.
  std::string ToString() const;

 private:
  static constexpr double kGrowth = 1.02;
  static constexpr int kNumBuckets = 1400;  // covers up to ~1e12

  int BucketFor(double value) const;
  double BucketLower(int idx) const;
  double BucketUpper(int idx) const;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace brisk
