// Deterministic, fast pseudo-random generators used across workloads,
// simulation, and the Monte-Carlo plan experiments (Fig. 14).
#pragma once

#include <cstdint>
#include <limits>

namespace brisk {

/// SplitMix64: used to seed Xoshiro256** and for cheap one-off hashing.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stable per-replica seed derived from one job-level seed: mixes the
/// operator id and replica index through SplitMix64 so replicas get
/// decorrelated streams while the whole run stays a pure function of
/// `job_seed` (EngineConfig::seed). Never returns 0,
/// so a seeded job is distinguishable from an unseeded one
/// (OperatorContext::seed == 0).
inline uint64_t DeriveSeed(uint64_t job_seed, int op, int replica) {
  uint64_t state = job_seed;
  SplitMix64(state);
  state ^= 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(op) + 1);
  SplitMix64(state);
  state ^= 0xbf58476d1ce4e5b9ULL * (static_cast<uint64_t>(replica) + 1);
  const uint64_t derived = SplitMix64(state);
  return derived == 0 ? 1 : derived;
}

/// Xoshiro256** — small, fast, high-quality PRNG. Deterministic given a
/// seed, which keeps every experiment in this repo reproducible.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x42d5ad9e0f1c3b7aULL) {
    uint64_t sm = seed;
    for (auto& s : s_) s = SplitMix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() { return Next(); }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Lemire's multiply-shift rejection-free mapping (slight bias is
    // irrelevant at our bounds << 2^64).
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// True with probability p.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Exponentially distributed sample with the given mean.
  double NextExponential(double mean);

  /// Zipf-distributed rank in [0, n) with skew theta (0 = uniform-ish).
  /// Uses the rejection-inversion method; suitable for word frequency
  /// generation in the WC workload.
  uint64_t NextZipf(uint64_t n, double theta);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];

  // Memoised Zipf constants (recomputed when (n, theta) changes).
  uint64_t zipf_n_ = 0;
  double zipf_theta_ = -1.0;
  double zeta_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

}  // namespace brisk
