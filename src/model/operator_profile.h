// Operator specifications (Table 1, operator-specific rows).
//
// A profile carries what the paper measures with overseer/classmexer
// during model instantiation (§3.1): per-tuple execution time T_e,
// memory bandwidth consumption M, output tuple size N, and per-stream
// selectivity. T_e is stored in CPU *cycles* (as profiled, Fig. 3) and
// converted to ns on a concrete machine, so the same profile drives
// both evaluation servers despite their different clock speeds.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace brisk::model {

/// Profiled specification of one logical operator.
struct OperatorProfile {
  /// Average execution cycles per input tuple (function execution +
  /// emit cost; 50th percentile of the profiled distribution, §3.1).
  double te_cycles = 0.0;

  /// Average memory bandwidth consumption per tuple, bytes (Eq. 4's M).
  double m_bytes = 0.0;

  /// Average output tuple size N in bytes, per declared output stream
  /// (index = stream id). Consumers use the producer's entry for their
  /// subscribed stream in Formula 2.
  std::vector<double> output_bytes{64.0};

  /// Output selectivity per declared output stream: output tuples
  /// emitted on that stream per input tuple processed (Appendix B).
  std::vector<double> selectivity{1.0};

  /// Convenience for single-stream operators.
  static OperatorProfile Simple(double te_cycles, double m_bytes,
                                double out_bytes, double sel = 1.0) {
    OperatorProfile p;
    p.te_cycles = te_cycles;
    p.m_bytes = m_bytes;
    p.output_bytes = {out_bytes};
    p.selectivity = {sel};
    return p;
  }
};

/// Profiles for every operator of one application, keyed by operator
/// name. The model requires an entry per topology operator.
class ProfileSet {
 public:
  ProfileSet() = default;

  void Set(const std::string& op_name, OperatorProfile profile) {
    profiles_[op_name] = std::move(profile);
  }

  /// The profile of `op_name`, or nullptr; valid until the next Set.
  const OperatorProfile* Find(const std::string& op_name) const {
    auto it = profiles_.find(op_name);
    return it == profiles_.end() ? nullptr : &it->second;
  }

  StatusOr<OperatorProfile> Get(const std::string& op_name) const {
    const OperatorProfile* p = Find(op_name);
    if (p == nullptr) {
      return Status::NotFound("no profile for operator '" + op_name + "'");
    }
    return *p;
  }

  bool Has(const std::string& op_name) const {
    return profiles_.count(op_name) > 0;
  }

  size_t size() const { return profiles_.size(); }

  const std::map<std::string, OperatorProfile>& all() const {
    return profiles_;
  }

  /// Returns a copy with every T_e multiplied by `factor` — used to
  /// derive Storm-like/Flink-like cost profiles from Brisk profiles
  /// (Fig. 8's measured execution-efficiency gap).
  ProfileSet ScaledTe(double factor) const {
    ProfileSet out = *this;
    for (auto& [name, p] : out.profiles_) p.te_cycles *= factor;
    return out;
  }

 private:
  std::map<std::string, OperatorProfile> profiles_;
};

}  // namespace brisk::model
