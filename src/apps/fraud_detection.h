// Fraud Detection (FD), Fig. 18(a):
//   Spout -> Parser -> Predict -> Sink
// Each tuple is a credit-card transaction record; Predict keeps a
// per-account Markov state-transition model and scores every
// transaction. A signal is emitted per input tuple regardless of the
// outcome (Appendix B: selectivity one on every operator).
#pragma once

#include <memory>

#include "api/operator.h"
#include "api/topology.h"
#include "apps/common_ops.h"
#include "common/rng.h"
#include "model/operator_profile.h"

namespace brisk::apps {

struct FraudDetectionParams {
  int num_accounts = 50000;
  int states = 8;          ///< Markov model states (amount buckets)
  uint64_t seed = 23;
};

/// Transaction source: (account_id, amount, merchant_bucket).
class TransactionSpout : public api::Spout {
 public:
  explicit TransactionSpout(FraudDetectionParams params)
      : params_(params), rng_(params.seed) {}

  Status Prepare(const api::OperatorContext& ctx) override;
  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override;

 private:
  FraudDetectionParams params_;
  Rng rng_;
};

/// The FD dataflow as a dsl::Pipeline program: Source → Filter(parser)
/// → KeyBy(account).Aggregate(predict) → Sink. predict keeps a
/// per-account Markov model of transitions between amount buckets and
/// emits (account, score) per transaction; a rare transition scores
/// near 1.
StatusOr<api::Topology> BuildFraudDetection(
    std::shared_ptr<SinkTelemetry> sink, FraudDetectionParams params = {});

/// Calibrated Brisk profiles (cycles). Predict dominates: FD is the
/// compute-heaviest per tuple of the four apps (Table 4's lowest
/// throughput).
model::ProfileSet FraudDetectionProfiles(
    const FraudDetectionParams& params = {});

}  // namespace brisk::apps
