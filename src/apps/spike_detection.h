// Spike Detection (SD), Fig. 18(b):
//   Spout -> Parser -> MovingAverage -> SpikeDetection -> Sink
// Sensor readings flow through a per-device sliding-window average;
// the detector compares each reading against the average and emits a
// signal per input tuple regardless (Appendix B: selectivity one).
#pragma once

#include <memory>
#include <vector>

#include "api/dsl.h"
#include "api/operator.h"
#include "api/topology.h"
#include "apps/common_ops.h"
#include "common/rng.h"
#include "model/operator_profile.h"

namespace brisk::apps {

struct SpikeDetectionParams {
  int num_devices = 2048;
  int window = 64;            ///< moving-average window length
  double spike_threshold = 1.8;  ///< reading / avg ratio flagged as spike
  uint64_t seed = 31;
  /// Bounded-source cap: each spout replica stops after this many
  /// readings (0 = unbounded); see WordCountParams::max_sentences.
  uint64_t max_readings = 0;
};

/// Sensor source: (device_id, reading). Honors the job-level seed
/// (OperatorContext::seed) when one is set, else the params seed.
class SensorSpout : public api::Spout {
 public:
  explicit SensorSpout(SpikeDetectionParams params)
      : params_(params), rng_(params.seed) {}

  Status Prepare(const api::OperatorContext& ctx) override;
  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override;

  /// Replay support (checkpoint/restore): re-seeds and regenerates the
  /// discarded prefix's RNG draws, so the replayed reading stream is
  /// bit-identical to the original emission.
  bool Replayable() const override { return true; }
  api::SourcePosition Position() const override {
    return api::SourcePosition::Tuples(produced_);
  }
  bool Rewind(const api::SourcePosition& position) override;

 private:
  SpikeDetectionParams params_;
  Rng rng_;
  uint64_t effective_seed_ = 0;  ///< what Prepare seeded rng_ with
  uint64_t produced_ = 0;  ///< readings emitted (max_readings cap)
};

/// The SD dataflow as a dsl::Pipeline program (what MakeApp uses):
/// Source → Filter(parser) → KeyBy(device).Aggregate(moving_avg) →
/// FlatMap(spike_detect) → Sink. moving_avg emits (device, reading,
/// window mean) per reading; spike_detect emits (device, 0|1) per
/// input, 1 when the reading exceeds `spike_threshold` × the mean.
///
/// `tap`, when set, additionally receives every tuple the sink sees
/// ((device, spike-flag) pairs); copied per sink replica — shared
/// captures must synchronize.
StatusOr<api::Topology> BuildSpikeDetectionDsl(
    std::shared_ptr<SinkTelemetry> sink, SpikeDetectionParams params = {},
    dsl::SinkFn tap = nullptr);

model::ProfileSet SpikeDetectionProfiles(
    const SpikeDetectionParams& params = {});

}  // namespace brisk::apps
