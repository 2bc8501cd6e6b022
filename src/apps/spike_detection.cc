#include "apps/spike_detection.h"

#include <algorithm>

#include "api/dsl.h"

namespace brisk::apps {

Status SensorSpout::Prepare(const api::OperatorContext& ctx) {
  // A seeded job (EngineConfig::seed) supplies the per-replica seed so runs
  // are reproducible end-to-end.
  effective_seed_ =
      ctx.seed != 0 ? ctx.seed
                    : params_.seed + 0x7f4a7c15ULL * (ctx.replica_index + 1);
  rng_ = Rng(effective_seed_);
  return Status::OK();
}

bool SensorSpout::Rewind(const api::SourcePosition& to) {
  if (to.kind != api::SourcePosition::Kind::kTupleCount) return false;
  const uint64_t position = to.offset;
  // Re-seed and fast-forward: regenerate (and discard) exactly the RNG
  // draws the first `position` readings consumed, mirroring NextBatch's
  // draw sequence (device, reading, spike coin, spike magnitude).
  rng_ = Rng(effective_seed_);
  for (uint64_t i = 0; i < position; ++i) {
    (void)rng_.NextBounded(params_.num_devices);
    (void)rng_.NextDouble();
    if (rng_.NextBernoulli(0.01)) (void)rng_.NextDouble();
  }
  produced_ = position;
  return true;
}

size_t SensorSpout::NextBatch(size_t max_tuples, api::OutputCollector* out) {
  if (params_.max_readings > 0) {
    if (produced_ >= params_.max_readings) return 0;  // bounded: done
    max_tuples =
        std::min<uint64_t>(max_tuples, params_.max_readings - produced_);
  }
  produced_ += max_tuples;
  const int64_t now = NowNs();
  for (size_t i = 0; i < max_tuples; ++i) {
    Tuple t;
    t.fields.emplace_back(
        static_cast<int64_t>(rng_.NextBounded(params_.num_devices)));
    // Baseline around 20 with occasional 3-5x spikes.
    double reading = 15.0 + rng_.NextDouble() * 10.0;
    if (rng_.NextBernoulli(0.01)) reading *= 3.0 + rng_.NextDouble() * 2.0;
    t.fields.emplace_back(reading);
    t.origin_ts_ns = now;
    out->Emit(std::move(t));
  }
  return max_tuples;
}

StatusOr<api::Topology> BuildSpikeDetectionDsl(
    std::shared_ptr<SinkTelemetry> sink, SpikeDetectionParams params,
    dsl::SinkFn tap) {
  dsl::Pipeline p("spike-detection");
  p.Source("spout",
           api::SpoutFactory(
               [params] { return std::make_unique<SensorSpout>(params); }))
      .Filter("parser", api::FilterOf(ParserKeeps, 1.0, "parser"))
      .KeyBy(0)
      .Aggregate<MeanWindow>(
          "moving_avg", {},
          [params](MeanWindow& w, const Tuple& in, api::RowEmitter& out) {
            const double reading = in.GetDouble(1);
            Tuple t;
            t.fields.push_back(in.fields[0]);
            t.fields.emplace_back(reading);
            t.fields.emplace_back(w.Push(reading, params.window));
            t.origin_ts_ns = in.origin_ts_ns;
            out.Emit(std::move(t));
          },
          EncodeMeanWindow, DecodeMeanWindow)
      .FlatMap("spike_detect",
               api::FlatMapOf(
                   [params](const Tuple& in, api::RowEmitter& out) {
                     const double reading = in.GetDouble(1);
                     const double avg = in.GetDouble(2);
                     const bool spike =
                         avg > 0 && reading > params.spike_threshold * avg;
                     Tuple t;
                     t.fields.push_back(in.fields[0]);
                     t.fields.emplace_back(
                         static_cast<int64_t>(spike ? 1 : 0));
                     t.origin_ts_ns = in.origin_ts_ns;
                     out.Emit(std::move(t));
                   },
                   1.0, "spike_detect"))
      .Sink("sink", [sink, tap](const Tuple& in) {
        sink->RecordTuple(in.origin_ts_ns, NowNs());
        if (tap) tap(in);
      });
  return std::move(p).Build();
}

model::ProfileSet SpikeDetectionProfiles(const SpikeDetectionParams& params) {
  (void)params;
  using model::OperatorProfile;
  model::ProfileSet p;
  constexpr double kReadingBytes = 24.0;
  p.Set("spout", OperatorProfile::Simple(/*te=*/380, /*m=*/2.0 * kReadingBytes,
                                         /*out=*/kReadingBytes, /*sel=*/1.0));
  p.Set("parser", OperatorProfile::Simple(/*te=*/450, /*m=*/kReadingBytes,
                                          /*out=*/kReadingBytes, /*sel=*/1.0));
  p.Set("moving_avg", OperatorProfile::Simple(/*te=*/5200, /*m=*/560.0,
                                              /*out=*/32.0, /*sel=*/1.0));
  p.Set("spike_detect", OperatorProfile::Simple(/*te=*/900, /*m=*/64.0,
                                                /*out=*/16.0, /*sel=*/1.0));
  p.Set("sink", OperatorProfile::Simple(/*te=*/120, /*m=*/16.0,
                                        /*out=*/8.0, /*sel=*/0.0));
  return p;
}

}  // namespace brisk::apps
