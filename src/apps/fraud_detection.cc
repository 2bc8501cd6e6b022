#include "apps/fraud_detection.h"

#include <vector>

#include "api/dsl.h"

namespace brisk::apps {

Status TransactionSpout::Prepare(const api::OperatorContext& ctx) {
  rng_ = Rng(params_.seed + 0x51ed2701ULL * (ctx.replica_index + 1));
  return Status::OK();
}

size_t TransactionSpout::NextBatch(size_t max_tuples,
                                   api::OutputCollector* out) {
  const int64_t now = NowNs();
  for (size_t i = 0; i < max_tuples; ++i) {
    Tuple t;
    t.fields.emplace_back(static_cast<int64_t>(
        rng_.NextBounded(params_.num_accounts)));
    // Log-normal-ish spend: mostly small amounts, occasional spikes.
    const double amount = rng_.NextBernoulli(0.02)
                              ? 500.0 + rng_.NextDouble() * 4500.0
                              : 1.0 + rng_.NextDouble() * 120.0;
    t.fields.emplace_back(amount);
    t.fields.emplace_back(static_cast<int64_t>(rng_.NextBounded(64)));
    t.origin_ts_ns = now;
    out->Emit(std::move(t));
  }
  return max_tuples;
}

StatusOr<api::Topology> BuildFraudDetection(
    std::shared_ptr<SinkTelemetry> sink, FraudDetectionParams params) {
  // Per-account Markov model: the last amount bucket and the
  // states x states transition counts.
  struct AccountState {
    int last_state = -1;
    std::vector<uint32_t> transitions;
  };
  const int states = params.states;
  dsl::Pipeline p("fraud-detection");
  p.Source("spout",
           api::SpoutFactory(
               [params] { return std::make_unique<TransactionSpout>(params); }))
      .Filter("parser", ParserKeeps)
      .KeyBy(0)
      .Aggregate<AccountState>(
          "predict",
          {-1, std::vector<uint32_t>(static_cast<size_t>(states) * states)},
          [states](AccountState& s, const Tuple& in, api::RowEmitter& out) {
            // Amount bucket: geometric edges 10, 30, 90, ...
            int state = 0;
            for (double edge = 10.0;
                 state < states - 1 && in.GetDouble(1) > edge; edge *= 3.0) {
              ++state;
            }
            double score = 0.0;
            if (s.last_state >= 0) {
              const auto row = static_cast<size_t>(s.last_state) * states;
              uint32_t total = 0;
              for (int j = 0; j < states; ++j) total += s.transitions[row + j];
              const uint32_t seen = s.transitions[row + state];
              // Rare transition (low empirical probability) => high
              // fraud score.
              score = total > 0 ? 1.0 - static_cast<double>(seen) /
                                            static_cast<double>(total)
                                : 0.5;
              ++s.transitions[row + state];
            }
            s.last_state = state;
            // A signal per input regardless of the detection outcome
            // (Appendix B: selectivity one).
            out.Emit(Tuple{in.fields[0], Field(score)});
          },
          // Checkpoint codec: [last_state, transitions...].
          [](const AccountState& s) {
            Tuple t;
            t.fields.reserve(s.transitions.size() + 1);
            t.fields.emplace_back(s.last_state);
            for (const uint32_t n : s.transitions) t.fields.emplace_back(n);
            return t;
          },
          [](const Tuple& t) {
            AccountState s;
            s.last_state = static_cast<int>(t.fields[0].AsInt());
            for (size_t i = 1; i < t.fields.size(); ++i) {
              s.transitions.push_back(
                  static_cast<uint32_t>(t.fields[i].AsInt()));
            }
            return s;
          })
      .Sink("sink", [sink](const Tuple& in) {
        sink->RecordTuple(in.origin_ts_ns, NowNs());
      });
  return std::move(p).Build();
}

model::ProfileSet FraudDetectionProfiles(const FraudDetectionParams& params) {
  (void)params;
  using model::OperatorProfile;
  model::ProfileSet p;
  constexpr double kRecordBytes = 48.0;
  p.Set("spout", OperatorProfile::Simple(/*te=*/420, /*m=*/2.0 * kRecordBytes,
                                         /*out=*/kRecordBytes, /*sel=*/1.0));
  p.Set("parser", OperatorProfile::Simple(/*te=*/520, /*m=*/kRecordBytes,
                                          /*out=*/kRecordBytes, /*sel=*/1.0));
  // The Markov-model lookup + update dominates FD's cost.
  p.Set("predict", OperatorProfile::Simple(/*te=*/14500, /*m=*/640.0,
                                           /*out=*/24.0, /*sel=*/1.0));
  p.Set("sink", OperatorProfile::Simple(/*te=*/120, /*m=*/24.0,
                                        /*out=*/8.0, /*sel=*/0.0));
  return p;
}

}  // namespace brisk::apps
