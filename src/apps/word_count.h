// Word Count (WC), the paper's running example (Fig. 2):
//   Spout -> Parser -> Splitter -> Counter -> Sink
// Spout emits sentences of ten random words; Splitter has selectivity
// ten; Counter is stateful (fields-grouped on the word).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/dsl.h"
#include "api/operator.h"
#include "api/topology.h"
#include "apps/common_ops.h"
#include "common/rng.h"
#include "model/operator_profile.h"

namespace brisk::apps {

/// Workload knobs for WC.
struct WordCountParams {
  int words_per_sentence = 10;   ///< Splitter selectivity (§2.2)
  int vocabulary = 4096;         ///< distinct words
  double zipf_theta = 0.6;       ///< word frequency skew
  uint64_t seed = 17;
  /// Bounded-source cap: each spout replica stops after this many
  /// sentences (0 = unbounded). With a fixed seed this makes a whole
  /// run's tuple population exact — the determinism the differential
  /// and migration tests assert on.
  uint64_t max_sentences = 0;
};

/// The `vocabulary` words WC sentences draw from, a pure function of
/// the params seed: every spout replica shares one copy.
using WordDictionary = std::shared_ptr<const std::vector<std::string>>;
WordDictionary MakeWordDictionary(const WordCountParams& params);

/// Sentence source: each tuple is one sentence string of
/// `words_per_sentence` dictionary words. Honors the job-level seed
/// (OperatorContext::seed) when one is set, else the params seed.
class SentenceSpout : public api::Spout {
 public:
  /// Draws every word from `dictionary` (WC shares one
  /// MakeWordDictionary(params) between its replicas).
  SentenceSpout(WordCountParams params, WordDictionary dictionary);

  Status Prepare(const api::OperatorContext& ctx) override;
  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override;

  /// Replay support (checkpoint/restore): the sentence stream is a
  /// pure function of the effective seed, so rewinding re-seeds and
  /// regenerates the discarded prefix's RNG draws — the replayed
  /// suffix is bit-identical to the original emission.
  bool Replayable() const override { return true; }
  api::SourcePosition Position() const override {
    return api::SourcePosition::Tuples(produced_);
  }
  bool Rewind(const api::SourcePosition& position) override;

 private:
  WordCountParams params_;
  Rng rng_;
  uint64_t effective_seed_ = 0;  ///< what Prepare seeded rng_ with
  WordDictionary dictionary_;
  uint64_t produced_ = 0;  ///< sentences emitted (max_sentences cap)
};

/// The WC dataflow as a dsl::Pipeline program (what MakeApp uses):
/// Source → Filter(parser) → FlatMap(splitter) →
/// KeyBy(word).Aggregate(counter) → Sink.
///
/// `tap`, when set, additionally receives every tuple the sink sees
/// ((word, count) pairs) — the hook the differential/migration tests
/// use to capture exact sink multisets. The tap is copied per sink
/// replica and may run concurrently; shared captures must synchronize.
StatusOr<api::Topology> BuildWordCountDsl(std::shared_ptr<SinkTelemetry> sink,
                                          WordCountParams params = {},
                                          dsl::SinkFn tap = nullptr);

/// File-backed WC: the same kernelized parser → splitter → counter
/// chain, fed from a record file through the shared-mmap source
/// (io/mmap_source.h) instead of the synthetic SentenceSpout. Source
/// positions are byte offsets, so the job checkpoints and restores to
/// exact record boundaries. When `out_path` is non-empty, the counter
/// stream additionally egresses binary (word, count) records there
/// ("egress" operator; per-key counts are monotone, so the maximum
/// count per word in the output is the final tally).
dsl::Pipeline BuildFileWordCountDsl(std::shared_ptr<SinkTelemetry> sink,
                                    io::FileSourceOptions source,
                                    std::string out_path = {},
                                    dsl::SinkFn tap = nullptr);

/// Calibrated BriskStream profiles for WC (cycles; derived from the
/// paper's Table 3 measurements at Server A's 1.2 GHz — e.g. Splitter
/// T_e 1612.8 ns ≈ 1935 cycles, Counter 612.3 ns ≈ 735 cycles).
model::ProfileSet WordCountProfiles(const WordCountParams& params = {});

/// Knobs for the drifting WC feed (§5.3 adaptive scenarios): the first
/// `drift_at` sentences of the whole feed have `long_words` words, the
/// rest `short_words` (e.g. the upstream feed switched from documents
/// to search queries).
struct DriftingWordCountParams {
  uint64_t drift_at = 8000;
  /// Bound per spout replica (0 = unbounded), like
  /// WordCountParams::max_sentences.
  uint64_t total_per_replica = 0;
  int long_words = 10;
  int short_words = 3;
  int vocabulary = 512;
};

/// The drifting WC program used by the autopilot demo and the drift
/// smoke test. The drift phase is a property of the external feed, so
/// it lives in one counter shared by every spout replica — including
/// replicas a live migration starts later (a per-replica counter
/// would make a freshly started replica replay the pre-drift phase
/// and re-pollute the stream). Operator names match WordCountProfiles
/// so profile sets transfer; sources honor OperatorContext::seed.
dsl::Pipeline BuildDriftingWordCountDsl(std::shared_ptr<SinkTelemetry> sink,
                                        DriftingWordCountParams params = {},
                                        dsl::SinkFn tap = nullptr);

}  // namespace brisk::apps
