#include "apps/word_count.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "api/dsl.h"

namespace brisk::apps {

namespace {

/// The splitter body as a kernel expand function, shared by the WC,
/// file-fed and drifting programs: one word tuple per
/// whitespace-separated token.
void SplitSentenceKernel(const Tuple& in, api::RowEmitter& out) {
  const std::string_view sentence = in.GetString(0);
  for (size_t start = 0; start < sentence.size();) {
    size_t end = sentence.find(' ', start);
    if (end == std::string_view::npos) end = sentence.size();
    if (end > start) {
      Tuple t;
      t.fields.emplace_back(sentence.substr(start, end - start));
      t.origin_ts_ns = in.origin_ts_ns;
      out.Emit(std::move(t));
    }
    start = end + 1;
  }
}

/// The counter body as a kernel aggregate update (per-key int64 count,
/// one (word, count) emission per input word).
void CountWordKernel(int64_t& count, const Tuple& in, api::RowEmitter& out) {
  Tuple t;
  t.fields.push_back(in.fields[0]);
  t.fields.emplace_back(++count);
  t.origin_ts_ns = in.origin_ts_ns;
  out.Emit(std::move(t));
}

/// WC's counting chain behind any sentence source: parser -> splitter
/// (`splitter_words` is its selectivity hint) -> KeyBy(word) -> counter
/// -> sink, the sink recording latency into `sink` and feeding `tap`.
/// Returns the counter's stream.
dsl::Stream CountWords(const dsl::Stream& sentences, double splitter_words,
                       std::shared_ptr<SinkTelemetry> sink,
                       dsl::SinkFn tap) {
  dsl::Stream counted =
      sentences.Filter("parser", api::FilterOf(ParserKeeps, 1.0, "parser"))
          .FlatMap("splitter", api::FlatMapOf(SplitSentenceKernel,
                                              splitter_words, "splitter"))
          .KeyBy(0)
          .Aggregate<int64_t>("counter", 0, CountWordKernel);
  counted.Sink("sink", [sink = std::move(sink), tap = std::move(tap)](
                           const Tuple& in) {
    sink->RecordTuple(in.origin_ts_ns, NowNs());
    if (tap) tap(in);
  });
  return counted;
}

}  // namespace

WordDictionary MakeWordDictionary(const WordCountParams& params) {
  auto dictionary = std::make_shared<std::vector<std::string>>();
  dictionary->reserve(params.vocabulary);
  Rng rng(params.seed);
  static const char* kSyllables[] = {"ka", "lo", "mi", "ra", "tu", "ves",
                                     "zor", "pin", "qua", "sel", "dra",
                                     "fen", "gul", "hex", "jov", "wyn"};
  for (int i = 0; i < params.vocabulary; ++i) {
    std::string w;
    const int syllables = 2 + static_cast<int>(rng.NextBounded(3));
    for (int s = 0; s < syllables; ++s) {
      w += kSyllables[rng.NextBounded(std::size(kSyllables))];
    }
    w += std::to_string(i & 0xff);  // de-duplicate collisions cheaply
    dictionary->push_back(std::move(w));
  }
  return dictionary;
}

SentenceSpout::SentenceSpout(WordCountParams params, WordDictionary dictionary)
    : params_(params), rng_(params.seed), dictionary_(std::move(dictionary)) {}

Status SentenceSpout::Prepare(const api::OperatorContext& ctx) {
  // Distinct seed per replica so replicas emit different sentences; a
  // seeded job (EngineConfig::seed) supplies the per-replica seed instead,
  // making runs reproducible end-to-end.
  effective_seed_ =
      ctx.seed != 0
          ? ctx.seed
          : params_.seed + 0x9e3779b9ULL * (ctx.replica_index + 1);
  rng_ = Rng(effective_seed_);
  return Status::OK();
}

size_t SentenceSpout::NextBatch(size_t max_tuples,
                                api::OutputCollector* out) {
  if (params_.max_sentences > 0) {
    if (produced_ >= params_.max_sentences) return 0;  // bounded: done
    max_tuples =
        std::min<uint64_t>(max_tuples, params_.max_sentences - produced_);
  }
  produced_ += max_tuples;
  const int64_t now = NowNs();
  for (size_t i = 0; i < max_tuples; ++i) {
    std::string sentence;
    sentence.reserve(params_.words_per_sentence * 8);
    for (int w = 0; w < params_.words_per_sentence; ++w) {
      if (w) sentence += ' ';
      sentence += (*dictionary_)[rng_.NextZipf(dictionary_->size(),
                                               params_.zipf_theta)];
    }
    Tuple t;
    t.fields.emplace_back(std::move(sentence));
    t.origin_ts_ns = now;
    out->Emit(std::move(t));
  }
  return max_tuples;
}

bool SentenceSpout::Rewind(const api::SourcePosition& to) {
  if (to.kind != api::SourcePosition::Kind::kTupleCount) return false;
  const uint64_t position = to.offset;
  // Re-seed and fast-forward: each sentence consumes exactly
  // words_per_sentence Zipf draws, so regenerating (and discarding)
  // that many draws leaves the RNG exactly where it was after sentence
  // `position` — the replayed stream continues bit-identically.
  rng_ = Rng(effective_seed_);
  for (uint64_t s = 0; s < position; ++s) {
    for (int w = 0; w < params_.words_per_sentence; ++w) {
      (void)rng_.NextZipf(dictionary_->size(), params_.zipf_theta);
    }
  }
  produced_ = position;
  return true;
}

StatusOr<api::Topology> BuildWordCountDsl(std::shared_ptr<SinkTelemetry> sink,
                                          WordCountParams params,
                                          dsl::SinkFn tap) {
  // Built once here, not per replica at Prepare: every spout replica
  // shares the same words.
  const WordDictionary dictionary = MakeWordDictionary(params);
  dsl::Pipeline p("word-count");
  CountWords(p.Source("spout", api::SpoutFactory([params, dictionary] {
               return std::make_unique<SentenceSpout>(params, dictionary);
             })),
             static_cast<double>(params.words_per_sentence), std::move(sink),
             std::move(tap));
  return std::move(p).Build();
}

dsl::Pipeline BuildFileWordCountDsl(std::shared_ptr<SinkTelemetry> sink,
                                    io::FileSourceOptions source,
                                    std::string out_path, dsl::SinkFn tap) {
  dsl::Pipeline p("wc-file");
  const dsl::Stream counted =
      CountWords(p.FromFile("spout", std::move(source)), 10.0,
                 std::move(sink), std::move(tap));
  if (!out_path.empty()) {
    counted.ToFile("egress", std::move(out_path));
  }
  return p;
}

dsl::Pipeline BuildDriftingWordCountDsl(std::shared_ptr<SinkTelemetry> sink,
                                        DriftingWordCountParams params,
                                        dsl::SinkFn tap) {
  auto feed_position = std::make_shared<std::atomic<uint64_t>>(0);
  dsl::Pipeline p("wc-drift");
  dsl::SourceFactory source([feed_position, params](
                               const api::OperatorContext& ctx)
                               -> dsl::SourceFn {
    auto rng = std::make_shared<Rng>(
        ctx.seed != 0 ? ctx.seed : 4242 + ctx.replica_index);
    auto produced = std::make_shared<uint64_t>(0);
    return [rng, produced, feed_position, params](
               size_t max_tuples, dsl::Collector& out) -> size_t {
      const int64_t now = NowNs();
      size_t emitted = 0;
      for (size_t i = 0; i < max_tuples; ++i) {
        if (params.total_per_replica > 0 &&
            *produced >= params.total_per_replica) {
          break;
        }
        const int words =
            feed_position->fetch_add(1) < params.drift_at
                ? params.long_words
                : params.short_words;
        ++*produced;
        std::string sentence;
        sentence.reserve(static_cast<size_t>(words) * 6);
        for (int w = 0; w < words; ++w) {
          if (w) sentence += ' ';
          sentence += 'w';
          sentence += std::to_string(rng->NextBounded(
              static_cast<uint64_t>(params.vocabulary)));
        }
        Tuple t;
        t.fields.emplace_back(std::move(sentence));
        t.origin_ts_ns = now;
        out.Emit(std::move(t));
        ++emitted;
      }
      return emitted;
    };
  });
  CountWords(p.Source("spout", std::move(source)),
             static_cast<double>(params.long_words),
             std::move(sink), std::move(tap));
  return p;
}

model::ProfileSet WordCountProfiles(const WordCountParams& params) {
  using model::OperatorProfile;
  model::ProfileSet p;
  const double words = params.words_per_sentence;
  const double sentence_bytes = words * 8.0;  // ~8 B per word + spaces

  // T_e in cycles, calibrated against the paper's Table 3 / Fig. 3
  // profiles on Server A (1.2 GHz): Splitter 1612.8 ns, Counter
  // 612.3 ns; spout/parser/sink are light.
  p.Set("spout",
        OperatorProfile::Simple(/*te=*/360, /*m=*/2.5 * sentence_bytes,
                                /*out=*/sentence_bytes, /*sel=*/1.0));
  p.Set("parser",
        OperatorProfile::Simple(/*te=*/500, /*m=*/2.0 * sentence_bytes,
                                /*out=*/sentence_bytes, /*sel=*/1.0));
  p.Set("splitter",
        OperatorProfile::Simple(/*te=*/1935, /*m=*/3.0 * sentence_bytes,
                                /*out=*/16.0, /*sel=*/words));
  p.Set("counter", OperatorProfile::Simple(/*te=*/735, /*m=*/96.0,
                                           /*out=*/24.0, /*sel=*/1.0));
  p.Set("sink", OperatorProfile::Simple(/*te=*/120, /*m=*/24.0,
                                        /*out=*/8.0, /*sel=*/0.0));
  return p;
}

}  // namespace brisk::apps
