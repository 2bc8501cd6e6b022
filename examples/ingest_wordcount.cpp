// File ingest → kernelized word count → binary egress, end to end:
// generate a text corpus, stream it through the shared-mmap source,
// count words with compiled kernels, write (word, count) records as
// binary egress, then re-read the output and verify every count
// against the corpus. Exits nonzero on any mismatch, so CI can run it
// as a smoke check of the whole src/io path.
//
//   $ ./examples/ingest_wordcount [lines]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "api/dsl.h"
#include "api/kernels.h"
#include "engine/runtime.h"
#include "io/io.h"
#include "model/execution_plan.h"

using namespace brisk;

namespace {

constexpr int kWordsPerLine = 8;

void SplitWords(const Tuple& in, api::RowEmitter& out) {
  const std::string_view line = in.GetString(0);
  for (size_t start = 0; start < line.size();) {
    size_t end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    if (end > start) {
      Tuple t;
      t.fields.emplace_back(line.substr(start, end - start));
      t.origin_ts_ns = in.origin_ts_ns;
      out.Emit(std::move(t));
    }
    start = end + 1;
  }
}

void CountWord(int64_t& count, const Tuple& in, api::RowEmitter& out) {
  Tuple t;
  t.fields.push_back(in.fields[0]);
  t.fields.emplace_back(++count);
  t.origin_ts_ns = in.origin_ts_ns;
  out.Emit(std::move(t));
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "ingest_wordcount: FAIL: %s\n", what.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const int lines = argc > 1 ? std::atoi(argv[1]) : 4000;
  const std::string corpus_path = "/tmp/ingest_wordcount_corpus.txt";
  const std::string out_path = "/tmp/ingest_wordcount_counts.bin";

  // A corpus with exactly known word totals.
  std::map<std::string, int64_t> expected;
  {
    std::vector<std::string> corpus;
    uint64_t k = 0;
    for (int i = 0; i < lines; ++i) {
      std::string line;
      for (int j = 0; j < kWordsPerLine; ++j) {
        std::string word = "word" + std::to_string(k++ % 97);
        ++expected[word];
        if (j) line += ' ';
        line += word;
      }
      corpus.push_back(std::move(line));
    }
    auto s = io::WriteRecordFile(corpus_path, io::RecordCodec::kText, corpus);
    if (!s.ok()) return Fail(s.ToString());
  }
  const uint64_t total_words = uint64_t(lines) * kWordsPerLine;

  // The whole dataflow, file to file, as one DSL program.
  auto seen = std::make_shared<std::atomic<uint64_t>>(0);
  io::FileSourceOptions src;
  src.path = corpus_path;
  dsl::Pipeline p("ingest-wc");
  auto counts =
      p.FromFile("lines", src)
          .FlatMap("split", api::FlatMapOf(SplitWords, kWordsPerLine, "split"))
          .KeyBy(0)
          .Aggregate<int64_t>("count", 0, CountWord);
  counts.Sink("sink", [seen](const Tuple&) { seen->fetch_add(1); });
  counts.ToFile("egress", out_path);  // binary (word, count) records

  auto topo = std::move(p).Build();
  if (!topo.ok()) return Fail(topo.status().ToString());
  auto plan = model::ExecutionPlan::Create(&topo.value(), {2, 2, 2, 1, 1});
  if (!plan.ok()) return Fail(plan.status().ToString());
  for (int i = 0; i < plan->num_instances(); ++i) plan->SetSocket(i, 0);
  auto rt = engine::BriskRuntime::Create(&topo.value(), *plan,
                                         engine::EngineConfig{});
  if (!rt.ok()) return Fail(rt.status().ToString());

  if (auto s = (*rt)->Start(); !s.ok()) return Fail(s.ToString());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (seen->load() < total_words &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  (void)(*rt)->Stop();
  if (seen->load() != total_words) {
    return Fail("sink saw " + std::to_string(seen->load()) + " of " +
                std::to_string(total_words) + " words");
  }

  // Re-read the binary egress and check every final count. Counts are
  // monotone per word, so the maximum per word is the final tally.
  auto records = io::ReadRecordFile(out_path, io::RecordCodec::kBinary);
  if (!records.ok()) return Fail(records.status().ToString());
  std::map<std::string, int64_t> final_counts;
  for (const auto& rec : records.value()) {
    auto t = io::DecodeTupleRecord(io::RecordCodec::kBinary, rec);
    if (!t.ok()) return Fail(t.status().ToString());
    const std::string word(t->GetString(0));
    if (!expected.count(word)) return Fail("unknown word '" + word + "'");
    int64_t& m = final_counts[word];
    m = std::max(m, t->GetInt(1));
  }
  for (const auto& [word, want] : expected) {
    const auto it = final_counts.find(word);
    if (it == final_counts.end()) return Fail("word '" + word + "' missing");
    if (it->second != want) {
      return Fail("word '" + word + "': counted " +
                  std::to_string(it->second) + ", corpus has " +
                  std::to_string(want));
    }
  }
  std::printf(
      "ingest_wordcount: OK — %d lines, %llu words through file → "
      "kernels → binary egress; %zu egress records, all %zu counts exact\n",
      lines, static_cast<unsigned long long>(total_words),
      records->size(), expected.size());
  return 0;
}
