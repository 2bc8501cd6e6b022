// Emit-path microbenchmark — the §5.2 jumbo-tuple hot path in
// isolation: a producer task emitting word_count-style tuples through
// shuffle/fields/broadcast routes, and Linear Road position reports
// (5 fields) through shuffle, into per-consumer jumbo-tuple buffers,
// drained (and recycled) by the consumer side.
//
// Reports tuples/s, ns/tuple and — via an interposing counting
// allocator compiled into this binary only — heap allocations per
// emitted tuple in steady state. Results go to stdout and to the
// machine-readable `BENCH_emit_path.json` (see README "Hot path &
// memory discipline" for how to read it).
//
// Flags: --quick (CI-sized round count), --out <path> (JSON location).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "apps/linear_road.h"
#include "bench_util.h"
#include "engine/channel.h"
#include "engine/config.h"
#include "engine/task.h"

// ---------------------------------------------------------------------------
// Interposing counting allocator. Linked into this binary only: every
// path to the heap (operator new / new[] and their aligned variants)
// bumps one relaxed atomic, so `allocs/tuple` counts real allocator
// round-trips, not estimates. The steady-state phase of the pooled
// emit path must report exactly zero.
// ---------------------------------------------------------------------------
namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace brisk {
namespace {

using engine::Channel;
using engine::EngineConfig;
using engine::Envelope;
using engine::OutRoute;
using engine::Task;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// word_count-style vocabulary: short syllable words like the
/// SentenceSpout dictionary (2–3 syllables + a distinguishing digit).
std::vector<std::string> MakeWords(size_t n) {
  static const char* kSyllables[] = {"ka", "lo", "mi", "ra", "tu", "ves",
                                     "zor", "pin", "qua", "sel", "dra",
                                     "fen", "gul", "hex", "jov", "wyn"};
  std::vector<std::string> words;
  words.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string w = kSyllables[i % 16];
    w += kSyllables[(i * 7 + 3) % 16];
    if (i % 3 != 0) w += kSyllables[(i * 5 + 1) % 16];
    w += std::to_string(i % 100);
    words.push_back(std::move(w));
  }
  return words;
}

struct EmitResult {
  double tuples_per_sec = 0.0;
  double ns_per_tuple = 0.0;
  double allocs_per_tuple = 0.0;
  uint64_t tuples = 0;
};

/// Pre-change reference, measured at commit 6ea6c69 (heap-allocated
/// `std::vector<Field>` tuple fields, copy-per-route EmitTo,
/// allocate-per-flush batches) with this same benchmark loop on the
/// same host. Committed so every later run records the trajectory
/// against the same origin.
constexpr double kBaselineShuffleTps = 13846768.0;
constexpr double kBaselineShuffleNsPerTuple = 72.2;
constexpr double kBaselineShuffleAllocsPerTuple = 2.125;

/// One producer task, `consumers` channels under `grouping`, drained
/// in the same thread every `consumers * batch` emits (interleaving
/// producer and consumer measures the real per-tuple path without
/// scheduler noise). `make_tuple()` builds each emitted tuple. The
/// drain side hands empty batch shells back through the channel's
/// return queue (the engine's BatchPool protocol), so steady state is
/// allocation-free.
template <typename MakeTuple>
EmitResult RunEmitBench(api::GroupingType grouping, int consumers, int batch,
                        uint64_t rounds, MakeTuple make_tuple) {
  EngineConfig cfg = EngineConfig::Brisk();
  cfg.batch_size = batch;
  Task task(0, 0, cfg, nullptr);
  std::vector<std::unique_ptr<Channel>> channels;
  OutRoute route;
  route.stream_id = 0;
  route.grouping = grouping;
  route.key_field = 0;
  for (int c = 0; c < consumers; ++c) {
    channels.push_back(std::make_unique<Channel>(0, c + 1, cfg.queue_capacity));
    route.channels.push_back(channels.back().get());
    route.buffer_index.push_back(task.AddBuffer());
  }
  task.AddOutRoute(std::move(route));

  const uint64_t tuples_per_round =
      static_cast<uint64_t>(consumers) * static_cast<uint64_t>(batch);
  uint64_t consumed = 0;

  auto emit_round = [&] {
    for (uint64_t i = 0; i < tuples_per_round; ++i) {
      task.EmitTo(0, make_tuple());
    }
  };
  auto drain = [&] {
    Envelope env;
    for (auto& ch : channels) {
      while (ch->TryPop(&env)) {
        consumed += env.batch->tuples.size();
        env.batch->Reset();
        ch->Recycle(std::move(env.batch));
      }
    }
  };

  // Warm-up: reach steady-state capacities (staging buffers, queue
  // slots, pooled batches) and warm caches before counting anything.
  // A 64-round warm-up measures --quick shuffle about 8% low.
  constexpr int kWarmupRounds = 320;
  for (int r = 0; r < kWarmupRounds; ++r) {
    emit_round();
    drain();
  }

  const uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  const int64_t t0 = NowNs();
  for (uint64_t r = 0; r < rounds; ++r) {
    emit_round();
    drain();
  }
  const int64_t t1 = NowNs();
  const uint64_t allocs1 = g_heap_allocs.load(std::memory_order_relaxed);

  EmitResult res;
  res.tuples = rounds * tuples_per_round;
  const double secs = static_cast<double>(t1 - t0) * 1e-9;
  res.tuples_per_sec = static_cast<double>(res.tuples) / secs;
  res.ns_per_tuple =
      static_cast<double>(t1 - t0) / static_cast<double>(res.tuples);
  res.allocs_per_tuple = static_cast<double>(allocs1 - allocs0) /
                         static_cast<double>(res.tuples);
  if (consumed == 0) std::abort();  // keep the drain live
  return res;
}

bench::JsonObj ToJson(const EmitResult& r) {
  bench::JsonObj o;
  o.Add("tuples_per_sec", r.tuples_per_sec)
      .Add("ns_per_tuple", r.ns_per_tuple)
      .Add("allocs_per_tuple", r.allocs_per_tuple)
      .Add("tuples", r.tuples);
  return o;
}

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_emit_path.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const uint64_t rounds = quick ? 2000 : 20000;
  constexpr int kConsumers = 4;
  constexpr int kBatch = 64;

  bench::Banner("emit path",
                "zero-allocation jumbo-tuple emit microbenchmark, WC + LR");

  const std::vector<std::string> words = MakeWords(256);
  size_t next_word = 0;
  auto word_tuple = [&] {
    Tuple t;
    t.fields.emplace_back(words[next_word]);
    next_word = (next_word + 1) & 255;
    return t;
  };
  // Linear Road position report: [type, vehicle, segment, speed, lane],
  // built the way LinearRoadSpout builds it.
  uint64_t next_report = 0;
  auto position_report = [&] {
    const auto n = static_cast<int64_t>(next_report++);
    Tuple t;
    t.fields = {Field(apps::kLrPosition), Field(n % 20000), Field(n % 100),
                Field(30.0 + static_cast<double>(n % 70)), Field(n % 4)};
    return t;
  };

  const EmitResult shuffle = RunEmitBench(
      api::GroupingType::kShuffle, kConsumers, kBatch, rounds, word_tuple);
  const EmitResult fields = RunEmitBench(
      api::GroupingType::kFields, kConsumers, kBatch, rounds, word_tuple);
  const EmitResult broadcast = RunEmitBench(api::GroupingType::kBroadcast,
                                            kConsumers, kBatch, rounds / 4,
                                            word_tuple);
  const EmitResult position = RunEmitBench(api::GroupingType::kShuffle,
                                           kConsumers, kBatch, rounds,
                                           position_report);

  const std::vector<int> widths = {16, 14, 10, 12};
  bench::PrintRule(widths);
  bench::PrintRow({"config", "tuples/s", "ns/tuple", "allocs/tuple"},
                  widths);
  bench::PrintRule(widths);
  auto row = [&](const char* name, double tps, double nspt_v, double apt_v) {
    char tps_s[32], nspt[32], apt[32];
    std::snprintf(tps_s, sizeof(tps_s), "%.0f", tps);
    std::snprintf(nspt, sizeof(nspt), "%.1f", nspt_v);
    std::snprintf(apt, sizeof(apt), "%.3f", apt_v);
    bench::PrintRow({name, tps_s, nspt, apt}, widths);
  };
  row("baseline@6ea6c69", kBaselineShuffleTps, kBaselineShuffleNsPerTuple,
      kBaselineShuffleAllocsPerTuple);
  row("shuffle", shuffle.tuples_per_sec, shuffle.ns_per_tuple,
      shuffle.allocs_per_tuple);
  row("fields", fields.tuples_per_sec, fields.ns_per_tuple,
      fields.allocs_per_tuple);
  row("broadcast", broadcast.tuples_per_sec, broadcast.ns_per_tuple,
      broadcast.allocs_per_tuple);
  row("position_report", position.tuples_per_sec, position.ns_per_tuple,
      position.allocs_per_tuple);
  bench::PrintRule(widths);
  std::printf("speedup vs baseline (shuffle): %.2fx\n",
              shuffle.tuples_per_sec / kBaselineShuffleTps);

  bench::JsonObj baseline;
  baseline.Add("commit", "6ea6c69")
      .Add("tuples_per_sec", kBaselineShuffleTps)
      .Add("ns_per_tuple", kBaselineShuffleNsPerTuple)
      .Add("allocs_per_tuple", kBaselineShuffleAllocsPerTuple);
  bench::JsonObj doc;
  doc.Add("bench", "emit_path")
      .Add("workload",
           "word_count emit (shuffle, fields, broadcast) and Linear Road "
           "5-field position reports (shuffle): 1 producer task, "
           "4 consumer channels, batch 64")
      .Add("quick", quick)
      .Add("baseline_shuffle", baseline)
      .Add("shuffle", ToJson(shuffle))
      .Add("fields", ToJson(fields))
      .Add("broadcast", ToJson(broadcast))
      .Add("position_report", ToJson(position))
      .Add("speedup_vs_baseline",
           shuffle.tuples_per_sec / kBaselineShuffleTps);
  if (!bench::WriteJsonFile(out_path, doc)) return 1;
  std::printf("wrote %s\n", out_path.c_str());

  // CI gate: the emit path must not touch the allocator in steady
  // state under any grouping or bundled-app arity. A single alloc per
  // tuple (or per batch) is a regression of the whole point of this
  // data plane.
  if (shuffle.allocs_per_tuple != 0.0 || fields.allocs_per_tuple != 0.0 ||
      broadcast.allocs_per_tuple != 0.0 || position.allocs_per_tuple != 0.0) {
    std::fprintf(stderr,
                 "FAIL: steady-state allocs/tuple nonzero "
                 "(shuffle %.4f, fields %.4f, broadcast %.4f, "
                 "position_report %.4f)\n",
                 shuffle.allocs_per_tuple, fields.allocs_per_tuple,
                 broadcast.allocs_per_tuple, position.allocs_per_tuple);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace brisk

int main(int argc, char** argv) { return brisk::Main(argc, argv); }
