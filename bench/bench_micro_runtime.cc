// Micro-benchmarks (google-benchmark) of the runtime primitives whose
// costs the paper's §5 design decisions hinge on: SPSC queue transfer,
// tuple (de)serialization, jumbo vs per-tuple queue insertion, hashing,
// and the NUMA-stall emulator's spin accuracy.
#include <benchmark/benchmark.h>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/spsc_queue.h"
#include "common/tuple.h"
#include "engine/channel.h"
#include "hardware/numa_emulator.h"

namespace brisk {
namespace {

Tuple MakeWordTuple() {
  Tuple t;
  t.fields.emplace_back(std::string("streaming"));
  t.fields.emplace_back(int64_t{42});
  return t;
}

void BM_SpscQueuePushPop(benchmark::State& state) {
  SpscQueue<int64_t> q(1024);
  int64_t v = 0;
  for (auto _ : state) {
    q.TryPush(v + 1);
    int64_t out = 0;
    q.TryPop(&out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SpscQueuePushPop);

void BM_SerializeTuple(benchmark::State& state) {
  const Tuple t = MakeWordTuple();
  std::vector<uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    SerializeTuple(t, &buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_SerializeTuple);

void BM_SerializeDeserializeRoundTrip(benchmark::State& state) {
  const Tuple t = MakeWordTuple();
  for (auto _ : state) {
    std::vector<uint8_t> buf;
    SerializeTuple(t, &buf);
    size_t off = 0;
    auto decoded = DeserializeTuple(buf, &off);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_SerializeDeserializeRoundTrip);

/// Jumbo-tuple amortization (§5.2): queue cost per tuple at different
/// batch sizes. Larger batches should approach the per-tuple floor.
void BM_BatchedTransferPerTuple(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  SpscQueue<engine::Envelope> q(256);
  const Tuple t = MakeWordTuple();
  for (auto _ : state) {
    auto jumbo = std::make_unique<JumboTuple>();
    for (int i = 0; i < batch; ++i) jumbo->tuples.push_back(t);
    engine::Envelope env;
    env.batch = std::move(jumbo);
    while (!q.TryPush(std::move(env))) {
    }
    engine::Envelope out;
    q.TryPop(&out);
    benchmark::DoNotOptimize(out.batch->size());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedTransferPerTuple)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_HashField(benchmark::State& state) {
  const Field f = std::string("brontosaurus");
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashField(f));
  }
}
BENCHMARK(BM_HashField);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Rng rng(3);
  for (auto _ : state) {
    h.Add(static_cast<double>(rng.NextBounded(100000)));
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramAdd);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextZipf(4096, 0.6));
  }
}
BENCHMARK(BM_ZipfSample);

/// The emulator's busy-wait should cost close to the requested stall.
void BM_NumaSpin500ns(benchmark::State& state) {
  for (auto _ : state) {
    hw::SpinForNs(500);
  }
}
BENCHMARK(BM_NumaSpin500ns);

}  // namespace
}  // namespace brisk

BENCHMARK_MAIN();
