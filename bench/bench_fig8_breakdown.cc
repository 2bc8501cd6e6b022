// Figure 8 — Per-tuple execution time breakdown (Execute / Others /
// RMA) for WC's non-source operators: Storm (local), Brisk (local),
// Brisk (remote).
//
// Measured single-threaded over the real code paths (this host has one
// core, so a pipelined multi-thread measurement would only measure the
// scheduler):
//   Execute — the operator's measured T_e: mean wall time per tuple in
//             the engine's one-worker profiling run
//             (engine::ProfileTopology);
//   Others  — wall time of the runtime path a tuple crosses between
//             operators: BriskStream = jumbo-tuple buffer append + SPSC
//             push/pop amortized over the batch; Storm-like = per-tuple
//             serialization + deserialization + duplicated header
//             allocation + condition-check work (all real work, §5.1/5.2);
//   RMA     — the Formula-2 remote-fetch stall for this operator's input
//             tuple size at max NUMA distance (S0 -> S7 on Server A),
//             the cost the NUMA emulator charges per tuple.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/serde.h"
#include "common/spsc_queue.h"
#include "engine/channel.h"
#include "engine/observed_profiles.h"

using namespace brisk;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-tuple cost of the Brisk communication path: append into a jumbo
/// tuple, push/pop through an SPSC queue at batch granularity.
double BriskOthersNs(const std::vector<Tuple>& samples, int batch) {
  SpscQueue<engine::Envelope> queue(256);
  const int kRounds = 4000;
  const int64_t t0 = NowNs();
  uint64_t tuples = 0;
  for (int r = 0; r < kRounds; ++r) {
    auto jumbo = std::make_unique<JumboTuple>();
    jumbo->tuples.reserve(batch);
    for (int i = 0; i < batch; ++i) {
      jumbo->tuples.push_back(samples[i % samples.size()]);
    }
    engine::Envelope env;
    env.batch = std::move(jumbo);
    while (!queue.TryPush(std::move(env))) {
    }
    engine::Envelope out;
    queue.TryPop(&out);
    tuples += out.batch->size();
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(tuples);
}

/// Per-tuple cost of the Storm-like path: serialize + deserialize each
/// tuple, allocate its duplicated header, run the condition-check walk.
double StormOthersNs(const std::vector<Tuple>& samples) {
  const int kRounds = 20000;
  const int64_t t0 = NowNs();
  uint64_t sink = 0;
  for (int r = 0; r < kRounds; ++r) {
    const Tuple& t = samples[r % samples.size()];
    // Duplicated per-tuple header (temporary object churn).
    auto header = std::make_unique<std::array<int64_t, 6>>();
    (*header)[0] = r;
    sink += static_cast<uint64_t>((*header)[0]);
    // Condition-check walk (exception scaffolding / ACK bookkeeping).
    uint64_t h = 1469598103934665603ULL;
    for (const auto& f : t.fields) {
      h = (h ^ static_cast<uint64_t>(f.index())) * 1099511628211ULL;
      h = (h ^ FieldSizeBytes(f)) * 1099511628211ULL;
    }
    sink += h & 1;
    // Wire codec.
    std::vector<uint8_t> bytes;
    SerializeTuple(t, &bytes);
    size_t off = 0;
    auto decoded = DeserializeTuple(bytes, &off);
    sink += decoded.ok() ? decoded->fields.size() : 0;
  }
  const double per_tuple =
      static_cast<double>(NowNs() - t0) / static_cast<double>(kRounds);
  return sink > 0 ? per_tuple : per_tuple;  // keep `sink` live
}

}  // namespace

int main() {
  bench::Banner("Figure 8",
                "per-tuple time breakdown (Execute/Others/RMA), WC");
  const hw::MachineSpec machine = hw::MachineSpec::ServerA();

  auto app = apps::MakeApp(apps::AppId::kWordCount);
  if (!app.ok()) return 1;
  engine::ProfilerConfig pcfg;
  pcfg.samples = 8000;
  pcfg.reference_ghz = 1.0;  // report measured ns directly
  auto prof = engine::ProfileTopology(app->topology(), pcfg);
  if (!prof.ok()) {
    std::fprintf(stderr, "%s\n", prof.status().ToString().c_str());
    return 1;
  }

  // Representative input tuples per operator (for the Others/RMA
  // paths): sentence for parser/splitter, word for counter.
  Tuple sentence;
  sentence.fields.emplace_back(
      std::string("alpha bravo charlie delta echo fox golf hotel in ja"));
  Tuple word;
  word.fields.emplace_back(std::string("alpha"));
  Tuple count_pair = word;
  count_pair.fields.emplace_back(int64_t{42});

  struct OpRow {
    const char* name;
    Tuple input;
  };
  const OpRow kOps[] = {
      {"parser", sentence}, {"splitter", sentence}, {"counter", word}};

  const std::vector<int> widths = {10, 14, 10, 10, 10, 10};
  bench::PrintRule(widths);
  bench::PrintRow({"operator", "system", "execute", "others", "rma",
                   "total(ns)"},
                  widths);
  bench::PrintRule(widths);

  for (const auto& op : kOps) {
    const double execute = prof->Get(op.name)->te_cycles;  // ns (1 GHz ref)
    const std::vector<Tuple> samples = {op.input};
    const double brisk_others = BriskOthersNs(samples, /*batch=*/64);
    const double storm_others = StormOthersNs(samples);
    const double rma = machine.FetchCostNs(
        0, 7, static_cast<double>(op.input.SizeBytes()));

    auto row = [&](const char* system, double ex, double others,
                   double rma_ns) {
      auto f = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return std::string(buf);
      };
      bench::PrintRow({op.name, system, f(ex), f(others), f(rma_ns),
                       f(ex + others + rma_ns)},
                      widths);
    };
    row("Storm(loc)", execute, storm_others, 0.0);
    row("Brisk(loc)", execute, brisk_others, 0.0);
    row("Brisk(rem)", execute, brisk_others, rma);
  }
  bench::PrintRule(widths);
  std::printf(
      "Notes: Execute is the measured operator function time (identical "
      "across systems\n  here — the paper's additional Storm Execute "
      "inflation comes from JVM instruction-\n  cache misses we cannot "
      "reproduce in native code; its serialization/header/check\n  "
      "overhead lands in Others). Paper (Fig. 8): Brisk cuts Others to "
      "~10%% of Storm's;\n  remote placement adds RMA up to several x "
      "the local round-trip, largest for\n  the cheap Parser "
      "(T_e << T_f).\n");
  return 0;
}
