// bench_e2e --self-test: checks the benchmark's own machinery (the
// ctest registered by this project).
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/common_ops.h"
#include "compare.h"
#include "harness.h"
#include "report.h"

namespace brisk::e2e {

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Emits consecutive integers, stamping a sentinel origin time.
class CountingSpout final : public api::Spout {
 public:
  static constexpr int64_t kOrigin = 777;
  size_t NextBatch(size_t max_tuples, api::OutputCollector* out) override {
    for (size_t i = 0; i < max_tuples; ++i) {
      Tuple t;
      t.fields.emplace_back(static_cast<int64_t>(next_++));
      t.origin_ts_ns = kOrigin;
      out->Emit(std::move(t));
    }
    return max_tuples;
  }

 private:
  uint64_t next_ = 0;
};

class Capture final : public api::OutputCollector {
 public:
  void Emit(Tuple t) override { tuples.push_back(std::move(t)); }
  void EmitTo(uint16_t, Tuple t) override { tuples.push_back(std::move(t)); }
  std::vector<Tuple> tuples;
};

void TestRebuildIsIdentical() {
  for (const Workload& w : Workloads()) {
    // Building a topology does not open the file source's corpus.
    auto app = BuildApp(w, 1, "corpus-not-opened.txt");
    if (!app.ok()) {
      Check(false, w.name + ": build app: " + app.status().ToString());
      continue;
    }
    auto rebuilt = Rebuild(
        *app->topology,
        std::make_shared<SourceControl>(1000.0, 0, apps::NowNs),
        std::make_shared<SinkControl>(0, true, w.word_sequences, false));
    if (!rebuilt.ok()) {
      Check(false, w.name + ": rebuild: " + rebuilt.status().ToString());
      continue;
    }
    const Status same = SameStructure(*app->topology, *rebuilt);
    Check(same.ok(), w.name + ": rebuilt topology is structurally identical" +
                         (same.ok() ? "" : " — " + same.ToString()));
  }
  auto wc = BuildApp(*FindWorkload("wc_tray"), 1, "");
  auto sd = BuildApp(*FindWorkload("sd_small"), 1, "");
  Check(wc.ok() && sd.ok() &&
            !SameStructure(*wc->topology, *sd->topology).ok(),
        "SameStructure tells two different topologies apart");
}

void TestPacingOnFakeClock() {
  int64_t now = 5'000'000'000;
  // 4000 events/s over two replicas: 2000/s each, one every 0.5 ms.
  auto control =
      std::make_shared<SourceControl>(4000.0, 0, [&now] { return now; });
  PacedSpout a(std::make_unique<CountingSpout>(), control);
  PacedSpout b(std::make_unique<CountingSpout>(), control);
  api::OperatorContext ctx;
  ctx.num_replicas = 2;
  Check(a.Prepare(ctx).ok() && b.Prepare(ctx).ok(), "paced spouts prepare");
  Check(Near(a.schedule().rate_tps, 2000.0), "rate splits across replicas");

  Capture out;
  Check(a.NextBatch(64, &out) == 1, "only tuple 0 is due at t0");
  Check(out.tuples.size() == 1 && out.tuples[0].origin_ts_ns == now,
        "tuple 0 is stamped with t0");
  Check(a.NextBatch(64, &out) == 0 && !a.Exhausted(),
        "nothing due: returns 0 and is not exhausted");

  control->recording.store(true);
  const int64_t t0 = now;
  now += 10'000'000;  // +10 ms: tuples 1..20 are due
  Check(a.NextBatch(64, &out) == 20, "20 tuples due after 10 ms");
  Check(Near(control->MaxLagMs(), 9.5),
        "lag = now - due time of the first pending tuple (9.5 ms)");
  now += 100'000'000;  // +100 ms: 200 more due, one batch caps the emission
  Check(a.NextBatch(64, &out) == 64, "a batch caps what a call emits");
  bool stamps = out.tuples.size() == 85;
  for (size_t k = 0; k < out.tuples.size() && stamps; ++k) {
    stamps = out.tuples[k].origin_ts_ns ==
                 t0 + static_cast<int64_t>(k) * 500'000 &&
             out.tuples[k].fields[0].AsInt() == static_cast<int64_t>(k);
  }
  Check(stamps, "tuple k is stamped t0 + k / rate, in order");

  Capture other;
  Check(b.NextBatch(64, &other) == 1 &&
            other.tuples[0].origin_ts_ns == now,
        "each replica's schedule starts at its first poll");
  Check(control->Produced() == 86, "produced counts every replica");

  auto bounded = std::make_shared<SourceControl>(0.0, 100, apps::NowNs);
  PacedSpout c(std::make_unique<CountingSpout>(), bounded);
  Check(c.Prepare(ctx).ok(), "bounded spout prepares");
  Capture cut;
  const size_t first = c.NextBatch(64, &cut);
  const size_t second = c.NextBatch(64, &cut);
  const size_t third = c.NextBatch(64, &cut);
  Check(first == 64 && second == 36 && third == 0 && c.Exhausted(),
        "a bounded source stops after its limit and reports exhaustion");
  Check(cut.tuples.back().origin_ts_ns == CountingSpout::kOrigin,
        "an unpaced source keeps its own origin stamps");
}

void TestQuartiles() {
  // Expected values are Python's statistics.quantiles(n=4) / median.
  Quartiles q = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Check(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25),
        "quartiles of 1..10");
  q = QuartilesOf({3, 1, 4, 1, 5});
  Check(Near(q.q1, 1.0) && Near(q.median, 3.0) && Near(q.q3, 4.5),
        "quartiles of an odd unsorted sample");
  q = QuartilesOf({2.5, 7.25});
  Check(Near(q.q1, 1.3125) && Near(q.median, 4.875) && Near(q.q3, 8.4375),
        "quartiles of two values extrapolate like Python");
  q = QuartilesOf({1, 2, 3});
  Check(Near(q.q1, 1.0) && Near(q.q3, 3.0) && Near(q.SpreadShare(), 1.0),
        "spread share is IQR over the median");
}

void TestVerdicts() {
  const MetricSpec tps{"throughput_tps", "tuples/s", true, 0.10};
  const MetricSpec lat{"latency_p99_ms", "ms", false, 0.10};
  const std::vector<double> base = {100, 101, 99, 100, 102};
  Check(Compare(base, base, tps).verdict == Verdict::kWithin,
        "identical sets are within bound");
  Check(Compare(base, {95, 96, 94, 95, 97}, tps).verdict == Verdict::kWithin,
        "a 5% drop is within a 10% bound");
  Check(Compare(base, {80, 81, 79, 80, 82}, tps).verdict == Verdict::kWorse,
        "a 20% drop is worse");
  Check(Compare(base, {120, 121, 119, 120, 122}, tps).verdict ==
            Verdict::kBetter,
        "a 20% rise winning every pair is better");
  Check(Compare(base, {103, 99, 104, 98, 105}, tps).verdict ==
            Verdict::kWithin,
        "a rise that loses pairs is not claimed");
  const std::vector<double> noisy = {50, 150, 100, 70, 130};
  Check(Compare(noisy, {100, 90, 110, 95, 105}, tps).verdict ==
            Verdict::kUnresolved,
        "base spread wider than the bound is unresolved");
  Check(Compare(noisy, {200, 210, 205, 201, 220}, tps).verdict ==
            Verdict::kBetter,
        "...unless every candidate run beats every base run");
  const std::vector<double> lbase = {10, 10.1, 9.9, 10, 10.2};
  Check(Compare(lbase, {10.5, 10.6, 10.4, 10.5, 10.7}, lat).verdict ==
            Verdict::kWithin,
        "lower-is-better: +5% is within bound");
  Check(Compare(lbase, {12, 12.1, 11.9, 12, 12.2}, lat).verdict ==
            Verdict::kWorse,
        "lower-is-better: +20% is worse");
  const Comparison c = Compare(lbase, {8, 8.1, 7.9, 8, 8.2}, lat);
  Check(c.verdict == Verdict::kBetter && c.wins == 5 && c.pairs == 5 &&
            Near(c.worsening, -0.2),
        "lower-is-better: -20% is better, 5 of 5 pairs won");
}

void TestDroppedTupleFails() {
  RunOptions options;
  options.events_per_replica = 20000;
  const Workload& w = *FindWorkload("sd_small");
  auto clean = RunCorrectnessOnly(w, options);
  Check(clean.ok() && clean->correct() && clean->error_rate() == 0.0 &&
            clean->exit_code() == 0,
        "a clean bounded pass matches the reference");
  options.drop_one_sink_tuple = true;
  auto broken = RunCorrectnessOnly(w, options);
  Check(broken.ok() && broken->error_rate() > 0.0 &&
            broken->exit_code() != 0,
        "a sink that drops one tuple makes error_rate > 0 and exits nonzero");
}

}  // namespace

int RunSelfTest() {
  TestRebuildIsIdentical();
  TestPacingOnFakeClock();
  TestQuartiles();
  TestVerdicts();
  TestDroppedTupleFails();
  std::cout << (g_failures == 0 ? "self-test passed"
                                : std::to_string(g_failures) + " failed")
            << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace brisk::e2e
