// Quickstart: declare a dataflow with the brisk::dsl fluent API and
// hand it to brisk::Job, which profiles every operator, optimizes the
// execution plan with RLAS, deploys it on the engine under NUMA
// emulation, and reports one JobReport.
//
//   $ ./examples/quickstart
//
// The application is a small sensor pipeline: a source of readings, a
// filter, a per-sensor running maximum, and a sink. Roughly 20 lines
// of pipeline — the Storm-compatible layer the DSL lowers onto is
// still available for operators that need it (see
// examples/word_count_pipeline.cpp).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "api/dsl.h"
#include "api/job.h"
#include "apps/common_ops.h"  // apps::NowNs for origin timestamps

using namespace brisk;

int main() {
  auto telemetry = std::make_shared<apps::SinkTelemetry>();

  dsl::Pipeline pipeline("quickstart");
  pipeline
      .Source("readings",
              [](const api::OperatorContext&) {
                // One generator per replica; mutable captures are
                // replica-local state.
                return [seq = uint64_t{0}](size_t max_tuples,
                                           dsl::Collector& out) mutable {
                  const int64_t now = apps::NowNs();
                  for (size_t i = 0; i < max_tuples; ++i, ++seq) {
                    Tuple t;
                    t.fields = {Field(static_cast<int64_t>(seq % 16)),
                                Field(15.0 + (seq % 100) * 0.3)};
                    t.origin_ts_ns = now;
                    out.Emit(std::move(t));
                  }
                  return max_tuples;
                };
              })
      .Filter("filter",
              [](const Tuple& t) {
                const double celsius = t.GetDouble(1);
                return celsius > -40.0 && celsius < 60.0;
              })
      .KeyBy(0)  // partition per-sensor state by sensor id
      .Aggregate<double>("max", -1e300,
                         [](double& running_max, const Tuple& in,
                            api::RowEmitter& out) {
                           running_max =
                               std::max(running_max, in.GetDouble(1));
                           out.Emit(Tuple{in.fields[0], Field(running_max)});
                         })
      .Sink("sink", [telemetry](const Tuple& in) {
        telemetry->RecordTuple(in.origin_ts_ns, apps::NowNs());
      });

  // One call: profile → RLAS optimize → deploy with NUMA emulation →
  // run for a second → report.
  engine::ProfilerConfig pcfg;
  pcfg.samples = 5000;  // a quick calibration pass for the demo
  pcfg.warmup_samples = 500;
  engine::EngineConfig ecfg = engine::EngineConfig::Brisk();
  ecfg.numa_emulation = true;

  auto report = Job::Of(std::move(pipeline))
                    .WithProfiler(pcfg)
                    .WithConfig(ecfg)
                    .WithTelemetry(telemetry)
                    .Run(1.0);
  if (!report.ok()) {
    std::fprintf(stderr, "job: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->topology->ToString().c_str());
  std::printf("%s", report->ToString().c_str());
  return report->sink_tuples > 0 ? 0 : 1;
}
