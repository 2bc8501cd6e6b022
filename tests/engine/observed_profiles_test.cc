// Tests for runtime-statistics-derived profiles: the §3.1 profiling run
// (ProfileTopology) and the §5.3 live observation (ObserveProfiles).
#include "engine/observed_profiles.h"

#include <gtest/gtest.h>

#include "api/dsl.h"
#include "apps/apps.h"
#include "optimizer/dynamic.h"

namespace brisk::engine {
namespace {

using model::ExecutionPlan;

struct RunOutcome {
  apps::AppBundle app;
  ExecutionPlan plan;
  RunStats stats;
};

StatusOr<RunOutcome> RunApp(apps::AppId id, double seconds) {
  RunOutcome out;
  BRISK_ASSIGN_OR_RETURN(out.app, apps::MakeApp(id));
  BRISK_ASSIGN_OR_RETURN(
      out.plan, ExecutionPlan::CreateDefault(out.app.topology_ptr.get()));
  out.plan.PlaceAllOn(0);
  BRISK_ASSIGN_OR_RETURN(
      std::unique_ptr<BriskRuntime> rt,
      BriskRuntime::Create(out.app.topology_ptr.get(), out.plan,
                           EngineConfig::Brisk()));
  BRISK_ASSIGN_OR_RETURN(out.stats, rt->RunFor(seconds));
  return out;
}

StatusOr<RunOutcome> RunWordCount(double seconds) {
  return RunApp(apps::AppId::kWordCount, seconds);
}

TEST(ObservedProfilesTest, SelectivityMatchesOperatorSemantics) {
  auto run = RunWordCount(0.25);
  ASSERT_TRUE(run.ok()) << run.status();
  auto observed = ObserveProfiles(run->app.topology(), run->plan,
                                  run->stats, run->app.profiles);
  ASSERT_TRUE(observed.ok()) << observed.status();
  // Splitter: ~10 words per sentence; parser/counter: 1; sink: 0.
  EXPECT_NEAR(observed->Get("splitter")->selectivity[0], 10.0, 0.5);
  EXPECT_NEAR(observed->Get("parser")->selectivity[0], 1.0, 0.05);
  EXPECT_NEAR(observed->Get("counter")->selectivity[0], 1.0, 0.05);
  EXPECT_DOUBLE_EQ(observed->Get("sink")->selectivity[0], 0.0);
}

TEST(ObservedProfilesTest, MeasuredTePositiveAndOrdered) {
  auto run = RunWordCount(0.25);
  ASSERT_TRUE(run.ok());
  auto observed = ObserveProfiles(run->app.topology(), run->plan,
                                  run->stats, run->app.profiles);
  ASSERT_TRUE(observed.ok());
  for (const auto& op : run->app.topology().ops()) {
    EXPECT_GT(observed->Get(op.name)->te_cycles, 0.0) << op.name;
  }
  // The splitter works harder per input tuple than the sink.
  EXPECT_GT(observed->Get("splitter")->te_cycles,
            observed->Get("sink")->te_cycles);
}

TEST(ObservedProfilesTest, LinearRoadStreamMixIsMeasuredNotCopied) {
  // The dispatcher splits its input over three streams (position
  // reports ~0.99, balance and daily queries ~0.005 each). A planned
  // profile with the mix swapped must not leak into the observation:
  // every stream's selectivity and tuple size comes from the counters.
  auto run = RunApp(apps::AppId::kLinearRoad, 0.5);
  ASSERT_TRUE(run.ok()) << run.status();
  model::ProfileSet planned = run->app.profiles;
  model::OperatorProfile wrong = *planned.Get("dispatcher");
  wrong.selectivity = {0.005, 0.99, 0.005};
  wrong.output_bytes = {8.0, 8.0, 8.0};
  planned.Set("dispatcher", wrong);
  auto observed = ObserveProfiles(run->app.topology(), run->plan,
                                  run->stats, planned);
  ASSERT_TRUE(observed.ok()) << observed.status();
  const auto d = observed->Get("dispatcher");
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->selectivity.size(), 3u);
  EXPECT_NEAR(d->selectivity[0], 0.99, 0.01);
  EXPECT_NEAR(d->selectivity[1], 0.005, 0.0025);
  EXPECT_NEAR(d->selectivity[2], 0.005, 0.0025);
  // Position reports carry five fields, balance queries two, daily
  // queries three.
  EXPECT_GT(d->output_bytes[0], d->output_bytes[2]);
  EXPECT_GT(d->output_bytes[2], d->output_bytes[1]);
  EXPECT_GT(d->m_bytes, d->output_bytes[0]);
}

TEST(ObservedProfilesTest, StatsWindowSubtractsEveryCounter) {
  TaskStats base;
  base.tuples_in = 10;
  base.busy_ns = 100;
  base.stream_tuples_out = {RelaxedCounter(4), RelaxedCounter(1)};
  base.stream_bytes_out = {RelaxedCounter(40), RelaxedCounter(9)};
  TaskStats now;
  now.tuples_in = 25;
  now.busy_ns = 160;
  now.stream_tuples_out = {RelaxedCounter(10), RelaxedCounter(3)};
  now.stream_bytes_out = {RelaxedCounter(100), RelaxedCounter(27)};
  RunStats a, b;
  a.duration_s = 1.0;
  b.duration_s = 1.5;
  a.tasks = {base};
  b.tasks = {now};
  a.op_totals = {base};
  b.op_totals = {now};
  a.total_consumed = 10;
  b.total_consumed = 25;
  const RunStats w = StatsWindow(a, b);
  EXPECT_DOUBLE_EQ(w.duration_s, 0.5);
  EXPECT_EQ(w.total_consumed, 15u);
  ASSERT_EQ(w.tasks.size(), 1u);
  EXPECT_EQ(w.tasks[0].tuples_in, 15u);
  EXPECT_EQ(w.tasks[0].busy_ns, 60u);
  ASSERT_EQ(w.tasks[0].stream_tuples_out.size(), 2u);
  EXPECT_EQ(w.tasks[0].stream_tuples_out[0], 6u);
  EXPECT_EQ(w.tasks[0].stream_tuples_out[1], 2u);
  EXPECT_EQ(w.tasks[0].stream_bytes_out[1], 18u);
  EXPECT_EQ(w.op_totals[0].tuples_in, 15u);
}

// A window can hold a batch's tuple count without its busy time (the
// task writes busy_ns first, a snapshot copies tuples_in first). Such
// an operator measured nothing: it keeps its planned entry, or is left
// out without one, instead of reading T_e = 0.
TEST(ObservedProfilesTest, TuplesWithoutBusyTimeKeepThePlannedEntry) {
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = ExecutionPlan::CreateDefault(app->topology_ptr.get());
  ASSERT_TRUE(plan.ok());
  const api::Topology& topo = app->topology();
  auto splitter = topo.OpId("splitter");
  ASSERT_TRUE(splitter.ok());
  RunStats window;
  window.tasks.resize(static_cast<size_t>(plan->num_instances()));
  for (const auto& op : topo.ops()) {
    for (int r = 0; r < plan->replication(op.id); ++r) {
      TaskStats& t = window.tasks[plan->InstanceId(op.id, r)];
      t.tuples_in = 64;
      t.busy_ns = op.id == *splitter ? 0 : 6400;
    }
  }
  auto observed = ObserveProfiles(topo, *plan, window, app->profiles);
  ASSERT_TRUE(observed.ok()) << observed.status();
  auto planned = app->profiles.Get("splitter");
  auto kept = observed->Get("splitter");
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(kept.ok());
  EXPECT_DOUBLE_EQ(kept->te_cycles, planned->te_cycles);
  EXPECT_DOUBLE_EQ(observed->Get("counter")->te_cycles, 100.0);

  auto unplanned = ObserveProfiles(topo, *plan, window, {});
  ASSERT_TRUE(unplanned.ok()) << unplanned.status();
  EXPECT_FALSE(unplanned->Get("splitter").ok());
  EXPECT_TRUE(unplanned->Get("counter").ok());
}

TEST(ObservedProfilesTest, MismatchedStatsRejected) {
  auto run = RunWordCount(0.05);
  ASSERT_TRUE(run.ok());
  RunStats truncated = run->stats;
  truncated.tasks.pop_back();
  EXPECT_FALSE(ObserveProfiles(run->app.topology(), run->plan, truncated,
                               run->app.profiles)
                   .ok());
}

TEST(ObservedProfilesTest, FeedsDriftDetectorEndToEnd) {
  // The full §5.3 loop: run, observe, check — an unchanged workload
  // must not trigger replanning on selectivity grounds (T_e measured
  // on this host differs from the calibrated constants, so drift is
  // compared between two *observations*).
  auto run1 = RunWordCount(0.2);
  auto run2 = RunWordCount(0.2);
  ASSERT_TRUE(run1.ok() && run2.ok());
  auto obs1 = ObserveProfiles(run1->app.topology(), run1->plan,
                              run1->stats, run1->app.profiles);
  auto obs2 = ObserveProfiles(run2->app.topology(), run2->plan,
                              run2->stats, run2->app.profiles);
  ASSERT_TRUE(obs1.ok() && obs2.ok());
  // Same workload twice: selectivities identical, T_e within noise —
  // overall drift far below a sensible threshold... timing noise on a
  // shared CI core can be large, so only selectivity is asserted
  // tightly here.
  EXPECT_NEAR(obs1->Get("splitter")->selectivity[0],
              obs2->Get("splitter")->selectivity[0], 0.2);
}

// ---- The §3.1 profiling run ----------------------------------------

TEST(ProfileTopologyTest, EveryOperatorOfAllFourAppsIsProfiled) {
  for (const auto id : apps::kAllApps) {
    auto app = apps::MakeApp(id);
    ASSERT_TRUE(app.ok());
    ProfilerConfig cfg;
    cfg.samples = 1200;
    cfg.warmup_samples = 100;
    auto profiles = ProfileTopology(app->topology(), cfg);
    ASSERT_TRUE(profiles.ok()) << apps::AppName(id) << ": "
                               << profiles.status();
    EXPECT_EQ(profiles->size(),
              static_cast<size_t>(app->topology().num_operators()))
        << apps::AppName(id);
    for (const auto& op : app->topology().ops()) {
      const auto p = profiles->Get(op.name);
      ASSERT_TRUE(p.ok()) << apps::AppName(id) << " " << op.name;
      EXPECT_GT(p->te_cycles, 0.0) << apps::AppName(id) << " " << op.name;
      EXPECT_EQ(p->selectivity.size(), op.output_streams.size());
    }
  }
}

TEST(ProfileTopologyTest, WordCountSemanticsAndSizes) {
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto profiles = ProfileTopology(app->topology());
  ASSERT_TRUE(profiles.ok()) << profiles.status();
  // Splitter emits ~10 words per sentence (§2.2); parser and counter
  // are selectivity one; the sink emits nothing.
  EXPECT_NEAR(profiles->Get("splitter")->selectivity[0], 10.0, 0.2);
  EXPECT_NEAR(profiles->Get("parser")->selectivity[0], 1.0, 0.01);
  EXPECT_NEAR(profiles->Get("counter")->selectivity[0], 1.0, 0.01);
  EXPECT_DOUBLE_EQ(profiles->Get("sink")->selectivity[0], 0.0);
  // Sentences are much bigger than words (N), and the splitter (substr
  // per word) costs more per input tuple than the sink (T_e).
  EXPECT_GT(profiles->Get("spout")->output_bytes[0],
            profiles->Get("splitter")->output_bytes[0]);
  EXPECT_GT(profiles->Get("splitter")->te_cycles,
            profiles->Get("sink")->te_cycles);
  // M: input + output bytes per tuple; the spout reads no input.
  EXPECT_NEAR(profiles->Get("spout")->m_bytes,
              profiles->Get("spout")->output_bytes[0], 1.0);
  EXPECT_GT(profiles->Get("parser")->m_bytes,
            profiles->Get("parser")->output_bytes[0]);
}

TEST(ProfileTopologyTest, ReportsConsecutiveWindows) {
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  ProfilerConfig cfg;
  cfg.samples = 5000;
  cfg.warmup_samples = 500;
  std::vector<model::ProfileSet> windows;
  auto profiles = ProfileTopology(app->topology(), cfg, &windows);
  ASSERT_TRUE(profiles.ok()) << profiles.status();
  ASSERT_FALSE(windows.empty());
  bool splitter_seen = false;
  for (const auto& w : windows) {
    for (const auto& [name, p] : w.all()) {
      EXPECT_GT(p.te_cycles, 0.0) << name;
      splitter_seen |= name == "splitter";
    }
  }
  EXPECT_TRUE(splitter_seen);
}

TEST(ProfileTopologyTest, RejectsBadConfig) {
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  ProfilerConfig cfg;
  cfg.samples = 0;
  EXPECT_EQ(ProfileTopology(app->topology(), cfg).status().code(),
            StatusCode::kInvalidArgument);
  cfg.samples = 100;
  cfg.reference_ghz = 0.0;
  EXPECT_EQ(ProfileTopology(app->topology(), cfg).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ProfileTopologyTest, StarvedOperatorFailsByName) {
  // The filter drops everything, so the sink never sees a tuple: past
  // the deadline the run fails and names it (and only it).
  dsl::Pipeline p("starved");
  p.Source("numbers",
           [](const api::OperatorContext&) {
             return [](size_t max_tuples, dsl::Collector& out) {
               for (size_t i = 0; i < max_tuples; ++i) {
                 out.Emit(Tuple{Field(static_cast<int64_t>(i))});
               }
               return max_tuples;
             };
           })
      .Filter("drop_all", [](const Tuple&) { return false; })
      .Sink("sink", [](const Tuple&) {});
  auto topo = std::move(p).Build();
  ASSERT_TRUE(topo.ok()) << topo.status();
  ProfilerConfig cfg;
  cfg.samples = 1000;
  cfg.warmup_samples = 100;
  auto profiles = ProfileTopology(*topo, cfg);
  ASSERT_FALSE(profiles.ok());
  EXPECT_EQ(profiles.status().code(), StatusCode::kDeadlineExceeded);
  const std::string msg = profiles.status().ToString();
  EXPECT_NE(msg.find("'sink'"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("drop_all"), std::string::npos) << msg;
}

TEST(BlendProfilesTest, ExponentiallySmoothsTeAndSelectivity) {
  model::ProfileSet into;
  into.Set("x", model::OperatorProfile::Simple(1000, 64, 64, /*sel=*/10.0));
  model::ProfileSet sample;
  sample.Set("x", model::OperatorProfile::Simple(2000, 64, 64, /*sel=*/4.0));
  sample.Set("y", model::OperatorProfile::Simple(500, 32, 32, /*sel=*/1.0));
  BlendProfiles(&into, sample, 0.25);
  EXPECT_DOUBLE_EQ(into.Get("x")->te_cycles, 0.25 * 2000 + 0.75 * 1000);
  EXPECT_DOUBLE_EQ(into.Get("x")->selectivity[0], 0.25 * 4.0 + 0.75 * 10.0);
  // Operators first seen in the sample are adopted as-is.
  ASSERT_TRUE(into.Has("y"));
  EXPECT_DOUBLE_EQ(into.Get("y")->te_cycles, 500);
}

TEST(BlendProfilesTest, AlphaOneReplacesWithSample) {
  model::ProfileSet into;
  into.Set("x", model::OperatorProfile::Simple(1000, 64, 64, 10.0));
  model::ProfileSet sample;
  sample.Set("x", model::OperatorProfile::Simple(300, 64, 64, 3.0));
  BlendProfiles(&into, sample, 1.0);
  EXPECT_DOUBLE_EQ(into.Get("x")->te_cycles, 300);
  EXPECT_DOUBLE_EQ(into.Get("x")->selectivity[0], 3.0);
}

}  // namespace
}  // namespace brisk::engine
