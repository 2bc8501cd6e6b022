// Integration tests for RLAS: B&B placement (Algorithm 2) and iterative
// scaling (Algorithm 1), plus the baseline planners.
#include "optimizer/rlas.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "apps/apps.h"
#include "optimizer/baselines.h"

namespace brisk::opt {
namespace {

using apps::AppId;
using hw::MachineSpec;
using model::ExecutionPlan;
using model::PerfModel;

TEST(PlacementBbTest, CollocatesChainWhenItFits) {
  // Two light operators trivially fit one socket; optimal placement
  // collocates them (no RMA).
  MachineSpec m = MachineSpec::Symmetric(4, 8, 1.0, 50, 500, 50, 10);
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = ExecutionPlan::CreateDefault(app->topology_ptr.get());
  ASSERT_TRUE(plan.ok());

  PerfModel model(&m, &app->profiles);
  PlacementOptions opts;
  opts.compress_ratio = 1;
  auto result = OptimizePlacement(model, *plan, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->plan.FullyPlaced());
  EXPECT_TRUE(result->model.feasible());
  // All five instances fit one socket: no cross-socket traffic at all.
  double cross = 0.0;
  for (const double t : result->model.link_traffic) cross += t;
  EXPECT_EQ(cross, 0.0);
}

TEST(PlacementBbTest, SplitsWhenCoreConstraintForcesIt) {
  // Two cores per socket but five operators: placement must span
  // sockets yet stay feasible.
  MachineSpec m = MachineSpec::Symmetric(4, 2, 1.0, 50, 500, 50, 10);
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = ExecutionPlan::CreateDefault(app->topology_ptr.get());
  ASSERT_TRUE(plan.ok());

  PerfModel model(&m, &app->profiles);
  PlacementOptions opts;
  opts.compress_ratio = 1;
  auto result = OptimizePlacement(model, *plan, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->model.feasible());
  for (int s = 0; s < m.num_sockets(); ++s) {
    EXPECT_LE(result->plan.InstancesOnSocket(s), 2);
  }
}

TEST(PlacementBbTest, CompressesOnlyPastTheExactTreeBound) {
  // WC at replication 1 is five instances; on two sockets the exact
  // search tree has at most 1 + 2 + 4 + 8 + 16 + 32 = 63 nodes.
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 500, 50, 10);
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = ExecutionPlan::CreateDefault(app->topology_ptr.get());
  ASSERT_TRUE(plan.ok());
  PerfModel model(&m, &app->profiles);
  PlacementOptions opts;
  opts.compress_ratio = 3;
  opts.max_nodes = 63;
  auto fits = OptimizePlacement(model, *plan, opts);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_EQ(fits->compress_ratio, 1);
  opts.max_nodes = 62;
  auto past = OptimizePlacement(model, *plan, opts);
  ASSERT_TRUE(past.ok()) << past.status();
  EXPECT_EQ(past->compress_ratio, 3);
}

TEST(PlacementBbTest, InfeasibleWhenMoreInstancesThanCores) {
  MachineSpec m = MachineSpec::Symmetric(1, 2, 1.0, 50, 500, 50, 10);
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = ExecutionPlan::CreateDefault(app->topology_ptr.get());  // 5 instances
  ASSERT_TRUE(plan.ok());
  PerfModel model(&m, &app->profiles);
  auto result = OptimizePlacement(model, *plan, PlacementOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(PlacementBbTest, BeatsOrMatchesBaselinesOnWordCount) {
  MachineSpec m = MachineSpec::ServerA();
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  // Fixed replication so only placement differs (the Fig. 13 setup).
  auto plan = ExecutionPlan::Create(app->topology_ptr.get(), {2, 2, 6, 8, 2});
  ASSERT_TRUE(plan.ok());

  PerfModel model(&m, &app->profiles);
  PlacementOptions opts;
  opts.compress_ratio = 2;
  auto rlas = OptimizePlacement(model, *plan, opts);
  ASSERT_TRUE(rlas.ok()) << rlas.status();

  auto eval = [&](const ExecutionPlan& p) {
    auto r = model.Evaluate(p, opts.input_rate_tps);
    EXPECT_TRUE(r.ok());
    return r->throughput;
  };

  auto rr = PlaceRoundRobin(m, *plan);
  ASSERT_TRUE(rr.ok());
  auto os = PlaceOsDefault(m, *plan);
  ASSERT_TRUE(os.ok());
  auto ff = PlaceFirstFit(model, *plan, opts.input_rate_tps);
  ASSERT_TRUE(ff.ok());

  const double rlas_tput = rlas->model.throughput;
  EXPECT_GE(rlas_tput, eval(*rr) - 1e-6);
  EXPECT_GE(rlas_tput, eval(*os) - 1e-6);
  EXPECT_GE(rlas_tput, eval(*ff) - 1e-6);
}

TEST(RlasTest, ScalingGrowsBottleneckOperators) {
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 300, 50, 10);
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());

  RlasOptions options;
  options.placement.compress_ratio = 1;
  RlasOptimizer optimizer(&m, &app->profiles, options);
  auto result = optimizer.Optimize(app->topology());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->scaling_iterations, 2);
  // The splitter (heaviest per sentence) must end up replicated.
  auto splitter = app->topology().OpId("splitter");
  ASSERT_TRUE(splitter.ok());
  EXPECT_GT(result->plan.replication(*splitter), 1);
  // Total replicas never exceed the core budget.
  EXPECT_LE(result->plan.num_instances(), m.total_cores());
  EXPECT_TRUE(result->model.feasible());
}

TEST(RlasTest, ThroughputImprovesWithMoreSockets) {
  auto app = apps::MakeApp(AppId::kFraudDetection);
  ASSERT_TRUE(app.ok());
  MachineSpec full = MachineSpec::ServerB();

  double prev = 0.0;
  for (const int sockets : {1, 2, 4}) {
    auto m = full.Truncated(sockets);
    ASSERT_TRUE(m.ok());
    RlasOptions options;
    options.placement.compress_ratio = 4;
    RlasOptimizer optimizer(&*m, &app->profiles, options);
    auto result = optimizer.Optimize(app->topology());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GE(result->model.throughput, prev * 0.999);
    prev = result->model.throughput;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(RlasTest, FixedModeAblationsOrderAsInPaper) {
  // Fig. 12: optimizing under fix(U) (ignore RMA) or fix(L) (assume
  // worst-case RMA) must not beat RLAS when all three plans are
  // re-evaluated under the true relative-location model.
  MachineSpec m = MachineSpec::ServerA();
  auto app = apps::MakeApp(AppId::kSpikeDetection);
  ASSERT_TRUE(app.ok());

  RlasOptions options;
  options.placement.compress_ratio = 4;
  options.max_total_replicas = 48;

  RlasOptimizer rlas(&m, &app->profiles, options);
  auto r = rlas.Optimize(app->topology());
  ASSERT_TRUE(r.ok()) << r.status();

  auto fix_u = OptimizeRlasFixed(m, app->profiles, app->topology(),
                                 model::FetchCostMode::kAlwaysLocal, options);
  ASSERT_TRUE(fix_u.ok()) << fix_u.status();
  auto fix_l = OptimizeRlasFixed(m, app->profiles, app->topology(),
                                 model::FetchCostMode::kAlwaysRemote,
                                 options);
  ASSERT_TRUE(fix_l.ok()) << fix_l.status();

  PerfModel true_model(&m, &app->profiles);
  auto true_eval = [&](const ExecutionPlan& p) {
    auto e = true_model.Evaluate(p, 1e12);
    EXPECT_TRUE(e.ok());
    return e->throughput;
  };
  const double v_rlas = true_eval(r->plan);
  EXPECT_GE(v_rlas, true_eval(fix_l->plan) - 1e-6);
  // fix(U) may luck into a good plan on symmetric cases but must never
  // exceed RLAS by more than noise.
  EXPECT_GE(v_rlas * 1.0001, true_eval(fix_u->plan));
}

TEST(BaselinesTest, RandomPlanRespectsBudgetAndPlacesEverything) {
  MachineSpec m = MachineSpec::ServerB();
  auto app = apps::MakeApp(AppId::kLinearRoad);
  ASSERT_TRUE(app.ok());
  Rng rng(7);
  auto plan = RandomPlan(app->topology(), m, &rng, 40);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->FullyPlaced());
  EXPECT_EQ(plan->num_instances(), 40);
  for (int s = 0; s < m.num_sockets(); ++s) {
    EXPECT_LE(plan->InstancesOnSocket(s), m.cores_per_socket());
  }
}

TEST(BaselinesTest, RoundRobinSpreadsInstances) {
  MachineSpec m = MachineSpec::Symmetric(4, 8, 1.0, 50, 300, 50, 10);
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = model::ExecutionPlan::Create(app->topology_ptr.get(), {1, 1, 1, 1, 1});
  ASSERT_TRUE(plan.ok());
  auto rr = PlaceRoundRobin(m, *plan);
  ASSERT_TRUE(rr.ok());
  // 5 instances over 4 sockets: sockets 0..3 get one, socket 0 a second.
  EXPECT_EQ(rr->InstancesOnSocket(0), 2);
  EXPECT_EQ(rr->InstancesOnSocket(1), 1);
  EXPECT_EQ(rr->InstancesOnSocket(3), 1);
}

// Job's default CI machine (2 sockets x 4 cores): every plan RLAS can
// build fits the exact search's node budget, so the default search
// places replica by replica and matches an explicit ratio-1 search.
TEST(RlasTest, SmallMachineDefaultPlanMatchesExactSearch) {
  const MachineSpec m = MachineSpec::Symmetric(2, 4, 2.0, 100, 300, 40, 12);
  for (const AppId id : {AppId::kWordCount, AppId::kSpikeDetection,
                         AppId::kFraudDetection}) {
    auto app = apps::MakeApp(id);
    ASSERT_TRUE(app.ok());
    auto by_default =
        RlasOptimizer(&m, &app->profiles).Optimize(app->topology());
    ASSERT_TRUE(by_default.ok()) << by_default.status();
    RlasOptions exact;
    exact.placement.compress_ratio = 1;
    auto by_exact =
        RlasOptimizer(&m, &app->profiles, exact).Optimize(app->topology());
    ASSERT_TRUE(by_exact.ok()) << by_exact.status();
    EXPECT_EQ(by_default->compress_ratio, 1) << app->name;
    EXPECT_GE(by_default->model.throughput,
              by_exact->model.throughput * (1 - 1e-9))
        << app->name;
    if (id != AppId::kSpikeDetection) continue;
    // One 4-replica unit would fill a socket and push every tuple across
    // sockets twice; per-replica placement splits moving_avg instead.
    auto moving_avg = app->topology().OpId("moving_avg");
    ASSERT_TRUE(moving_avg.ok());
    const auto& plan = by_default->plan;
    bool on_socket[2] = {false, false};
    for (int r = 0; r < plan.replication(*moving_avg); ++r) {
      on_socket[plan.SocketOf(plan.InstanceId(*moving_avg, r))] = true;
    }
    EXPECT_TRUE(on_socket[0] && on_socket[1]) << plan.ToString();
  }
}

// One tray of Server A (4 sockets x 18 cores): WC's and LR's plans are
// far past the exact search's budget, so they still compress at the
// default ratio and keep their plans.
TEST(RlasTest, TrayPlansStillCompress) {
  const MachineSpec m =
      MachineSpec::Symmetric(4, 18, 1.2, 50, 307.7, 54.3, 13.2);
  const std::pair<AppId, const char*> golden[] = {
      {AppId::kWordCount,
       "ExecutionPlan (64 instances)\n"
       "  spout x2 -> [S0,S0]\n"
       "  parser x2 -> [S0,S0]\n"
       "  splitter x8 -> [S0,S0,S0,S0,S0,S0,S0,S0]\n"
       "  counter x35 -> [S0,S0,S0,S0,S0,S1,S1,S1,S1,S1,S1,S1,S1,S1,S1,S1,"
       "S1,S1,S1,S1,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2]\n"
       "  sink x17 -> [S3,S3,S3,S3,S3,S3,S3,S3,S3,S3,S3,S3,S3,S3,S3,S1,S1]"
       "\n"},
      {AppId::kLinearRoad,
       "ExecutionPlan (70 instances)\n"
       "  spout x2 -> [S0,S0]\n"
       "  parser x3 -> [S0,S0,S0]\n"
       "  dispatcher x4 -> [S0,S0,S0,S0]\n"
       "  avg_speed x7 -> [S0,S0,S0,S0,S0,S0,S0]\n"
       "  las_avg_speed x5 -> [S3,S3,S3,S3,S3]\n"
       "  accident_detect x7 -> [S1,S1,S1,S1,S1,S0,S0]\n"
       "  count_vehicle x7 -> [S1,S1,S1,S1,S1,S1,S1]\n"
       "  accident_notify x5 -> [S1,S1,S1,S1,S1]\n"
       "  toll_notify x23 -> [S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,S2,"
       "S3,S3,S3,S3,S3,S3,S3,S3]\n"
       "  daily_expense x1 -> [S1]\n"
       "  account_balance x1 -> [S2]\n"
       "  sink x5 -> [S3,S3,S3,S3,S3]\n"},
  };
  for (const auto& [id, plan] : golden) {
    auto app = apps::MakeApp(id);
    ASSERT_TRUE(app.ok());
    auto result = RlasOptimizer(&m, &app->profiles).Optimize(app->topology());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->compress_ratio, 5) << app->name;
    EXPECT_EQ(result->plan.ToString(), plan) << app->name;
  }
}

// --- Planning for a worker budget ---------------------------------------

struct BudgetCase {
  MachineSpec machine;
  int workers_per_socket;
};

std::vector<BudgetCase> BudgetCases() {
  return {
      {MachineSpec::Symmetric(4, 18, 1.2, 50, 307.7, 54.3, 13.2), 1},
      {MachineSpec::Symmetric(2, 4, 2.0, 100, 300, 40, 12), 2},
  };
}

constexpr AppId kAllApps[] = {AppId::kWordCount, AppId::kSpikeDetection,
                              AppId::kFraudDetection, AppId::kLinearRoad};

// Under a budget every replica chain is one vertex: equal replication
// and one socket per replica index, so the engine wires it one-to-one.
TEST(RlasBudgetTest, EveryChainIsAligned) {
  for (const BudgetCase& c : BudgetCases()) {
    for (const AppId id : kAllApps) {
      auto app = apps::MakeApp(id);
      ASSERT_TRUE(app.ok());
      RlasOptions options;
      options.workers_per_socket = c.workers_per_socket;
      auto result = RlasOptimizer(&c.machine, &app->profiles, options)
                        .Optimize(app->topology());
      ASSERT_TRUE(result.ok()) << result.status();
      int chains = 0;
      for (const auto& e : app->topology().edges()) {
        if (!app->topology().IsChainEdge(e)) continue;
        ++chains;
        EXPECT_TRUE(model::WiredOneToOne(result->plan, e))
            << app->name << " on " << c.machine.name() << ": "
            << app->topology().op(e.producer_op).name << " -> "
            << app->topology().op(e.consumer_op).name << "\n"
            << result->plan.ToString();
      }
      EXPECT_GT(chains, 0) << app->name;
      EXPECT_TRUE(result->model.feasible()) << app->name;
    }
  }
}

// The budgeted plan is at least as good, under the budgeted model, as
// the hand-aligned plans: every operator at R, replica k on socket
// k mod S.
TEST(RlasBudgetTest, MatchesOrBeatsAlignedPlans) {
  for (const BudgetCase& c : BudgetCases()) {
    for (const AppId id : kAllApps) {
      auto app = apps::MakeApp(id);
      ASSERT_TRUE(app.ok());
      const auto& topo = app->topology();
      RlasOptions options;
      options.workers_per_socket = c.workers_per_socket;
      const RlasOptimizer optimizer(&c.machine, &app->profiles, options);
      auto result = optimizer.Optimize(topo);
      ASSERT_TRUE(result.ok()) << result.status();
      for (const int repl : {1, 2, 4}) {
        auto aligned = ExecutionPlan::Create(
            &topo, std::vector<int>(topo.num_operators(), repl));
        ASSERT_TRUE(aligned.ok());
        for (int i = 0; i < aligned->num_instances(); ++i) {
          aligned->SetSocket(
              i, aligned->instance(i).replica % c.machine.num_sockets());
        }
        auto eval = optimizer.perf_model().Evaluate(
            *aligned, options.placement.input_rate_tps);
        ASSERT_TRUE(eval.ok());
        EXPECT_GE(result->model.throughput, eval->throughput * (1 - 1e-9))
            << app->name << " on " << c.machine.name() << " vs R=" << repl
            << "\n"
            << result->plan.ToString();
      }
    }
  }
}

// Stopping once a step no longer pays keeps the tray searches far
// smaller than the dedicated-core search.
TEST(RlasBudgetTest, ExploresFewerNodesThanDedicatedCores) {
  const BudgetCase tray = BudgetCases()[0];
  for (const AppId id : kAllApps) {
    auto app = apps::MakeApp(id);
    ASSERT_TRUE(app.ok());
    auto dedicated = RlasOptimizer(&tray.machine, &app->profiles)
                         .Optimize(app->topology());
    ASSERT_TRUE(dedicated.ok()) << dedicated.status();
    RlasOptions options;
    options.workers_per_socket = tray.workers_per_socket;
    auto budgeted = RlasOptimizer(&tray.machine, &app->profiles, options)
                        .Optimize(app->topology());
    ASSERT_TRUE(budgeted.ok()) << budgeted.status();
    EXPECT_LT(budgeted->nodes_explored, dedicated->nodes_explored)
        << app->name;
    EXPECT_LT(budgeted->plan.num_instances(),
              dedicated->plan.num_instances())
        << app->name;
  }
}

TEST(CompressedGraphTest, TiedChainsShareStripedUnits) {
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  // spout/parser/splitter and counter/sink are the two chains.
  auto plan =
      model::ExecutionPlan::Create(app->topology_ptr.get(), {4, 4, 4, 8, 8});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(CompressedGraph::ExactUnitCount(*plan, false), 28);
  EXPECT_EQ(CompressedGraph::ExactUnitCount(*plan, true), 12);
  const auto g = CompressedGraph::Build(*plan, 5, true, 4);
  ASSERT_EQ(g.num_units(), 4 + 4);  // at least one unit per socket each
  // Unit 0 holds replica 0 of spout, parser and splitter.
  EXPECT_EQ(g.units()[0].size(), 3);
  // The counter chain's first unit stripes replicas 0 and 4.
  const auto& u = g.units()[4];
  ASSERT_EQ(u.size(), 4);
  for (const int inst : u.instance_ids) {
    EXPECT_EQ(plan->instance(inst).replica % 4, 0);
  }
  // Only the splitter -> counter edge needs decisions: 4 x 4 pairs.
  EXPECT_EQ(g.decisions().size(), 16u);
}

TEST(CompressedGraphTest, RatioControlsUnitCount) {
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = model::ExecutionPlan::Create(app->topology_ptr.get(), {2, 2, 10, 10, 1});
  ASSERT_TRUE(plan.ok());
  const auto g1 = CompressedGraph::Build(*plan, 1);
  EXPECT_EQ(g1.num_units(), 25);
  const auto g5 = CompressedGraph::Build(*plan, 5);
  EXPECT_EQ(g5.num_units(), 1 + 1 + 2 + 2 + 1);  // ceil(repl / 5) each
  const auto g100 = CompressedGraph::Build(*plan, 100);
  EXPECT_EQ(g100.num_units(), 5);
  // Decisions only pair directly connected units.
  for (const auto& d : g5.decisions()) {
    EXPECT_NE(g5.units()[d.producer_unit].op, g5.units()[d.consumer_unit].op);
  }
}

}  // namespace
}  // namespace brisk::opt
