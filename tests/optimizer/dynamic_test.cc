// Tests for dynamic re-optimization (§5.3 extension).
#include "optimizer/dynamic.h"

#include <gtest/gtest.h>

#include "apps/apps.h"

namespace brisk::opt {
namespace {

using apps::AppId;
using hw::MachineSpec;
using model::ExecutionPlan;
using model::OperatorProfile;
using model::ProfileSet;

TEST(ProfileDriftTest, IdenticalProfilesHaveZeroDrift) {
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  EXPECT_DOUBLE_EQ(ProfileDrift(app->profiles, app->profiles), 0.0);
}

TEST(ProfileDriftTest, TeChangeMeasuredRelatively) {
  ProfileSet a, b;
  a.Set("x", OperatorProfile::Simple(1000, 64, 64));
  b.Set("x", OperatorProfile::Simple(1300, 64, 64));
  EXPECT_NEAR(ProfileDrift(a, b), 300.0 / 1300.0, 1e-9);
}

TEST(ProfileDriftTest, SelectivityChangeDetected) {
  ProfileSet a, b;
  a.Set("x", OperatorProfile::Simple(1000, 64, 64, /*sel=*/10.0));
  b.Set("x", OperatorProfile::Simple(1000, 64, 64, /*sel=*/5.0));
  EXPECT_NEAR(ProfileDrift(a, b), 0.5, 1e-9);
}

TEST(ProfileDriftTest, MissingOperatorIsFullDrift) {
  ProfileSet a, b;
  a.Set("x", OperatorProfile::Simple(1000, 64, 64));
  EXPECT_DOUBLE_EQ(ProfileDrift(a, b), 1.0);
  EXPECT_DOUBLE_EQ(ProfileDrift(b, a), 1.0);
}

TEST(DiffPlansTest, IdenticalPlansNoSteps) {
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = ExecutionPlan::CreateDefault(app->topology_ptr.get());
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  auto diff = DiffPlans(*plan, *plan);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->empty());
  EXPECT_EQ(diff->unchanged, plan->num_instances());
}

TEST(DiffPlansTest, DetectsMovesStartsStops) {
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto old_plan =
      ExecutionPlan::Create(app->topology_ptr.get(), {1, 1, 2, 2, 1});
  auto new_plan =
      ExecutionPlan::Create(app->topology_ptr.get(), {1, 1, 3, 1, 1});
  ASSERT_TRUE(old_plan.ok() && new_plan.ok());
  old_plan->PlaceAllOn(0);
  new_plan->PlaceAllOn(0);
  // Move the parser; splitter grows 2->3 (one start); counter shrinks
  // 2->1 (one stop).
  new_plan->SetSocket(new_plan->InstanceId(1, 0), 1);
  auto diff = DiffPlans(*old_plan, *new_plan);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->moves, 1);
  EXPECT_EQ(diff->starts, 1);
  EXPECT_EQ(diff->stops, 1);
}

TEST(DiffPlansTest, RejectsDifferentTopologies) {
  auto a = apps::MakeApp(AppId::kWordCount);
  auto b = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(a.ok() && b.ok());
  auto pa = ExecutionPlan::CreateDefault(a->topology_ptr.get());
  auto pb = ExecutionPlan::CreateDefault(b->topology_ptr.get());
  ASSERT_TRUE(pa.ok() && pb.ok());
  EXPECT_FALSE(DiffPlans(*pa, *pb).ok());
}

class DynamicReoptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = MachineSpec::Symmetric(2, 8, 1.0, 50, 400, 50, 10);
    auto app = apps::MakeApp(AppId::kWordCount);
    ASSERT_TRUE(app.ok());
    app_ = std::move(app).value();
    DynamicOptions options;
    options.rlas.placement.compress_ratio = 2;
    reopt_ = std::make_unique<DynamicReoptimizer>(&machine_, options);

    RlasOptions rlas_options;
    rlas_options.placement.compress_ratio = 2;
    RlasOptimizer optimizer(&machine_, &app_.profiles, rlas_options);
    auto plan = optimizer.Optimize(app_.topology());
    ASSERT_TRUE(plan.ok());
    current_ = plan->plan;
  }

  MachineSpec machine_;
  apps::AppBundle app_;
  std::unique_ptr<DynamicReoptimizer> reopt_;
  ExecutionPlan current_;
};

TEST_F(DynamicReoptTest, NoDriftNoReoptimization) {
  auto decision = reopt_->Check(app_.topology(), current_, app_.profiles,
                                app_.profiles);
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision->reoptimized);
  EXPECT_DOUBLE_EQ(decision->drift, 0.0);
}

TEST_F(DynamicReoptTest, SmallDriftBelowThresholdIgnored) {
  ProfileSet observed = app_.profiles;
  auto p = observed.Get("counter");
  ASSERT_TRUE(p.ok());
  auto q = *p;
  q.te_cycles *= 1.05;  // 5% drift < 15% threshold
  observed.Set("counter", q);
  auto decision =
      reopt_->Check(app_.topology(), current_, app_.profiles, observed);
  ASSERT_TRUE(decision.ok());
  EXPECT_FALSE(decision->reoptimized);
  EXPECT_GT(decision->drift, 0.0);
}

TEST_F(DynamicReoptTest, LargeDriftTriggersReplanWithMigration) {
  // The splitter becomes 4x cheaper (e.g. shorter sentences): the old
  // replication massively over-provisions it.
  ProfileSet observed = app_.profiles;
  auto p = observed.Get("splitter");
  ASSERT_TRUE(p.ok());
  auto q = *p;
  q.te_cycles /= 4.0;
  observed.Set("splitter", q);

  auto decision =
      reopt_->Check(app_.topology(), current_, app_.profiles, observed);
  ASSERT_TRUE(decision.ok());
  EXPECT_GT(decision->drift, 0.5);
  ASSERT_TRUE(decision->reoptimized);
  EXPECT_GT(decision->expected_gain, 0.05);
  EXPECT_FALSE(decision->migration.empty());
  EXPECT_TRUE(decision->new_plan.FullyPlaced());
}

// Under a worker budget, Check re-plans for the pool's workers and
// scores the running plan on the same budget: its plan has every
// replica chain aligned, and its gain is the budgeted ratio.
TEST(DynamicReoptBudgetTest, ReplansAndScoresUnderTheWorkerBudget) {
  const MachineSpec tray =
      MachineSpec::Symmetric(4, 18, 1.2, 50, 307.7, 54.3, 13.2);
  auto app = apps::MakeApp(AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  // Running: the dedicated-core plan for the planned profiles.
  auto current = RlasOptimizer(&tray, &app->profiles).Optimize(app->topology());
  ASSERT_TRUE(current.ok()) << current.status();
  ProfileSet observed = app->profiles;
  auto splitter = observed.Get("splitter");
  ASSERT_TRUE(splitter.ok());
  auto drifted = *splitter;
  drifted.te_cycles /= 4.0;
  observed.Set("splitter", drifted);

  DynamicOptions options;
  options.rlas.workers_per_socket = 1;
  const DynamicReoptimizer reopt(&tray, options);
  auto decision = reopt.Check(app->topology(), current->plan, app->profiles,
                              observed);
  ASSERT_TRUE(decision.ok()) << decision.status();
  ASSERT_TRUE(decision->reoptimized);
  for (const auto& e : app->topology().edges()) {
    if (!app->topology().IsChainEdge(e)) continue;
    EXPECT_TRUE(model::WiredOneToOne(decision->new_plan, e))
        << decision->new_plan.ToString();
  }
  auto budgeted = model::PerfModel(&tray, &observed, 1)
                      .Evaluate(current->plan,
                                options.rlas.placement.input_rate_tps);
  ASSERT_TRUE(budgeted.ok());
  const double ratio =
      decision->new_model.throughput / budgeted->throughput;
  EXPECT_NEAR(decision->expected_gain, ratio - 1.0, 1e-9 * ratio);
}

}  // namespace
}  // namespace brisk::opt
