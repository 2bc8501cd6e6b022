// Unit tests for ExecutionPlan construction and placement bookkeeping.
#include "model/execution_plan.h"

#include <gtest/gtest.h>

namespace brisk::model {
namespace {

api::Topology MakeChain(int bolts) {
  api::TopologyBuilder b("chain");
  b.AddSpout("op0", [] { return std::unique_ptr<api::Spout>(); });
  for (int i = 1; i <= bolts; ++i) {
    b.AddBolt("op" + std::to_string(i),
              [] { return std::unique_ptr<api::Operator>(); })
        .ShuffleFrom("op" + std::to_string(i - 1));
  }
  auto topo = std::move(b).Build();
  EXPECT_TRUE(topo.ok());
  return std::move(topo).value();
}

TEST(ExecutionPlanTest, CreateAssignsContiguousInstanceIds) {
  api::Topology topo = MakeChain(2);
  auto plan = ExecutionPlan::Create(&topo, {2, 3, 1});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_instances(), 6);
  EXPECT_EQ(plan->InstanceId(0, 0), 0);
  EXPECT_EQ(plan->InstanceId(0, 1), 1);
  EXPECT_EQ(plan->InstanceId(1, 0), 2);
  EXPECT_EQ(plan->InstanceId(2, 0), 5);
  EXPECT_EQ(plan->instance(3).op, 1);
  EXPECT_EQ(plan->instance(3).replica, 1);
}

TEST(ExecutionPlanTest, RejectsSizeMismatchAndZeroReplication) {
  api::Topology topo = MakeChain(1);
  EXPECT_FALSE(ExecutionPlan::Create(&topo, {1}).ok());
  EXPECT_FALSE(ExecutionPlan::Create(&topo, {1, 0}).ok());
  EXPECT_FALSE(ExecutionPlan::Create(nullptr, {}).ok());
}

TEST(ExecutionPlanTest, PlacementLifecycle) {
  api::Topology topo = MakeChain(1);
  auto plan = ExecutionPlan::Create(&topo, {2, 2});
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->FullyPlaced());
  plan->PlaceAllOn(3);
  EXPECT_TRUE(plan->FullyPlaced());
  EXPECT_EQ(plan->InstancesOnSocket(3), 4);
  plan->SetSocket(0, 1);
  EXPECT_EQ(plan->InstancesOnSocket(3), 3);
  EXPECT_EQ(plan->InstancesOnSocket(1), 1);
  plan->ClearPlacement();
  EXPECT_FALSE(plan->FullyPlaced());
  EXPECT_EQ(plan->InstancesOnSocket(3), 0);
}

TEST(ExecutionPlanTest, CreateDefaultUsesBaseParallelism) {
  api::TopologyBuilder b("p");
  b.AddSpout("s", [] { return std::unique_ptr<api::Spout>(); }, 3);
  b.AddBolt("k", [] { return std::unique_ptr<api::Operator>(); }, 5)
      .ShuffleFrom("s");
  auto topo = std::move(b).Build();
  ASSERT_TRUE(topo.ok());
  auto plan = ExecutionPlan::CreateDefault(&topo.value());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->replication(0), 3);
  EXPECT_EQ(plan->replication(1), 5);
  EXPECT_EQ(plan->num_instances(), 8);
}

TEST(ExecutionPlanTest, ToStringShowsPlacement) {
  api::Topology topo = MakeChain(1);
  auto plan = ExecutionPlan::Create(&topo, {1, 1});
  ASSERT_TRUE(plan.ok());
  plan->SetSocket(0, 2);
  const std::string s = plan->ToString();
  EXPECT_NE(s.find("S2"), std::string::npos);
  EXPECT_NE(s.find("?"), std::string::npos);
}

TEST(ExecutionPlanTest, ResizedKeepsSurvivingSocketsAndPlacesNewReplicas) {
  api::Topology topo = MakeChain(1);
  auto plan = ExecutionPlan::Create(&topo, {1, 2});
  ASSERT_TRUE(plan.ok());
  for (int i = 0; i < plan->num_instances(); ++i) plan->SetSocket(i, i);

  auto grown = plan->Resized(1, 3, /*socket=*/5);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->replication(), (std::vector<int>{1, 3}));
  EXPECT_EQ(grown->SocketOf(grown->InstanceId(0, 0)), 0);
  EXPECT_EQ(grown->SocketOf(grown->InstanceId(1, 0)), 1);
  EXPECT_EQ(grown->SocketOf(grown->InstanceId(1, 1)), 2);
  EXPECT_EQ(grown->SocketOf(grown->InstanceId(1, 2)), 5);

  auto shrunk = grown->Resized(1, 2, /*socket=*/5);
  ASSERT_TRUE(shrunk.ok());
  EXPECT_TRUE(*shrunk == *plan);
  EXPECT_FALSE(plan->Resized(1, 0, 0).ok());
}

TEST(ExecutionPlanTest, EqualityComparesTopologyReplicationAndSockets) {
  api::Topology topo = MakeChain(1);
  api::Topology other = MakeChain(1);
  auto a = ExecutionPlan::Create(&topo, {1, 2});
  ASSERT_TRUE(a.ok());
  a->PlaceAllOn(0);
  ExecutionPlan b = *a;
  EXPECT_TRUE(*a == b);
  b.SetSocket(2, 1);
  EXPECT_FALSE(*a == b);

  auto wider = ExecutionPlan::Create(&topo, {2, 1});
  ASSERT_TRUE(wider.ok());
  wider->PlaceAllOn(0);
  EXPECT_FALSE(*a == *wider);

  auto foreign = ExecutionPlan::Create(&other, {1, 2});
  ASSERT_TRUE(foreign.ok());
  foreign->PlaceAllOn(0);
  EXPECT_FALSE(*a == *foreign);
}

}  // namespace
}  // namespace brisk::model
