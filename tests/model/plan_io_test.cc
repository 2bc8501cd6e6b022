// Tests for plan serialization (what `briskadm plan --save` writes).
#include "model/plan_io.h"

#include <gtest/gtest.h>

#include "apps/apps.h"

namespace brisk::model {
namespace {

TEST(PlanIoTest, SerializesReplicationAndPlacementGolden) {
  auto app = apps::MakeApp(apps::AppId::kWordCount);
  ASSERT_TRUE(app.ok());
  auto plan = ExecutionPlan::Create(app->topology_ptr.get(), {2, 1, 3, 4, 1});
  ASSERT_TRUE(plan.ok());
  for (int i = 0; i < plan->num_instances(); ++i) {
    plan->SetSocket(i, i % 3);
  }
  EXPECT_EQ(SerializePlan(*plan),
            "brisk-plan v1\n"
            "op spout replication 2 sockets 0 1\n"
            "op parser replication 1 sockets 2\n"
            "op splitter replication 3 sockets 0 1 2\n"
            "op counter replication 4 sockets 0 1 2 0\n"
            "op sink replication 1 sockets 1\n");
}

TEST(PlanIoTest, UnplacedInstancesEncodeAsMinusOne) {
  auto app = apps::MakeApp(apps::AppId::kSpikeDetection);
  ASSERT_TRUE(app.ok());
  auto plan = ExecutionPlan::CreateDefault(app->topology_ptr.get());
  ASSERT_TRUE(plan.ok());  // all sockets -1
  EXPECT_EQ(SerializePlan(*plan),
            "brisk-plan v1\n"
            "op spout replication 1 sockets -1\n"
            "op parser replication 1 sockets -1\n"
            "op moving_avg replication 1 sockets -1\n"
            "op spike_detect replication 1 sockets -1\n"
            "op sink replication 1 sockets -1\n");
}

}  // namespace
}  // namespace brisk::model
