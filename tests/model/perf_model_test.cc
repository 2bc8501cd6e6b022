// Unit tests for the rate-based performance model (§3.1, Eq. 3–5).
#include "model/perf_model.h"

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "apps/word_count.h"
#include "hardware/machine_spec.h"

namespace brisk::model {
namespace {

using api::Topology;
using api::TopologyBuilder;
using hw::MachineSpec;

// Minimal spout: tests only exercise the model, never the factories.
api::SpoutFactory NullSpout() {
  return [] { return std::unique_ptr<api::Spout>(); };
}
api::OperatorFactory NullBolt() {
  return [] { return std::unique_ptr<api::Operator>(); };
}

/// Two-operator chain: spout -> sink.
Topology Chain2() {
  TopologyBuilder b("chain2");
  b.AddSpout("src", NullSpout());
  b.AddBolt("snk", NullBolt()).ShuffleFrom("src");
  auto topo = std::move(b).Build();
  EXPECT_TRUE(topo.ok()) << topo.status();
  return std::move(topo).value();
}

/// Three-operator chain: spout -> mid -> sink.
Topology Chain3() {
  TopologyBuilder b("chain3");
  b.AddSpout("src", NullSpout());
  b.AddBolt("mid", NullBolt()).ShuffleFrom("src");
  b.AddBolt("snk", NullBolt()).ShuffleFrom("mid");
  auto topo = std::move(b).Build();
  EXPECT_TRUE(topo.ok()) << topo.status();
  return std::move(topo).value();
}

ProfileSet UniformProfiles(double te_cycles, double out_bytes = 64.0,
                           double sel = 1.0) {
  ProfileSet p;
  for (const char* name : {"src", "mid", "snk"}) {
    p.Set(name, OperatorProfile::Simple(te_cycles, /*m=*/out_bytes,
                                        out_bytes, sel));
  }
  return p;
}

TEST(PerfModelTest, UnderSuppliedForwardsInputRate) {
  // 1000 cycles @1 GHz = 1 us/tuple => capacity 1e6 tuples/s.
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 300, 50, 10);
  Topology topo = Chain2();
  ProfileSet prof = UniformProfiles(1000);
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);

  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, /*I=*/1e5);
  ASSERT_TRUE(r.ok()) << r.status();
  // Under-supplied: every operator forwards its input (Case 2, §3.1).
  EXPECT_NEAR(r->throughput, 1e5, 1.0);
  for (const auto& st : r->instances) {
    EXPECT_FALSE(st.bottleneck);
    EXPECT_NEAR(st.processed, 1e5, 1.0);
  }
}

TEST(PerfModelTest, OverSuppliedCapsAtCapacityAndFlagsBottleneck) {
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 300, 50, 10);
  Topology topo = Chain2();
  ProfileSet prof = UniformProfiles(1000);  // capacity 1e6/s
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);

  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, /*I=*/1e12);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->throughput, 1e6, 1e3);
  EXPECT_TRUE(r->instances[0].bottleneck);  // spout over-fed
  EXPECT_GE(r->bottleneck_op, 0);
}

TEST(PerfModelTest, RemotePlacementAddsFetchCostAndLowersThroughput) {
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 500, 50, 10);
  Topology topo = Chain2();
  // 64-byte tuples = 1 cache line => T_f = 500 ns remote.
  ProfileSet prof = UniformProfiles(1000, /*out_bytes=*/64.0);
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());

  PerfModel model(&m, &prof);
  plan->PlaceAllOn(0);
  auto local = model.Evaluate(*plan, 1e12);
  ASSERT_TRUE(local.ok());

  plan->SetSocket(1, 1);  // sink remote to spout
  auto remote = model.Evaluate(*plan, 1e12);
  ASSERT_TRUE(remote.ok());

  // Local: sink T = 1000 ns => 1e6/s. Remote: T = 1500 ns => 666 k/s.
  EXPECT_NEAR(local->throughput, 1e6, 1e3);
  EXPECT_NEAR(remote->throughput, 1e9 / 1500.0, 1e3);
  EXPECT_LT(remote->throughput, local->throughput);
  // Sink's T(p) reflects Formula 2.
  EXPECT_NEAR(remote->instances[1].t_ns, 1500.0, 1.0);
}

TEST(PerfModelTest, SelectivityMultipliesDownstreamRate) {
  MachineSpec m = MachineSpec::Symmetric(1, 16, 1.0, 50, 300, 50, 10);
  Topology topo = Chain3();
  ProfileSet prof;
  prof.Set("src", OperatorProfile::Simple(1000, 64, 64, 1.0));
  prof.Set("mid", OperatorProfile::Simple(100, 64, 64, /*sel=*/10.0));
  prof.Set("snk", OperatorProfile::Simple(10, 64, 64, 1.0));
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);

  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, 1e5);
  ASSERT_TRUE(r.ok());
  // mid expands 1e5 -> 1e6; sink consumes 1e6.
  EXPECT_NEAR(r->instances[2].input_rate, 1e6, 1.0);
  EXPECT_NEAR(r->throughput, 1e6, 1.0);
}

TEST(PerfModelTest, ReplicationSplitsLoadAcrossInstances) {
  MachineSpec m = MachineSpec::Symmetric(1, 16, 1.0, 50, 300, 50, 10);
  Topology topo = Chain2();
  ProfileSet prof = UniformProfiles(1000);
  auto plan = ExecutionPlan::Create(&topo, {1, 4});
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);

  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, 1e12);
  ASSERT_TRUE(r.ok());
  // Spout caps at 1e6/s; each of 4 sinks gets 250 k/s (shuffle).
  for (int i = 1; i <= 4; ++i) {
    EXPECT_NEAR(r->instances[i].input_rate, 2.5e5, 1e2);
  }
  EXPECT_NEAR(r->throughput, 1e6, 1e3);
}

TEST(PerfModelTest, CpuConstraintViolationReported) {
  // One core per socket: two busy instances cannot share socket 0.
  MachineSpec m = MachineSpec::Symmetric(2, 1, 1.0, 50, 300, 50, 10);
  Topology topo = Chain2();
  ProfileSet prof = UniformProfiles(1000);
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);

  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, 1e12);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->feasible());
  bool found_core = false;
  for (const auto& v : r->violations) {
    found_core |= v.kind == ConstraintViolation::kCoreCount;
  }
  EXPECT_TRUE(found_core);
}

TEST(PerfModelTest, ChannelBandwidthConstraintViolationReported) {
  // Tiny remote channel: 1 MB/s. 64-byte tuples at ~1e6/s = 64 MB/s.
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 100, 50, 0.001);
  Topology topo = Chain2();
  ProfileSet prof = UniformProfiles(1000);
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());
  plan->SetSocket(0, 0);
  plan->SetSocket(1, 1);

  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, 1e12);
  ASSERT_TRUE(r.ok());
  bool found_channel = false;
  for (const auto& v : r->violations) {
    found_channel |= v.kind == ConstraintViolation::kChannelBandwidth;
  }
  EXPECT_TRUE(found_channel);
  // Traffic matrix has the flow on (0,1) and nothing on (1,0).
  EXPECT_GT(r->link_traffic[0 * 2 + 1], 0.0);
  EXPECT_EQ(r->link_traffic[1 * 2 + 0], 0.0);
}

TEST(PerfModelTest, BoundDominatesAnyCompletion) {
  MachineSpec m = MachineSpec::ServerA();
  Topology topo = Chain3();
  ProfileSet prof = UniformProfiles(1200, /*out_bytes=*/128);
  auto plan = ExecutionPlan::Create(&topo, {2, 3, 2});
  ASSERT_TRUE(plan.ok());

  PerfModel model(&m, &prof);
  auto bound = model.Bound(*plan, 1e12);  // nothing placed
  ASSERT_TRUE(bound.ok());

  // Any concrete placement must not beat the root bound.
  plan->PlaceAllOn(0);
  plan->SetSocket(2, 4);
  plan->SetSocket(5, 7);
  auto r = model.Evaluate(*plan, 1e12);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->throughput, *bound + 1e-6);
}

TEST(PerfModelTest, FixedFetchModesBracketRelativeLocation) {
  MachineSpec m = MachineSpec::ServerA();
  Topology topo = Chain3();
  ProfileSet prof = UniformProfiles(1200, 128);
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());
  plan->SetSocket(0, 0);
  plan->SetSocket(1, 1);
  plan->SetSocket(2, 4);

  PerfModel model(&m, &prof);
  ModelOptions rel, local, remote;
  local.fetch_mode = FetchCostMode::kAlwaysLocal;
  remote.fetch_mode = FetchCostMode::kAlwaysRemote;
  auto r_rel = model.Evaluate(*plan, 1e12, rel);
  auto r_loc = model.Evaluate(*plan, 1e12, local);
  auto r_rem = model.Evaluate(*plan, 1e12, remote);
  ASSERT_TRUE(r_rel.ok());
  ASSERT_TRUE(r_loc.ok());
  ASSERT_TRUE(r_rem.ok());
  EXPECT_LE(r_rem->throughput, r_rel->throughput + 1e-6);
  EXPECT_LE(r_rel->throughput, r_loc->throughput + 1e-6);
}

TEST(PerfModelTest, UnplacedRequiresAllowUnplaced) {
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 300, 50, 10);
  Topology topo = Chain2();
  ProfileSet prof = UniformProfiles(1000);
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());

  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, 1e6);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition());

  ModelOptions opts;
  opts.allow_unplaced = true;
  auto r2 = model.Evaluate(*plan, 1e6, opts);
  EXPECT_TRUE(r2.ok());
}

TEST(PerfModelTest, CriticalPathSumsChainServiceTimes) {
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 500, 50, 10);
  Topology topo = Chain3();
  ProfileSet prof;
  prof.Set("src", OperatorProfile::Simple(1000, 64, 64));  // 1000 ns
  prof.Set("mid", OperatorProfile::Simple(2000, 64, 64));  // 2000 ns
  prof.Set("snk", OperatorProfile::Simple(500, 64, 64));   // 500 ns
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  PerfModel model(&m, &prof);
  auto local = model.Evaluate(*plan, 1e3);
  ASSERT_TRUE(local.ok());
  EXPECT_NEAR(local->critical_path_ns, 3500.0, 1e-6);

  // A remote hop adds its Formula-2 fetch to the path.
  plan->SetSocket(2, 1);  // sink remote to mid
  auto remote = model.Evaluate(*plan, 1e3);
  ASSERT_TRUE(remote.ok());
  EXPECT_NEAR(remote->critical_path_ns, 3500.0 + 500.0, 1e-6);
}

TEST(PerfModelTest, CriticalPathTakesLongestBranch) {
  MachineSpec m = MachineSpec::Symmetric(1, 8, 1.0, 50, 500, 50, 10);
  api::TopologyBuilder b("diamond");
  b.AddSpout("src", NullSpout());
  b.AddBolt("cheap", NullBolt()).ShuffleFrom("src");
  b.AddBolt("dear", NullBolt()).ShuffleFrom("src");
  b.AddBolt("snk", NullBolt()).ShuffleFrom("cheap").ShuffleFrom("dear");
  auto topo = std::move(b).Build();
  ASSERT_TRUE(topo.ok());
  ProfileSet prof;
  prof.Set("src", OperatorProfile::Simple(100, 64, 64));
  prof.Set("cheap", OperatorProfile::Simple(200, 64, 64));
  prof.Set("dear", OperatorProfile::Simple(5000, 64, 64));
  prof.Set("snk", OperatorProfile::Simple(100, 64, 64));
  auto plan = ExecutionPlan::CreateDefault(&*topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, 1e3);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->critical_path_ns, 100 + 5000 + 100, 1e-6);
}

TEST(PerfModelTest, MissingProfileIsAnError) {
  MachineSpec m = MachineSpec::Symmetric(2, 8, 1.0, 50, 300, 50, 10);
  Topology topo = Chain2();
  ProfileSet prof;
  prof.Set("src", OperatorProfile::Simple(100, 64, 64));
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());
  plan->PlaceAllOn(0);
  PerfModel model(&m, &prof);
  auto r = model.Evaluate(*plan, 1e6);
  EXPECT_FALSE(r.ok());
}

// --- Worker budget (processor sharing) ---------------------------------

/// Every operator at `repl`, replica r on socket r mod S: each replica
/// chain is aligned.
ExecutionPlan StripedPlan(const Topology& topo, int repl, int sockets) {
  auto plan = ExecutionPlan::Create(
      &topo, std::vector<int>(topo.num_operators(), repl));
  EXPECT_TRUE(plan.ok()) << plan.status();
  for (int op = 0; op < topo.num_operators(); ++op) {
    for (int r = 0; r < repl; ++r) {
      plan->SetSocket(plan->InstanceId(op, r), r % sockets);
    }
  }
  return std::move(plan).value();
}

void ExpectSameResult(const ModelResult& a, const ModelResult& b) {
  EXPECT_EQ(a.throughput, b.throughput);
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].input_rate, b.instances[i].input_rate) << i;
    EXPECT_EQ(a.instances[i].t_ns, b.instances[i].t_ns) << i;
    EXPECT_EQ(a.instances[i].capacity, b.instances[i].capacity) << i;
    EXPECT_EQ(a.instances[i].processed, b.instances[i].processed) << i;
    EXPECT_EQ(a.instances[i].bottleneck, b.instances[i].bottleneck) << i;
  }
  ASSERT_EQ(a.sockets.size(), b.sockets.size());
  for (size_t s = 0; s < a.sockets.size(); ++s) {
    EXPECT_EQ(a.sockets[s].cpu_ns_per_sec, b.sockets[s].cpu_ns_per_sec);
    EXPECT_EQ(a.sockets[s].bw_bytes_per_sec, b.sockets[s].bw_bytes_per_sec);
    EXPECT_EQ(a.sockets[s].instances, b.sockets[s].instances);
  }
  EXPECT_EQ(a.link_traffic, b.link_traffic);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t v = 0; v < a.violations.size(); ++v) {
    EXPECT_EQ(a.violations[v].ToString(), b.violations[v].ToString());
  }
  EXPECT_EQ(a.bottleneck_op, b.bottleneck_op);
  EXPECT_EQ(a.bottleneck_ratio, b.bottleneck_ratio);
  EXPECT_EQ(a.critical_path_ns, b.critical_path_ns);
}

// A budget of at least the machine's cores is the paper's model, bit
// for bit, including plans whose chains are aligned (the engine would
// wire those one-to-one; the dedicated-core model keeps Formula 1's
// all-to-all split so the paper's figures do not move).
TEST(PerfModelBudgetTest, DedicatedBudgetIsTheUnbudgetedModel) {
  const MachineSpec tray =
      MachineSpec::Symmetric(4, 18, 1.2, 50, 307.7, 54.3, 13.2);
  for (const MachineSpec& m : {MachineSpec::ServerA(), tray}) {
    for (const apps::AppId id :
         {apps::AppId::kWordCount, apps::AppId::kFraudDetection,
          apps::AppId::kSpikeDetection, apps::AppId::kLinearRoad}) {
      auto app = apps::MakeApp(id);
      ASSERT_TRUE(app.ok());
      const PerfModel plain(&m, &app->profiles);
      for (const int budget : {m.cores_per_socket(), m.total_cores()}) {
        const PerfModel dedicated(&m, &app->profiles, budget);
        EXPECT_FALSE(dedicated.budgeted());
        for (const int repl : {1, 3, 4}) {
          const ExecutionPlan plan =
              StripedPlan(app->topology(), repl, m.num_sockets());
          for (const double rate : {1e5, 1e12}) {
            SCOPED_TRACE(app->name + " on " + m.name() + " x" +
                         std::to_string(repl));
            auto a = plain.Evaluate(plan, rate);
            auto b = dedicated.Evaluate(plan, rate);
            ASSERT_TRUE(a.ok() && b.ok());
            ExpectSameResult(*a, *b);
          }
        }
      }
    }
  }
}

// Processor sharing against its closed form: one worker per socket
// serves 1e9 ns/s, so throughput is 1e9 over the busiest socket's CPU
// per ingress tuple.
TEST(PerfModelBudgetTest, OneWorkerPerSocketMatchesClosedForm) {
  MachineSpec m = MachineSpec::Symmetric(2, 4, 1.0, 50, 300, 50, 10);
  Topology topo = Chain3();
  ProfileSet prof = UniformProfiles(1000);  // 1000 ns per tuple at 1 GHz
  auto plan = ExecutionPlan::CreateDefault(&topo);
  ASSERT_TRUE(plan.ok());

  // All three on S0: one worker runs 3000 ns per tuple.
  plan->PlaceAllOn(0);
  const PerfModel one(&m, &prof, 1);
  auto r = one.Evaluate(*plan, 1e12);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->throughput, 1e9 / 3000.0, 1e-3);
  EXPECT_TRUE(r->feasible());
  // Dedicated cores: each instance its own core, 1e6 tuples/s.
  auto dedicated = PerfModel(&m, &prof).Evaluate(*plan, 1e12);
  ASSERT_TRUE(dedicated.ok());
  EXPECT_NEAR(dedicated->throughput, 1e6, 1e-3);
  // The paced plan's S0 demand is exactly its one worker, and no
  // instance is over-supplied at that pace.
  EXPECT_NEAR(r->sockets[0].cpu_ns_per_sec, 1e9, 1e-3);
  EXPECT_EQ(r->bottleneck_op, -1);
  // Two workers share the same 3000 ns.
  auto two = PerfModel(&m, &prof, 2).Evaluate(*plan, 1e12);
  ASSERT_TRUE(two.ok());
  EXPECT_NEAR(two->throughput, 2e9 / 3000.0, 1e-3);

  // src on S0, mid and snk on S1: S1 pays mid's remote fetch too.
  plan->SetSocket(plan->InstanceId(1, 0), 1);
  plan->SetSocket(plan->InstanceId(2, 0), 1);
  auto split = one.Evaluate(*plan, 1e12);
  ASSERT_TRUE(split.ok());
  const double s1_ns = 2000.0 + m.FetchCostNs(0, 1, 64);
  EXPECT_NEAR(split->throughput, 1e9 / s1_ns, 1e-3);
  EXPECT_NEAR(split->sockets[1].cpu_ns_per_sec, 1e9, 1e-3);
  EXPECT_NEAR(split->sockets[0].cpu_ns_per_sec, 1e9 * 1000.0 / s1_ns, 1e-3);
  // Below the workers' pace nothing changes.
  auto slow = one.Evaluate(*plan, 1e5);
  ASSERT_TRUE(slow.ok());
  EXPECT_NEAR(slow->throughput, 1e5, 1e-6);
}

// Under a budget an aligned chain edge is delivered replica k ->
// replica k, as the engine wires it; a misaligned one all-to-all.
TEST(PerfModelBudgetTest, AlignedChainIsDeliveredOneToOne) {
  MachineSpec m = MachineSpec::Symmetric(2, 4, 1.0, 50, 300, 50, 10);
  Topology topo = Chain3();
  ProfileSet prof = UniformProfiles(1000);
  const ExecutionPlan aligned = StripedPlan(topo, 2, 2);
  for (const auto& e : topo.edges()) {
    EXPECT_TRUE(WiredOneToOne(aligned, e));
  }
  const PerfModel one(&m, &prof, 1);
  auto r = one.Evaluate(aligned, 1e12);
  ASSERT_TRUE(r.ok());
  for (const double t : r->link_traffic) EXPECT_EQ(t, 0.0);
  // Each socket runs one full chain on half the ingress.
  EXPECT_NEAR(r->throughput, 2 * 1e9 / 3000.0, 1e-3);

  // Swap mid's replicas: src->mid and mid->snk both cross sockets now.
  ExecutionPlan swapped = aligned;
  swapped.SetSocket(swapped.InstanceId(1, 0), 1);
  swapped.SetSocket(swapped.InstanceId(1, 1), 0);
  for (const auto& e : topo.edges()) {
    EXPECT_FALSE(WiredOneToOne(swapped, e));
  }
  auto all = one.Evaluate(swapped, 1e12);
  ASSERT_TRUE(all.ok());
  EXPECT_GT(all->link_traffic[0 * 2 + 1], 0.0);
  EXPECT_GT(all->link_traffic[1 * 2 + 0], 0.0);
  // Half of every hop is remote: mid and snk each pay half a fetch.
  const double per_socket_ns = 1500.0 + 0.5 * m.FetchCostNs(0, 1, 64);
  EXPECT_NEAR(all->throughput, 1e9 / per_socket_ns, 1e-3);

  // Unequal replication is never aligned.
  auto uneven = ExecutionPlan::Create(&topo, {2, 1, 1});
  ASSERT_TRUE(uneven.ok());
  uneven->PlaceAllOn(0);
  EXPECT_FALSE(WiredOneToOne(*uneven, topo.edges()[0]));
  EXPECT_TRUE(WiredOneToOne(*uneven, topo.edges()[1]));
}

}  // namespace
}  // namespace brisk::model
