// Tests for the NUMA machine model and the fetch-cost formula.
#include "hardware/machine_spec.h"

#include <gtest/gtest.h>

#include "hardware/numa_emulator.h"

namespace brisk::hw {
namespace {

TEST(MachineSpecTest, ServerAMatchesTable2) {
  const MachineSpec m = MachineSpec::ServerA();
  EXPECT_EQ(m.num_sockets(), 8);
  EXPECT_EQ(m.cores_per_socket(), 18);
  EXPECT_EQ(m.total_cores(), 144);
  EXPECT_DOUBLE_EQ(m.core_ghz(), 1.2);
  EXPECT_DOUBLE_EQ(m.LatencyNs(0, 0), 50.0);
  // Intra-tray ~1-hop, inter-tray ~max-hop (small deterministic skew).
  EXPECT_NEAR(m.LatencyNs(0, 1), 307.7, 4.0);
  EXPECT_NEAR(m.LatencyNs(0, 7), 548.0, 10.0);
  EXPECT_NEAR(m.ChannelBandwidthGbps(0, 1), 13.2, 0.3);
  EXPECT_NEAR(m.ChannelBandwidthGbps(0, 7), 5.8, 0.2);
  EXPECT_DOUBLE_EQ(m.local_bandwidth_gbps(), 54.3);
}

TEST(MachineSpecTest, ServerBMatchesTable2) {
  const MachineSpec m = MachineSpec::ServerB();
  EXPECT_EQ(m.total_cores(), 64);
  EXPECT_DOUBLE_EQ(m.core_ghz(), 2.27);
  EXPECT_NEAR(m.LatencyNs(0, 1), 185.2, 3.0);
  EXPECT_NEAR(m.LatencyNs(0, 7), 349.6, 6.0);
  // XNC: remote bandwidth nearly uniform across distance.
  EXPECT_NEAR(m.ChannelBandwidthGbps(0, 1), 10.6, 0.3);
  EXPECT_NEAR(m.ChannelBandwidthGbps(0, 7), 10.8, 0.3);
}

TEST(MachineSpecTest, TwoTrayTopology) {
  const MachineSpec m = MachineSpec::ServerA();
  for (int s = 0; s < 4; ++s) EXPECT_EQ(m.TrayOf(s), 0);
  for (int s = 4; s < 8; ++s) EXPECT_EQ(m.TrayOf(s), 1);
  EXPECT_EQ(m.Hops(2, 2), 0);
  EXPECT_EQ(m.Hops(0, 3), 1);
  EXPECT_EQ(m.Hops(0, 4), 2);
  // Inter-tray latency strictly above intra-tray (the paper's
  // "significant increase" across trays).
  EXPECT_GT(m.LatencyNs(0, 4), m.LatencyNs(0, 3));
}

TEST(MachineSpecTest, LatencyMatrixSymmetricEnough) {
  const MachineSpec m = MachineSpec::ServerA();
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(m.LatencyNs(i, j), m.LatencyNs(j, i));
    }
  }
}

TEST(MachineSpecTest, FetchCostFormula2) {
  const MachineSpec m = MachineSpec::Symmetric(2, 4, 1.0, 50, 400, 50, 10);
  // Collocated: free (covered by T_e).
  EXPECT_EQ(m.FetchCostNs(0, 0, 1000.0), 0.0);
  // One cache line.
  EXPECT_DOUBLE_EQ(m.FetchCostNs(0, 1, 64.0), 400.0);
  EXPECT_DOUBLE_EQ(m.FetchCostNs(0, 1, 1.0), 400.0);  // ceil
  // Two cache lines.
  EXPECT_DOUBLE_EQ(m.FetchCostNs(0, 1, 65.0), 800.0);
  EXPECT_DOUBLE_EQ(m.FetchCostNs(0, 1, 128.0), 800.0);
}

TEST(MachineSpecTest, CyclesToNsUsesClock) {
  const MachineSpec a = MachineSpec::ServerA();   // 1.2 GHz
  const MachineSpec b = MachineSpec::ServerB();   // 2.27 GHz
  EXPECT_DOUBLE_EQ(a.CyclesToNs(1200), 1000.0);
  EXPECT_NEAR(b.CyclesToNs(1200), 528.6, 0.1);
  // Same profile runs faster on the faster clock.
  EXPECT_LT(b.CyclesToNs(1000), a.CyclesToNs(1000));
}

TEST(MachineSpecTest, CpuBudgetPerSocket) {
  const MachineSpec m = MachineSpec::ServerA();
  EXPECT_DOUBLE_EQ(m.cpu_ns_per_sec(), 18e9);
}

TEST(MachineSpecTest, TruncatedKeepsSubmatrix) {
  const MachineSpec full = MachineSpec::ServerA();
  auto m = full.Truncated(4);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->num_sockets(), 4);
  EXPECT_EQ(m->total_cores(), 72);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m->LatencyNs(i, j), full.LatencyNs(i, j));
      EXPECT_DOUBLE_EQ(m->ChannelBandwidthGbps(i, j),
                       full.ChannelBandwidthGbps(i, j));
    }
  }
}

TEST(MachineSpecTest, TruncatedRejectsBadCounts) {
  const MachineSpec full = MachineSpec::ServerA();
  EXPECT_FALSE(full.Truncated(0).ok());
  EXPECT_FALSE(full.Truncated(9).ok());
  EXPECT_TRUE(full.Truncated(8).ok());
  EXPECT_TRUE(full.Truncated(1).ok());
}

TEST(MachineSpecTest, SymmetricFactoryShape) {
  const MachineSpec m = MachineSpec::Symmetric(3, 2, 2.0, 40, 200, 30, 8);
  EXPECT_EQ(m.num_sockets(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(m.LatencyNs(i, i), 40.0);
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(m.LatencyNs(i, j), 200.0);
        EXPECT_DOUBLE_EQ(m.ChannelBandwidthGbps(i, j), 8.0);
      }
    }
  }
}

TEST(NumaEmulatorTest, SpinForNsTakesRoughlyThatLong) {
  const auto t0 = std::chrono::steady_clock::now();
  SpinForNs(2'000'000);  // 2 ms: large enough to measure reliably
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 2'000'000);
  EXPECT_LT(elapsed, 40'000'000);  // sane upper bound under CI noise
}

}  // namespace
}  // namespace brisk::hw
