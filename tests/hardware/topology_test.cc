// Host topology detection tests: cpulist parsing and the sysfs → flat
// detection fallback.
#include <vector>

#include "gtest/gtest.h"
#include "hardware/topology.h"

namespace brisk::hw {
namespace {

TEST(ParseCpuListTest, RangesAndSingles) {
  EXPECT_EQ(ParseCpuList("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(ParseCpuList("5"), (std::vector<int>{5}));
  EXPECT_EQ(ParseCpuList("0-1\n"), (std::vector<int>{0, 1}));
}

TEST(ParseCpuListTest, MalformedPiecesAreSkipped) {
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("garbage").empty());
  EXPECT_EQ(ParseCpuList("x,2,nope,7-8"), (std::vector<int>{2, 7, 8}));
  // An inverted range contributes nothing rather than looping.
  EXPECT_EQ(ParseCpuList("9-3,1"), (std::vector<int>{1}));
  // A range ending past any real CPU id is skipped instead of
  // allocating ~2^31 entries (or overflowing int).
  EXPECT_EQ(ParseCpuList("0-2147483650,3"), (std::vector<int>{3}));
}

TEST(DetectHostTopologyTest, AlwaysYieldsAUsableView) {
  const HostTopology topo = DetectHostTopology();
  EXPECT_GE(topo.nodes, 1);
  EXPECT_EQ(static_cast<int>(topo.node_cpus.size()), topo.nodes);
  EXPECT_GE(topo.total_cpus(), 1);
  EXPECT_TRUE(topo.source == "sysfs" || topo.source == "flat")
      << topo.source;
  // `real` gates node-aware pinning and requires genuinely multiple
  // nodes.
  if (topo.real) {
    EXPECT_GT(topo.nodes, 1);
  }
  // Plan sockets beyond the host wrap instead of faulting.
  EXPECT_NO_THROW(topo.CpusOfNode(topo.nodes + 7));
}

}  // namespace
}  // namespace brisk::hw
