// Host topology detection + NUMA arena allocation tests: cpulist
// parsing, the detection fallback chain, size-class freelist reuse,
// the pmr ring interface, and cross-thread frees.
#include <cstring>
#include <memory_resource>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"
#include "gtest/gtest.h"
#include "hardware/numa_arena.h"
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
}

TEST(DetectHostTopologyTest, AlwaysYieldsAUsableView) {
  const HostTopology topo = DetectHostTopology();
  EXPECT_GE(topo.nodes, 1);
  EXPECT_EQ(static_cast<int>(topo.node_cpus.size()), topo.nodes);
  EXPECT_GE(topo.total_cpus(), 1);
  EXPECT_TRUE(topo.source == "libnuma" || topo.source == "sysfs" ||
              topo.source == "flat")
      << topo.source;
  // `real` gates mbind/pinning and requires genuinely multiple nodes.
  if (topo.real) {
    EXPECT_GT(topo.nodes, 1);
  }
  // Plan sockets beyond the host wrap instead of faulting.
  EXPECT_NO_THROW(topo.CpusOfNode(topo.nodes + 7));
}

TEST(NumaArenaTest, AllocateWriteFreeAndReuse) {
  NumaArena arena(/*socket=*/0, /*numa_node=*/-1,
                  /*chunk_bytes=*/256 * 1024);
  void* a = arena.allocate(200);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0xAB, 200);  // must be writable
  const size_t in_use = arena.bytes_in_use();
  EXPECT_GE(in_use, 200u);
  EXPECT_GT(arena.bytes_reserved(), 0u);

  // Freelist recycling: freeing and re-allocating the same size class
  // hands the same block back instead of growing the bump region.
  arena.deallocate(a, 200);
  EXPECT_LT(arena.bytes_in_use(), in_use);
  void* b = arena.allocate(180);  // same pow2 class as 200
  EXPECT_EQ(a, b);
  arena.deallocate(b, 180);
}

TEST(NumaArenaTest, OversizedRequestGrowsTheChunk) {
  NumaArena arena(0, -1, /*chunk_bytes=*/64 * 1024);
  // Bigger than the configured chunk: the arena doubles the mapping
  // rather than failing.
  void* p = arena.allocate(512 * 1024);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 512 * 1024);
  arena.deallocate(p, 512 * 1024);
}

TEST(NumaArenaTest, ServesPmrContainers) {
  NumaArena arena(0, -1, 256 * 1024);
  {
    std::pmr::vector<uint64_t> v(&arena);
    for (uint64_t i = 0; i < 10000; ++i) v.push_back(i);
    EXPECT_EQ(v[9999], 9999u);
    EXPECT_GT(arena.bytes_in_use(), 0u);
  }
  // pmr vectors deallocate on destruction; everything returned.
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(NumaArenaTest, SpscRingOnArenaStorage) {
  NumaArena arena(0, -1, 256 * 1024);
  SpscQueue<int> q(64, &arena);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(q.TryPush(int{i}));
  int out = -1;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_GT(arena.bytes_in_use(), 0u);
}

TEST(NumaArenaTest, CrossThreadFreeReturnsToTheArena) {
  NumaArena arena(0, -1, 256 * 1024);
  void* block = nullptr;
  std::thread producer([&] { block = arena.allocate(256); });
  producer.join();
  ASSERT_NE(block, nullptr);
  EXPECT_GT(arena.bytes_in_use(), 0u);
  std::thread consumer([&] { arena.deallocate(block, 256); });
  consumer.join();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // The freed block is back on its size-class freelist.
  EXPECT_EQ(arena.allocate(256), block);
  arena.deallocate(block, 256);
}

TEST(ArenaSetTest, OneArenaPerPlanSocketGrownOnDemand) {
  ArenaSet set(DetectHostTopology(), 256 * 1024);
  NumaArena* s0 = set.ForSocket(0);
  NumaArena* s2 = set.ForSocket(2);
  EXPECT_NE(s0, nullptr);
  EXPECT_NE(s2, nullptr);
  EXPECT_NE(s0, s2);
  EXPECT_EQ(set.ForSocket(0), s0);  // stable across calls
  EXPECT_EQ(set.ForSocket(-1), s0);  // unplaced shares socket 0
  EXPECT_EQ(set.size(), 3);
}

}  // namespace
}  // namespace brisk::hw
