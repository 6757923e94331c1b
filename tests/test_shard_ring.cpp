// Tests of the cross-shard message ring (exp/shard_ring): push/drain order,
// the ramp-up-only growth contract, and the adversarial-tie determinism of
// the fabric delivery order.
#include "exp/shard_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace sigcomp::exp {
namespace {

CrossShardEntry entry(double time, std::uint64_t source, std::uint64_t seq,
                      std::uint64_t dest = 0) {
  CrossShardEntry e;
  e.send_time = time;
  e.source = source;
  e.seq = seq;
  e.dest = dest;
  e.message = protocols::Message{protocols::MessageType::kRefresh,
                                 static_cast<std::int64_t>(seq), seq, 0};
  return e;
}

TEST(RingSpsc, GrowthBeforeFirstSliceRelocatesAndThenStaysFlat) {
  // The farm's ramp-up shape: push() grows past the capacity hint while
  // traffic ramps up (live entries relocated in order), and once warm the
  // ring never allocates again -- drain() keeps the capacity, so later
  // traffic of the same volume fits without growing.
  ShardRing ring(8);
  EXPECT_GE(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ring.push(entry(3.0, 5, i));
  }
  const std::size_t warm = ring.capacity();
  EXPECT_GE(warm, 100u);

  std::vector<CrossShardEntry> drained;
  EXPECT_EQ(ring.drain(drained), 100u);
  ASSERT_EQ(drained.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(drained[i].seq, i);  // relocation preserved FIFO order
  }

  // Warm now: the same volume again must not allocate.
  for (std::uint64_t i = 0; i < 100; ++i) {
    ring.push(entry(4.0, 5, 100 + i));
  }
  EXPECT_EQ(ring.capacity(), warm);
  EXPECT_EQ(ring.pushed(), 200u);

  // A ring whose traffic never exceeds its hint -- the farm's pattern of
  // batches drained after every barrier -- keeps the reserved capacity.
  ShardRing hinted(1024);
  const std::size_t reserved = hinted.capacity();
  EXPECT_GE(reserved, 1024u);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    hinted.push(entry(5.0, 7, i));
    if (hinted.size() >= 512) {
      drained.clear();
      EXPECT_EQ(hinted.drain(drained), 512u);
    }
  }
  EXPECT_EQ(hinted.capacity(), reserved);
}

TEST(RingSpsc, DrainTakesSnapshotAndAppends) {
  ShardRing ring(16);
  for (std::uint64_t i = 0; i < 5; ++i) ring.push(entry(1.0, 2, i));
  std::vector<CrossShardEntry> out;
  out.push_back(entry(0.5, 1, 99));  // pre-existing content is appended to
  EXPECT_EQ(ring.drain(out), 5u);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].seq, 99u);
  EXPECT_EQ(out[5].seq, 4u);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.drain(out), 0u);
}

TEST(RingMergeOrder, FabricBeforeIsAStrictTotalOrderOnStamps) {
  const CrossShardEntry a = entry(1.0, 3, 0);
  const CrossShardEntry b = entry(1.0, 3, 1);  // same time, same source
  const CrossShardEntry c = entry(1.0, 4, 0);  // same time, later source
  const CrossShardEntry d = entry(2.0, 0, 0);  // later time, earliest ids
  EXPECT_TRUE(fabric_before(a, b));
  EXPECT_FALSE(fabric_before(b, a));
  EXPECT_TRUE(fabric_before(b, c));  // source outranks seq
  EXPECT_TRUE(fabric_before(c, d));  // time outranks everything
  EXPECT_FALSE(fabric_before(a, a));  // irreflexive
}

TEST(RingMergeOrder, SortIsInvariantUnderAdversarialTiesAndShuffles) {
  // Many entries sharing one send time (the refresh-storm worst case, plus
  // a few distinct times), shuffled differently per trial: sort_fabric must
  // recover the identical sequence every time -- the property that makes
  // destination delivery order independent of ring arrival order.
  std::vector<CrossShardEntry> canonical;
  for (std::uint64_t src = 0; src < 7; ++src) {
    for (std::uint64_t seq = 0; seq < 5; ++seq) {
      canonical.push_back(entry(10.0, src, seq));          // one big tie
      canonical.push_back(entry(10.0 + 0.5 * static_cast<double>(seq % 2),
                                100 + src, seq));
    }
  }
  sort_fabric(canonical);
  std::mt19937 shuffler(1234);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<CrossShardEntry> shuffled = canonical;
    std::shuffle(shuffled.begin(), shuffled.end(), shuffler);
    sort_fabric(shuffled);
    for (std::size_t i = 0; i < canonical.size(); ++i) {
      EXPECT_EQ(shuffled[i].send_time, canonical[i].send_time);
      EXPECT_EQ(shuffled[i].source, canonical[i].source);
      EXPECT_EQ(shuffled[i].seq, canonical[i].seq);
    }
  }
}

TEST(RingFabric, MaterializesOneRingPerDirectedPair) {
  CrossShardFabric fabric(4);
  ShardRing* r01 = fabric.ensure_ring(0, 1);
  ShardRing* r21 = fabric.ensure_ring(2, 1);
  ShardRing* r10 = fabric.ensure_ring(1, 0);
  EXPECT_EQ(fabric.ensure_ring(0, 1), r01);  // idempotent
  EXPECT_EQ(fabric.rings(), 3u);
  EXPECT_EQ(fabric.find_ring(0, 1), r01);
  EXPECT_EQ(fabric.find_ring(2, 1), r21);
  EXPECT_EQ(fabric.find_ring(1, 0), r10);
  EXPECT_EQ(fabric.find_ring(3, 1), nullptr);
  EXPECT_EQ(fabric.find_ring(0, 2), nullptr);
}

TEST(RingFabric, DrainIntoMergesEveryIncomingRing) {
  CrossShardFabric fabric(3);
  fabric.ensure_ring(0, 2)->push(entry(5.0, 10, 0, 42));
  fabric.ensure_ring(1, 2)->push(entry(4.0, 20, 0, 43));
  fabric.ensure_ring(0, 2)->push(entry(5.0, 10, 1, 42));
  EXPECT_FALSE(fabric.empty());
  EXPECT_EQ(fabric.total_pushed(), 3u);

  std::vector<CrossShardEntry> merged;
  EXPECT_EQ(fabric.drain_into(2, merged), 3u);
  sort_fabric(merged);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].source, 20u);  // earliest send time first
  EXPECT_EQ(merged[1].source, 10u);
  EXPECT_EQ(merged[1].seq, 0u);
  EXPECT_EQ(merged[2].seq, 1u);
  EXPECT_TRUE(fabric.empty());
  EXPECT_EQ(fabric.total_pushed(), 3u);  // pushed() survives the drain
}

}  // namespace
}  // namespace sigcomp::exp
