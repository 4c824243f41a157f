// Tests for the hashed partition map (shard/partition.h): the placement
// function is a pure, stable function of the global id, edge ownership is
// the lowest endpoint home, and ShardMap replays shard-local slot
// assignment deterministically (DESIGN.md §16).

#include "shard/partition.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace geacc::shard {
namespace {

TEST(Partition, Mix64MatchesPublishedSplitMix64Vector) {
  // splitmix64 with seed 0 emits 0xE220A8397B1DCDAF first — the standard
  // reference vector. The partition map is a restart-stable contract, so
  // the constant is pinned here: any "equivalent" hash swap is a breaking
  // change to every deployed topology.
  EXPECT_EQ(Mix64(0), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(Mix64(0), Mix64(0));
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(Partition, HomeShardIsDeterministicAndInRange) {
  for (int num_shards = 1; num_shards <= 8; ++num_shards) {
    for (int32_t id = 0; id < 500; ++id) {
      const int home = HomeShard(id, num_shards);
      EXPECT_GE(home, 0);
      EXPECT_LT(home, num_shards);
      EXPECT_EQ(home, HomeShard(id, num_shards));
    }
  }
  for (int32_t id = 0; id < 100; ++id) {
    EXPECT_EQ(HomeShard(id, 1), 0);
  }
}

TEST(Partition, HomeShardSpreadsIdsAcrossShards) {
  constexpr int kShards = 4;
  constexpr int kIds = 10000;
  std::vector<int> counts(kShards, 0);
  for (int32_t id = 0; id < kIds; ++id) {
    ++counts[HomeShard(id, kShards)];
  }
  // Expected kIds / kShards = 2500 per shard; a well-mixed hash stays
  // well inside [15%, 35%].
  for (int shard = 0; shard < kShards; ++shard) {
    EXPECT_GT(counts[shard], kIds * 15 / 100) << "shard " << shard;
    EXPECT_LT(counts[shard], kIds * 35 / 100) << "shard " << shard;
  }
}

TEST(Partition, EdgeOwnerIsLowestEndpointHomeAndSymmetric) {
  for (int num_shards = 2; num_shards <= 5; ++num_shards) {
    for (EventId a = 0; a < 20; ++a) {
      for (EventId b = 0; b < 20; ++b) {
        const int home_a = HomeShard(a, num_shards);
        const int home_b = HomeShard(b, num_shards);
        const int owner = EdgeOwnerShard(a, b, num_shards);
        EXPECT_EQ(owner, home_a < home_b ? home_a : home_b);
        EXPECT_EQ(owner, EdgeOwnerShard(b, a, num_shards));
      }
    }
  }
}

TEST(Partition, ShardMapRoundTripsPlacements) {
  constexpr int kShards = 3;
  constexpr int32_t kUsers = 200;
  ShardMap map(kShards);
  EXPECT_EQ(map.num_shards(), kShards);
  EXPECT_EQ(map.global_users(), 0);

  for (int32_t global = 0; global < kUsers; ++global) {
    const ShardMap::Placement placement = map.PlaceUser();
    EXPECT_EQ(placement.shard, HomeShard(global, kShards));
    EXPECT_EQ(map.global_users(), global + 1);
    EXPECT_EQ(map.UserHome(global), placement);
    EXPECT_EQ(map.ToGlobalUser(placement.shard, placement.local), global);
  }

  // Local ids are the shard's own slot sequence: 0..count-1, mapping back
  // to strictly increasing global ids (the coordinator replays the
  // shard's DynamicInstance slot assignment).
  int32_t total = 0;
  for (int shard = 0; shard < kShards; ++shard) {
    const int32_t count = map.LocalUserCount(shard);
    total += count;
    int32_t previous_global = -1;
    for (int32_t local = 0; local < count; ++local) {
      const int32_t global = map.ToGlobalUser(shard, local);
      ASSERT_GE(global, 0);
      EXPECT_GT(global, previous_global);
      previous_global = global;
      EXPECT_EQ(map.UserHome(global).shard, shard);
      EXPECT_EQ(map.UserHome(global).local, local);
    }
    EXPECT_EQ(map.ToGlobalUser(shard, count), -1);
    EXPECT_EQ(map.ToGlobalUser(shard, -1), -1);
  }
  EXPECT_EQ(total, kUsers);
}

TEST(Partition, ShardMapIsDeterministicAcrossIncarnations) {
  // Two maps fed the same placement sequence agree exactly — a restarted
  // coordinator recomputes routing with no directory service.
  ShardMap first(5);
  ShardMap second(5);
  for (int32_t i = 0; i < 300; ++i) {
    EXPECT_EQ(first.PlaceUser(), second.PlaceUser());
  }
}

}  // namespace
}  // namespace geacc::shard
