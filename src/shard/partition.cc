#include "shard/partition.h"

#include "util/check.h"

namespace geacc::shard {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int HomeShard(int32_t id, int num_shards) {
  GEACC_DCHECK(id >= 0);
  GEACC_DCHECK(num_shards >= 1);
  return static_cast<int>(Mix64(static_cast<uint64_t>(id)) %
                          static_cast<uint64_t>(num_shards));
}

int EdgeOwnerShard(EventId a, EventId b, int num_shards) {
  const int home_a = HomeShard(a, num_shards);
  const int home_b = HomeShard(b, num_shards);
  return home_a < home_b ? home_a : home_b;
}

ShardMap::ShardMap(int num_shards)
    : num_shards_(num_shards), local_to_global_(num_shards) {
  GEACC_CHECK(num_shards >= 1);
}

ShardMap::Placement ShardMap::PlaceUser() {
  const int32_t global = global_users();
  Placement placement;
  placement.shard = HomeShard(global, num_shards_);
  placement.local =
      static_cast<int32_t>(local_to_global_[placement.shard].size());
  local_to_global_[placement.shard].push_back(global);
  user_home_.push_back(placement);
  return placement;
}

ShardMap::Placement ShardMap::UserHome(int32_t global) const {
  GEACC_CHECK(global >= 0 && global < global_users());
  return user_home_[global];
}

int32_t ShardMap::ToGlobalUser(int shard, int32_t local) const {
  GEACC_CHECK(shard >= 0 && shard < num_shards_);
  if (local < 0 ||
      local >= static_cast<int32_t>(local_to_global_[shard].size())) {
    return -1;
  }
  return local_to_global_[shard][local];
}

int32_t ShardMap::LocalUserCount(int shard) const {
  GEACC_CHECK(shard >= 0 && shard < num_shards_);
  return static_cast<int32_t>(local_to_global_[shard].size());
}

}  // namespace geacc::shard
