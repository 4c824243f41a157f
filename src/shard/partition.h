// Hashed partitioning for the sharded arrangement service (DESIGN.md §16).
//
// Users are hash-partitioned: a user's home shard is splitmix64(global id)
// mod N, so placement is a pure function of the id — any coordinator
// incarnation (or a test) recomputes the same routing with no directory
// service. Events and the conflict graph are replicated to every shard
// (the event table is small next to the user table in the paper's EBSN
// setting), but each event still has a notional home from the same hash;
// a conflict edge {a, b} is owned by the *lowest* home shard among its
// endpoints. A conflict rejection in the repair pass is charged to the
// blocking edge's owner, and counts in the coordinator's
// cross_edge_rejects when that owner differs from the candidate user's
// home shard.
//
// ShardMap is the coordinator's id bookkeeping. Global user ids are the
// coordinator's own slot ids — identical to the ids a single-node
// deployment fed the same mutation sequence would assign, which is what
// makes the sharded-vs-single-node differential bit-exact. Local ids are
// the owning shard's slot ids: because the coordinator is the only writer
// and DynamicInstance hands out monotonically increasing, never-reused
// slots, the i-th user placed on a shard gets local id i — the map
// mirrors that deterministically instead of asking the shard.

#ifndef GEACC_SHARD_PARTITION_H_
#define GEACC_SHARD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace geacc::shard {

// SplitMix64 finalizer — cheap, well mixed, and stable across platforms
// and compilers (the partition map is part of the contract between
// coordinator restarts, so it must never depend on std::hash).
uint64_t Mix64(uint64_t x);

// Home shard of a global entity id. `num_shards` must be >= 1 and `id`
// non-negative.
int HomeShard(int32_t id, int num_shards);

// Owner of conflict edge {a, b}: the lowest home shard among endpoints.
int EdgeOwnerShard(EventId a, EventId b, int num_shards);

class ShardMap {
 public:
  explicit ShardMap(int num_shards);

  int num_shards() const { return num_shards_; }

  // Users placed so far == the next global user id.
  int32_t global_users() const {
    return static_cast<int32_t>(user_home_.size());
  }

  struct Placement {
    int shard = -1;
    int32_t local = -1;

    bool operator==(const Placement&) const = default;
  };

  // Registers the next global user id (== global_users()) on its home
  // shard and returns the placement. Must be called in global id order —
  // the whole point is replaying the shard's own slot assignment.
  Placement PlaceUser();

  // Placement of an existing global user id (in [0, global_users())).
  Placement UserHome(int32_t global) const;

  // Global id of shard-local user `local` on `shard`; -1 when no such
  // user was placed.
  int32_t ToGlobalUser(int shard, int32_t local) const;

  // Users placed on `shard` so far — by construction, exactly the shard's
  // user slot count (tombstones included).
  int32_t LocalUserCount(int shard) const;

 private:
  int num_shards_;
  std::vector<Placement> user_home_;                   // by global id
  std::vector<std::vector<int32_t>> local_to_global_;  // [shard][local]
};

}  // namespace geacc::shard

#endif  // GEACC_SHARD_PARTITION_H_
