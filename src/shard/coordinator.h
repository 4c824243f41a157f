// Shard coordinator: one global arrangement service over N shard services
// (DESIGN.md §16).
//
// Topology: users are hash-partitioned across shards (shard/partition.h);
// the event table and the conflict graph are replicated to every shard by
// broadcasting event-side mutations in submission order, so a global event
// id is the same slot id on every shard. The coordinator owns the global
// id space and keeps a *mirror* DynamicInstance — the authoritative global
// metadata (capacities, active flags, conflicts, attributes for the dump
// path) that admission and validation run against without extra RPCs.
//
// Write path: Apply() validates a global-id mutation against the mirror,
// applies it there, then routes it — event-side mutations broadcast to all
// shards, user-side mutations translate global→local and go to the owner.
// Every routed mutation is appended to a per-shard sent log first, so an
// unknown-outcome transport failure is resolved by reconnecting, reading
// the shard's recovered epoch (its applied-mutation count, replayed from
// its WAL), and resending exactly the log suffix past it — the shard ends
// up with each mutation applied once whether or not the lost ack covered
// it.
//
// Epoch repair (the conflict-resolution pass): after a Barrier() (every
// shard's epoch has caught up to its sent count), the coordinator streams
// every shard's unfiltered positive-similarity candidate edges, translates
// local→global user ids, and runs algo/admission's AdmitInOrder over the
// union against the mirror's global seats and conflict graph — the same
// pass SortAllGreedySolver runs, which is what makes a sharded arrangement
// bit-identical to the single-node solve of the same instance. A candidate
// page with an unknown user or event, a non-finite or non-positive
// similarity, or a repeated (event, user) fails the pass before anything
// is installed. Each conflict rejection is charged to the blocking edge's
// owner (lowest-endpoint-home) shard and counts in cross_edge_rejects when
// that owner is not the candidate user's home shard. The admitted
// per-shard slices are pushed back via InstallArrangement (piggybacked on
// the shards' snapshot publication), so every shard serves its slice of
// the repaired global arrangement; installs are not WAL-logged — after a
// shard failover the next pass re-installs.
//
// Reads fan out and merge deterministically: GetAttendees unions every
// shard's local attendees (translated to global ids, sorted ascending);
// TopKEvents asks each shard that holds the user and merges the ranked
// lists with the (similarity desc, event asc) tie-break shared by the
// repair sort.
//
// Thread-safety: every public call serializes on one internal mutex (the
// shard clients are not thread-safe, and repair must not interleave with
// routing); Dispatch() makes the coordinator a WireServer dispatcher, so
// a fleet of wire clients sees a linearizable coordinator.

#ifndef GEACC_SHARD_COORDINATOR_H_
#define GEACC_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "core/similarity.h"
#include "core/types.h"
#include "dyn/dynamic_instance.h"
#include "dyn/mutation.h"
#include "exp/metrics.h"
#include "shard/partition.h"
#include "svc/client.h"
#include "svc/snapshot.h"
#include "svc/wire.h"

namespace geacc::shard {

struct CoordinatorOptions {
  // Users per kCandidates page in the repair pass.
  int candidate_page = 1024;

  // Total budget (per mutation) spent retrying kOverloaded submissions
  // before giving up.
  int overload_retry_ms = 2000;

  // How long to keep reattempting reconnect + resync after a shard
  // connection dies before declaring the pass failed.
  int reconnect_timeout_ms = 30000;

  // Barrier wait bound (a shard that cannot catch up within this is
  // stuck, not slow).
  int barrier_timeout_ms = 30000;

  // Keep the per-shard sent-mutation log for failover resend. Costs
  // O(history) memory, so long-lived serve deployments without failover
  // handling can turn it off (a lost connection then fails fast).
  bool track_mutation_log = true;
};

class ShardCoordinator {
 public:
  // Called when shard `shard`'s connection died; returns true once the
  // underlying client is reconnected and usable. The coordinator retries
  // the callback (with backoff) until reconnect_timeout_ms elapses.
  using ReconnectFn = std::function<bool(int shard)>;

  // `clients[i]` serves shard i and must outlive the coordinator. The
  // shards must be empty (no events, no users) and configured score-only
  // (RepairOptions::refill = false, no bootstrap solve) — the coordinator
  // is the sole writer and the only source of arrangement state.
  ShardCoordinator(std::vector<svc::ServiceClient*> clients, int dim,
                   std::unique_ptr<SimilarityFunction> similarity,
                   CoordinatorOptions options = {});

  void set_reconnect_fn(ReconnectFn fn) { reconnect_fn_ = std::move(fn); }

  int num_shards() const { return static_cast<int>(clients_.size()); }
  int dim() const { return mirror_.dim(); }

  // ----- write path (global id space) -----

  // Routes one mutation; empty string on success. `*assigned` receives
  // the new global id for adds (-1 otherwise).
  std::string Apply(const Mutation& mutation, int32_t* assigned = nullptr);

  // Seeds the topology from a dense instance: events in id order, then
  // users, then conflicts — so global ids equal the instance's own ids.
  std::string ApplyInstance(const Instance& instance);

  // Blocks until every shard's epoch reaches its sent-mutation count.
  std::string Barrier();

  // ----- reads (global id space) -----

  std::string GetAssignments(UserId user, std::vector<EventId>* out);
  std::string GetAttendees(EventId event, std::vector<UserId>* out);
  std::string TopKEvents(UserId user, int k,
                         std::vector<svc::ScoredEvent>* out);

  // Merges per-shard ranked lists into one top-k: (similarity desc, event
  // asc), duplicate events keep their first (best-ranked) entry. Exposed
  // for tests; the instance method uses it on the fan-out results.
  static std::vector<svc::ScoredEvent> MergeScoredLists(
      const std::vector<std::vector<svc::ScoredEvent>>& lists, int k);

  // ----- epoch repair -----

  // One full conflict-resolution pass: barrier, candidate collection,
  // global sort-all-greedy admission, per-shard install. Empty string on
  // success.
  std::string RepairPass();

  // Global MaxSum of the last completed pass.
  double global_max_sum() const { return global_max_sum_; }
  int64_t repair_epoch() const { return repair_epoch_; }

  // The last pass's admitted pairs, (global event, global user), in
  // admission order.
  const std::vector<std::pair<EventId, UserId>>& arrangement() const {
    return last_pairs_;
  }

  // ----- export / introspection -----

  // Writes the merged global state — the mirror's dense snapshot and the
  // last pass's arrangement over the same dense ids — in instance_io
  // format, auditable by geacc_audit.
  std::string DumpMerged(const std::string& instance_path,
                         const std::string& arrangement_path);

  // Aggregated coordinator stats: per-shard service counters + RPC
  // latency, repair counters, global MaxSum.
  svc::ShardTopologyStats Stats();

  // Serve the coordinator protocol — plug into WireServer:
  //   kMutate            parsed, validated against the mirror, routed
  //   kGetAssignments /
  //   kGetAttendees /
  //   kTopK              fan-out + deterministic merge
  //   kStats             global view (mirror shape + global MaxSum)
  //   kShardStats        full ShardTopologyStats breakdown
  //   kCandidates /
  //   kInstallArrangement  rejected — shard-only operations
  svc::WireResponse Dispatch(const svc::WireRequest& request);

 private:
  struct ShardRpc {
    int64_t requests = 0;
    int64_t errors = 0;  // server/protocol/network (overloads excluded)
    LatencyRecorder latency;
  };

  // Times `op` against shard `shard` and folds the outcome into that
  // shard's RPC stats.
  svc::RpcStatus Timed(int shard, const std::function<svc::RpcStatus()>& op);

  // Appends to the sent log and delivers, absorbing overload backpressure,
  // early-validation races, and transport failures (via RecoverShard).
  std::string SendMutation(int shard, const Mutation& local_mutation);

  // Delivers sent_log_[shard][index] once; used by SendMutation and the
  // resync path. Does NOT handle transport failures (returns the status).
  svc::RpcStatus DeliverLogged(int shard, size_t index, std::string* error);

  // Reconnect + resync one shard: reconnect_fn_ until live, read the
  // recovered epoch, resend the sent-log suffix past it.
  std::string RecoverShard(int shard);

  // Polls shard `shard` until its epoch >= target.
  std::string BarrierShard(int shard, int64_t target_epoch);

  std::string GetAssignmentsLocked(UserId user, std::vector<EventId>* out);
  std::string GetAttendeesLocked(EventId event, std::vector<UserId>* out);
  std::string TopKEventsLocked(UserId user, int k,
                               std::vector<svc::ScoredEvent>* out);
  std::string ApplyLocked(const Mutation& mutation, int32_t* assigned);
  std::string BarrierLocked();
  std::string RepairPassLocked();
  svc::ShardTopologyStats StatsLocked();

  std::vector<svc::ServiceClient*> clients_;
  CoordinatorOptions options_;
  ReconnectFn reconnect_fn_;

  std::mutex mu_;
  DynamicInstance mirror_;
  ShardMap map_;
  std::vector<std::vector<Mutation>> sent_log_;  // local id space
  std::vector<int64_t> sent_count_;              // == shard target epoch
  std::vector<ShardRpc> rpc_;
  int64_t ops_ = 0;  // accepted coordinator ops (Dispatch ticket space)

  // Last completed repair pass.
  std::vector<std::pair<EventId, UserId>> last_pairs_;
  double global_max_sum_ = 0.0;
  int64_t repair_epoch_ = 0;
  int64_t repair_candidates_ = 0;
  int64_t repair_admitted_ = 0;
  int64_t repair_rejected_capacity_ = 0;
  int64_t repair_rejected_conflict_ = 0;
  int64_t cross_edge_rejects_ = 0;
};

}  // namespace geacc::shard

#endif  // GEACC_SHARD_COORDINATOR_H_
