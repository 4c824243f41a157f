// Immutable point-in-time view of a served arrangement (the read side of
// the epoch-snapshot store, DESIGN.md §11).
//
// The service writer thread materializes one ServiceSnapshot per applied
// batch and publishes it (svc/service.h); readers take the pointer and
// answer every query — assignments, attendees, top-k candidates, stats —
// against frozen state, never waiting for the writer's next batch. A
// snapshot is the writer's own state, frozen: a DynamicInstance::Clone()
// of the instance (attributes, capacities, active flags, conflicts, slot
// annotations; the similarity object is shared, being immutable) and the
// arranger's exported adjacency in both directions plus its MaxSum bits.
// Every read forwards to those two.
//
// Ids are DynamicInstance slot ids (stable across the instance's whole
// lifetime, tombstones included), so an id a client obtained at epoch e
// stays meaningful at every later epoch.
//
// Thread-safety: all members are const after construction; share freely.
// Cost: building a snapshot is O((|V| + |U|) · d + |CF| + |M|), paid once
// per *batch* (not per mutation) by the writer thread.

#ifndef GEACC_SVC_SNAPSHOT_H_
#define GEACC_SVC_SNAPSHOT_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/arrangement.h"
#include "core/instance.h"
#include "core/types.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"

namespace geacc::svc {

// A candidate event for a user, ranked by the instance similarity.
struct ScoredEvent {
  EventId event = kInvalidEvent;
  double similarity = 0.0;

  bool operator==(const ScoredEvent&) const = default;
};

// One (user, event) scoring edge as streamed to the shard coordinator's
// epoch repair pass (src/shard/, DESIGN.md §16).
struct ScoredCandidate {
  UserId user = -1;
  EventId event = kInvalidEvent;
  double similarity = 0.0;

  bool operator==(const ScoredCandidate&) const = default;
};

class ServiceSnapshot {
 public:
  // ----- identity -----

  // Instance epoch (mutation count) this snapshot reflects.
  int64_t epoch() const { return instance_.epoch(); }
  // Highest submit ticket whose outcome is visible in this snapshot.
  int64_t applied_seq() const { return applied_seq_; }

  // ----- instance state (slot space) -----

  // The writer's instance as of this snapshot.
  const DynamicInstance& instance() const { return instance_; }

  int event_slots() const { return instance_.event_slots(); }
  int user_slots() const { return instance_.user_slots(); }
  int num_active_events() const { return instance_.num_active_events(); }
  int num_active_users() const { return instance_.num_active_users(); }

  bool event_in_range(EventId v) const {
    return v >= 0 && v < event_slots();
  }
  bool user_in_range(UserId u) const { return u >= 0 && u < user_slots(); }
  int user_capacity(UserId u) const { return instance_.user_capacity(u); }

  double Similarity(EventId v, UserId u) const {
    return instance_.Similarity(v, u);
  }

  // ----- arrangement state -----

  int64_t num_pairs() const { return num_pairs_; }
  double max_sum() const {
    return std::bit_cast<double>(arranger_.max_sum_bits);
  }

  // Events assigned to `u` (insertion order) / users attending `v`
  // (unordered). Ids must be in range; tombstoned slots yield empty lists.
  const std::vector<EventId>& AssignmentsOf(UserId u) const {
    return arranger_.user_events[u];
  }
  const std::vector<UserId>& AttendeesOf(EventId v) const {
    return arranger_.event_users[v];
  }

  // ----- derived reads -----

  // The `k` best candidate events for `u`: active, positive similarity,
  // not already assigned to `u`, ranked (similarity desc, id asc). Slot
  // availability is not consulted. `u` must be in range; a tombstoned
  // user yields an empty list.
  std::vector<ScoredEvent> TopKEvents(UserId u, int k) const;

  // TopKEvents for a batch of users, fanned out over `threads` pool lanes
  // (result order matches `users`; each id must be in range).
  std::vector<std::vector<ScoredEvent>> TopKEventsBatch(
      const std::vector<UserId>& users, int k, int threads) const;

  // Every positive-similarity edge between an active user in the slot
  // range [first_user, first_user + user_count) and an active event,
  // ordered (user asc, event asc). Unlike TopKEvents this does NOT filter
  // out pairs already assigned — the coordinator's repair pass re-derives
  // the global arrangement from scratch each epoch, so held pairs must
  // stay in the stream. The range is clamped to the slot space. Scoring
  // stops as soon as the page holds max_edges + 1 edges, so a result
  // longer than `max_edges` is a page cut short.
  std::vector<ScoredCandidate> Candidates(UserId first_user, int user_count,
                                          int max_edges) const;

  // Compacts the snapshot into a dense immutable Instance + Arrangement
  // over the active entities (checkpoint/export path). Dense ids are
  // assigned in ascending slot order; `map` records the mapping when
  // non-null (DynamicInstance::Snapshot).
  Instance ToDenseInstance(DynamicInstance::SnapshotMap* map = nullptr) const {
    return instance_.Snapshot(map);
  }
  Arrangement ToDenseArrangement() const;

 private:
  friend std::shared_ptr<const ServiceSnapshot> BuildSnapshot(
      const DynamicInstance& instance, const IncrementalArranger& arranger,
      int64_t applied_seq);

  ServiceSnapshot(int64_t applied_seq, DynamicInstance instance,
                  IncrementalArranger::ArrangerState arranger,
                  int64_t num_pairs)
      : applied_seq_(applied_seq),
        instance_(std::move(instance)),
        arranger_(std::move(arranger)),
        num_pairs_(num_pairs) {}

  int64_t applied_seq_;
  DynamicInstance instance_;
  IncrementalArranger::ArrangerState arranger_;
  int64_t num_pairs_;
};

// Freezes the writer-side state into a new immutable snapshot: a clone of
// `instance` and `arranger`'s exported state. Called by the service writer
// thread only; the arranger must be quiescent for the duration of the
// call.
std::shared_ptr<const ServiceSnapshot> BuildSnapshot(
    const DynamicInstance& instance, const IncrementalArranger& arranger,
    int64_t applied_seq);

}  // namespace geacc::svc

#endif  // GEACC_SVC_SNAPSHOT_H_
