// Immutable point-in-time view of a served arrangement (the read side of
// the epoch-snapshot store, DESIGN.md §11).
//
// The service writer thread materializes one ServiceSnapshot per applied
// batch and publishes it behind an atomic shared_ptr; readers grab the
// pointer and answer every query — assignments, attendees, top-k
// candidates, stats — against frozen state, with no locks and no
// coordination with the writer. A snapshot therefore owns deep copies of
// everything it needs: attributes, capacities, active flags, the conflict
// graph, and the arrangement adjacency in both directions.
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

#include <cstdint>
#include <memory>
#include <vector>

#include "core/arrangement.h"
#include "core/attributes.h"
#include "core/conflict_graph.h"
#include "core/instance.h"
#include "core/similarity.h"
#include "core/types.h"

namespace geacc {

class DynamicInstance;
class IncrementalArranger;
class ThreadPool;

namespace svc {

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
  int64_t epoch() const { return epoch_; }
  // Highest submit ticket whose outcome is visible in this snapshot.
  int64_t applied_seq() const { return applied_seq_; }

  // ----- instance state (slot space) -----

  int dim() const { return dim_; }
  int event_slots() const { return static_cast<int>(event_active_.size()); }
  int user_slots() const { return static_cast<int>(user_active_.size()); }
  int num_active_events() const { return num_active_events_; }
  int num_active_users() const { return num_active_users_; }

  bool event_in_range(EventId v) const {
    return v >= 0 && v < event_slots();
  }
  bool user_in_range(UserId u) const { return u >= 0 && u < user_slots(); }
  bool event_active(EventId v) const { return event_active_[v]; }
  bool user_active(UserId u) const { return user_active_[u]; }
  int event_capacity(EventId v) const { return event_capacities_[v]; }
  int user_capacity(UserId u) const { return user_capacities_[u]; }

  double Similarity(EventId v, UserId u) const {
    return similarity_->Compute(event_attributes_.Row(v),
                                user_attributes_.Row(u), dim_);
  }

  const ConflictGraph& conflicts() const { return conflicts_; }

  // ----- arrangement state -----

  int64_t num_pairs() const { return num_pairs_; }
  double max_sum() const { return max_sum_; }

  // Events assigned to `u` (insertion order) / users attending `v`
  // (unordered). Ids must be in range; tombstoned slots yield empty lists.
  const std::vector<EventId>& AssignmentsOf(UserId u) const {
    return user_events_[u];
  }
  const std::vector<UserId>& AttendeesOf(EventId v) const {
    return event_users_[v];
  }

  // ----- derived reads -----

  // The `k` best candidate events for `u`: active, positive similarity,
  // not already assigned to `u`, ranked (similarity desc, id asc). `u`
  // must be in range; a tombstoned user yields an empty list.
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
  // assigned in ascending slot order; `dense_to_event`/`dense_to_user`
  // record the mapping when non-null.
  Instance ToDenseInstance(std::vector<EventId>* dense_to_event = nullptr,
                           std::vector<UserId>* dense_to_user = nullptr) const;
  Arrangement ToDenseArrangement() const;

 private:
  friend std::shared_ptr<const ServiceSnapshot> BuildSnapshot(
      const DynamicInstance& instance, const IncrementalArranger& arranger,
      int64_t applied_seq);

  ServiceSnapshot() = default;

  int64_t epoch_ = 0;
  int64_t applied_seq_ = 0;
  int dim_ = 0;

  AttributeMatrix event_attributes_;
  AttributeMatrix user_attributes_;
  std::vector<int> event_capacities_;
  std::vector<int> user_capacities_;
  std::vector<bool> event_active_;
  std::vector<bool> user_active_;
  int num_active_events_ = 0;
  int num_active_users_ = 0;
  ConflictGraph conflicts_;
  std::unique_ptr<SimilarityFunction> similarity_;

  std::vector<std::vector<EventId>> user_events_;
  std::vector<std::vector<UserId>> event_users_;
  int64_t num_pairs_ = 0;
  double max_sum_ = 0.0;
};

// Deep-copies the writer-side state into a new immutable snapshot. Called
// by the service writer thread only; the arranger must be quiescent for
// the duration of the call.
std::shared_ptr<const ServiceSnapshot> BuildSnapshot(
    const DynamicInstance& instance, const IncrementalArranger& arranger,
    int64_t applied_seq);

}  // namespace svc
}  // namespace geacc

#endif  // GEACC_SVC_SNAPSHOT_H_
