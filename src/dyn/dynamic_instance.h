// A GEACC instance that mutates over time (the dynamic EBSN setting).
//
// core::Instance is deliberately immutable; DynamicInstance is the mutable
// counterpart the serving layer edits in place. Every mutation —
// AddUser/AddEvent/RemoveUser/RemoveEvent/AddConflict/Set*Capacity — bumps
// a monotonically increasing epoch counter, so any observer can name "the
// instance as of epoch e" and traces replay deterministically.
//
// Ids are slot indices and are never reused: removing an entity tombstones
// its slot (active flag off) instead of compacting, which keeps every id
// ever handed out stable across arbitrary mutation interleavings — the
// property Arrangement and the repair engine rely on. Snapshot() produces
// a dense immutable Instance over the active entities (plus the slot↔dense
// mapping) for consumers of the batch API: full re-solves, oracle
// comparisons, serialization.
//
// Complexity: every mutation is O(1) amortized except AddConflict
// (O(degree) duplicate check) and Snapshot() (O(active entities ×
// dimension + conflicts)). Thread-safety: single-writer — mutations and
// reads must be externally serialized; immutable Snapshot() results, and
// Clone()s that nobody mutates, may be shared freely across threads.

#ifndef GEACC_DYN_DYNAMIC_INSTANCE_H_
#define GEACC_DYN_DYNAMIC_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/attributes.h"
#include "core/conflict_graph.h"
#include "core/instance.h"
#include "core/similarity.h"
#include "core/time_window.h"
#include "core/types.h"
#include "dyn/mutation.h"

namespace geacc {

class DynamicInstance {
 public:
  // Starts empty: no events, no users, epoch 0.
  DynamicInstance(int dim, std::unique_ptr<SimilarityFunction> similarity);

  // Seeds slots 0..n-1 from an existing instance; epoch stays 0 (the seed
  // is the epoch-0 state, not a mutation).
  explicit DynamicInstance(const Instance& instance);

  // Move-only, like Instance; Clone() is the one way to copy.
  DynamicInstance(DynamicInstance&&) = default;
  DynamicInstance& operator=(DynamicInstance&&) = default;
  DynamicInstance& operator=(const DynamicInstance&) = delete;

  // An independent copy of the whole state, slot space and epoch
  // included. The similarity object is shared: it is immutable
  // (core/similarity.h). O(slots × dimension + conflicts).
  DynamicInstance Clone() const { return DynamicInstance(*this); }

  // ----- mutations (each bumps epoch) -----

  // Returns the new entity's slot id. Attributes must match dim();
  // capacity must be ≥ 1.
  UserId AddUser(const std::vector<double>& attributes, int capacity);
  EventId AddEvent(const std::vector<double>& attributes, int capacity);

  // The entity must be active; its slot is tombstoned, never reused.
  // RemoveEvent also drops the event's incident conflict pairs.
  void RemoveUser(UserId u);
  void RemoveEvent(EventId v);

  // Both events must be active and distinct; duplicates are a no-op apart
  // from the epoch bump.
  void AddConflict(EventId a, EventId b);

  // The entity must be active; capacity must be ≥ 1.
  void SetEventCapacity(EventId v, int capacity);
  void SetUserCapacity(UserId u, int capacity);

  // ----- time slots (slotted scheduling scenario, DESIGN.md §17) -----
  //
  // Every instance carries per-event time-slot annotations (kInvalidSlot =
  // unscheduled) and per-user availability bitmasks (default: available in
  // every slot). They constrain pair admission via PairAllowed() and are
  // mutated by kSetEventSlot / kSetUserAvailability.

  // Configures slot-overlap conflict derivation: when a table is attached,
  // SetEventSlot rewires the moved event's conflict edges from the
  // windows' overlap/travel rule (core/time_window.h) instead of leaving
  // the conflict graph untouched. Configuration, not a mutation: no epoch
  // bump. At most kMaxTimeSlots windows.
  void AttachSlotTable(std::vector<TimeWindow> windows, double speed_kmph);

  // The event must be active; slot must be in [0, num_time_slots()).
  // With a slot table attached, drops the event's conflict edges and
  // re-derives them against every other active slot-assigned event.
  void SetEventSlot(EventId v, SlotId slot);

  // The user must be active; mask must be in [0, 2^kMaxTimeSlots).
  void SetUserAvailability(UserId u, int64_t mask);

  // Applies a trace mutation. Returns the assigned slot id for adds,
  // kInvalidEvent/kInvalidUser-style -1 otherwise.
  int32_t Apply(const Mutation& mutation);

  // ----- observers -----

  // Number of mutations applied so far.
  int64_t epoch() const { return epoch_; }

  int dim() const { return dim_; }

  // Slot counts include tombstones; slot ids range over [0, *_slots()).
  int event_slots() const { return static_cast<int>(event_active_.size()); }
  int user_slots() const { return static_cast<int>(user_active_.size()); }
  int num_active_events() const { return num_active_events_; }
  int num_active_users() const { return num_active_users_; }

  bool event_active(EventId v) const {
    GEACC_DCHECK(v >= 0 && v < event_slots());
    return event_active_[v];
  }
  bool user_active(UserId u) const {
    GEACC_DCHECK(u >= 0 && u < user_slots());
    return user_active_[u];
  }

  // Capacity reads require an in-range slot id (active or tombstoned —
  // tombstones report their last capacity).
  int event_capacity(EventId v) const {
    GEACC_DCHECK(v >= 0 && v < event_slots());
    return event_capacities_[v];
  }
  int user_capacity(UserId u) const {
    GEACC_DCHECK(u >= 0 && u < user_slots());
    return user_capacities_[u];
  }

  double Similarity(EventId v, UserId u) const {
    return similarity_->Compute(event_attributes_.Row(v),
                                user_attributes_.Row(u), dim_);
  }

  // Slot-id space: the attached table's size, or kMaxTimeSlots when no
  // table is attached (annotations-only mode).
  int num_time_slots() const {
    return slot_windows_.empty() ? kMaxTimeSlots
                                 : static_cast<int>(slot_windows_.size());
  }

  // kInvalidSlot when unscheduled. In-range slot id required (tombstones
  // report their last value, like capacities).
  SlotId event_time_slot(EventId v) const {
    GEACC_DCHECK(v >= 0 && v < event_slots());
    return event_time_slots_[v];
  }
  int64_t user_availability(UserId u) const {
    GEACC_DCHECK(u >= 0 && u < user_slots());
    return user_availability_[u];
  }

  // False only when `v` is scheduled in a slot `u` is unavailable for;
  // unscheduled events admit everyone. Capacity/conflict/similarity
  // feasibility is the caller's concern.
  bool PairAllowed(EventId v, UserId u) const {
    const SlotId slot = event_time_slots_[v];
    if (slot < 0) return true;
    return (user_availability_[u] >> slot) & 1;
  }

  // True once any slot/availability mutation has been applied — i.e. when
  // consumers solving over Snapshot() must mask forbidden pairs
  // (core/masked_similarity.h) to stay feasible.
  bool has_slot_constraints() const { return has_slot_constraints_; }

  // Attribute matrices span all slots (tombstoned rows keep their last
  // value); k-NN indexes built over them must filter by *_active().
  const AttributeMatrix& event_attributes() const { return event_attributes_; }
  const AttributeMatrix& user_attributes() const { return user_attributes_; }
  const ConflictGraph& conflicts() const { return conflicts_; }
  const SimilarityFunction& similarity() const { return *similarity_; }

  // ----- snapshots -----

  // Slot id ↔ dense id translation for a Snapshot().
  struct SnapshotMap {
    std::vector<EventId> dense_to_event;  // dense id -> slot id
    std::vector<UserId> dense_to_user;
    std::vector<int> event_to_dense;  // slot id -> dense id, -1 if inactive
    std::vector<int> user_to_dense;
  };

  // Materializes the active entities as a dense immutable Instance.
  Instance Snapshot(SnapshotMap* map = nullptr) const;

  // ----- slot-level state (page-based checkpoints, DESIGN.md §14) -----
  //
  // Unlike Snapshot(), SlotState preserves the slot space verbatim —
  // tombstones, their last attributes/capacities, and the epoch — so a
  // restored instance is indistinguishable from the original: every slot
  // id resolves identically and index builds over the (full) attribute
  // matrices reproduce bit-identical geometry.
  struct SlotState {
    int dim = 0;
    int64_t epoch = 0;
    AttributeMatrix event_attributes{0, 0};
    AttributeMatrix user_attributes{0, 0};
    std::vector<int> event_capacities;
    std::vector<int> user_capacities;
    std::vector<uint8_t> event_active;  // 0/1 per slot
    std::vector<uint8_t> user_active;
    std::vector<std::pair<EventId, EventId>> conflicts;  // a < b, sorted
    // Time-slot annotations. Empty vectors mean "all defaults" (no event
    // scheduled, every user fully available) so pre-slot states restore
    // unchanged; otherwise sizes must match the entity slot counts.
    std::vector<SlotId> event_time_slots;
    std::vector<int64_t> user_availability;
  };

  SlotState ExportSlotState() const;

  // Reconstructs an instance from an exported (or deserialized) state.
  // Returns nullopt and sets `error` if the state is internally
  // inconsistent (mismatched sizes, out-of-range or tombstoned conflict
  // endpoints).
  static std::optional<DynamicInstance> FromSlotState(
      SlotState state, std::unique_ptr<SimilarityFunction> similarity,
      std::string* error);

  // One-line summary: epoch, active/slot counts, conflicts.
  std::string DebugString() const;

 private:
  DynamicInstance(const DynamicInstance&) = default;

  int dim_;
  std::shared_ptr<const SimilarityFunction> similarity_;
  int64_t epoch_ = 0;

  AttributeMatrix event_attributes_;
  AttributeMatrix user_attributes_;
  std::vector<int> event_capacities_;
  std::vector<int> user_capacities_;
  std::vector<bool> event_active_;
  std::vector<bool> user_active_;
  int num_active_events_ = 0;
  int num_active_users_ = 0;
  ConflictGraph conflicts_;

  // Time-slot annotations (one entry per entity slot, like capacities).
  std::vector<SlotId> event_time_slots_;
  std::vector<int64_t> user_availability_;
  bool has_slot_constraints_ = false;
  // Optional slot table for conflict derivation (empty = detached).
  std::vector<TimeWindow> slot_windows_;
  double slot_speed_kmph_ = 0.0;
};

}  // namespace geacc

#endif  // GEACC_DYN_DYNAMIC_INSTANCE_H_
