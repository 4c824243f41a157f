// Keeps an arrangement feasible and near-optimal while its instance
// mutates, without paying a full re-solve per update.
//
// The engine owns mutation application: Apply(mutation) forwards the edit
// to the DynamicInstance, then repairs only the affected neighborhood —
// evict pairs the mutation made infeasible, then greedily refill freed
// capacity from incremental nearest-neighbor cursors over a
// LinearScanIndex, whose O(1) rebuild after instance growth suits heavy
// churn. Refill enumerates candidates in (similarity desc, id asc) order,
// so an arrival-only trace reproduces OnlineArranger's arrangement exactly
// (see online_greedy_solver.h). A refill admits a pair when both sides
// have a seat (capacity minus current load) and algo/admission's
// FirstConflict finds no conflict with the user's held events.
//
// Two knobs bound the work and the quality loss:
//
//  * repair_budget — maximum cursor steps spent repairing one mutation;
//    when exhausted the repair stops early (capacity may stay unserved
//    until a later repair or full re-solve touches it).
//  * drift_threshold — each repair accumulates the *displaced* value it
//    failed to win back locally (evictions caused by new conflicts or
//    capacity cuts, net of refill gains; value lost to entity removal is
//    unavoidable and not counted). When the accumulated drift exceeds
//    threshold × current MaxSum, the engine re-solves the whole snapshot
//    with the fallback solver and resets the drift.
//
// The arranger assumes every instance mutation flows through Apply();
// out-of-band edits to the DynamicInstance CHECK-fail at the next Apply().
//
// Complexity: Apply() is O(evictions + refill cursor steps) — bounded by
// repair_budget when set — except when drift triggers the fallback,
// which costs one full solve over the current snapshot. Quality: between
// full resolves the arrangement is always feasible but may drift below
// the fallback solver's ratio; the drift accounting bounds the locally
// displaced (not removed) value to drift_threshold × MaxSum.
// Thread-safety: single-writer, same as DynamicInstance — one thread
// drives Apply()/FullResolve(); readers of arrangement()/stats() must be
// externally serialized with it. Counters reported: dyn.mutations,
// dyn.assignment_changes, dyn.evictions, dyn.refill_steps,
// dyn.budget_exhausted, dyn.full_resolves (timer dyn.full_resolve).

#ifndef GEACC_DYN_INCREMENTAL_ARRANGER_H_
#define GEACC_DYN_INCREMENTAL_ARRANGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/arrangement.h"
#include "core/solver.h"
#include "dyn/dynamic_instance.h"
#include "dyn/mutation.h"
#include "index/knn_index.h"

namespace geacc {

struct RepairOptions {
  // Max cursor steps per Apply(); 0 = unlimited.
  int64_t repair_budget = 0;

  // Full re-solve when drift > drift_threshold × max(1, MaxSum);
  // ≤ 0 disables the fallback entirely.
  double drift_threshold = 0.1;

  // Registry name of the full re-solve fallback (see algo/solvers.h).
  std::string fallback_solver = "greedy";

  // Thread budget handed to the fallback solver's SolverOptions. Solvers
  // are bit-identical across thread counts (DESIGN.md §10,
  // tests/parallel_determinism_test), so this trades full-resolve latency
  // only — repair results never depend on it.
  int threads = 1;

  // When false the arranger never *adds* pairs on its own: repairs evict
  // whatever a mutation made infeasible but skip the greedy refill and the
  // drift-triggered full re-solve. Shard replicas run in this mode — their
  // arrangement is owned by the coordinator's epoch repair pass
  // (src/shard/, DESIGN.md §16) and installed via InstallArrangement();
  // autonomous refill would diverge from the global admission order.
  bool refill = true;
};

// Cumulative counters; repair latencies are per-Apply.
struct RepairStats {
  int64_t mutations = 0;
  int64_t assignments_added = 0;    // includes full-resolve rebuilds
  int64_t assignments_removed = 0;
  int64_t cursor_steps = 0;
  int64_t budget_exhausted = 0;  // fills cut short by repair_budget
  int64_t full_resolves = 0;
  double last_repair_seconds = 0.0;
  double total_repair_seconds = 0.0;
};

class IncrementalArranger {
 public:
  // `instance` must outlive the arranger (and must not move). The initial
  // arrangement is empty; call FullResolve() to bootstrap from the
  // fallback solver when the instance starts non-empty.
  explicit IncrementalArranger(DynamicInstance* instance,
                               RepairOptions options = {});

  // Applies the mutation to the instance, then repairs locally. Returns
  // the number of arrangement changes (adds + removes) performed.
  int64_t Apply(const Mutation& mutation);

  // Drops the maintained arrangement and re-solves the active snapshot
  // with the fallback solver; resets drift.
  void FullResolve();

  const Arrangement& arrangement() const { return arrangement_; }
  const DynamicInstance& instance() const { return *instance_; }

  // Incrementally maintained Σ sim over matched pairs.
  double max_sum() const { return max_sum_; }
  // From-scratch recomputation, for validation against max_sum().
  double RecomputeMaxSum() const;

  double drift() const { return drift_; }
  const RepairStats& stats() const { return stats_; }

  // Users currently matched to `v`, unordered.
  const std::vector<UserId>& UsersOf(EventId v) const {
    return event_users_[v];
  }

  // Empty string when the maintained arrangement is feasible for the live
  // instance: capacities respected, only active entities matched, positive
  // similarity, no conflicting pair per user, reverse adjacency in sync.
  std::string Validate() const;

  // ----- checkpoint state (svc/paged_checkpoint, DESIGN.md §14) -----
  //
  // Captures the repair-relevant state exactly: both adjacency views in
  // their live insertion order (repair handlers iterate them, so order is
  // behavioral) and the accumulated floats as bit patterns (so a restored
  // arranger continues bit-identically to one that never stopped).
  struct ArrangerState {
    std::vector<std::vector<EventId>> user_events;  // per user, in order
    std::vector<std::vector<UserId>> event_users;   // per event, in order
    uint64_t max_sum_bits = 0;  // max_sum() as IEEE-754 bits
    uint64_t drift_bits = 0;    // drift() as IEEE-754 bits
  };

  ArrangerState ExportState() const;

  // Replaces the maintained arrangement with `state`, which must describe
  // a feasible arrangement for the *current* instance (the caller restores
  // the instance first). Returns "" on success; on failure the arranger is
  // left empty and the caller should fall back to a full re-solve.
  std::string RestoreState(const ArrangerState& state);

  // Replaces the maintained arrangement with exactly `pairs` (admission
  // order preserved per user and per event) and adopts `max_sum_bits` as
  // the maintained sum. The shard write path lands coordinator-computed
  // arrangements through this: the pairs must be feasible for the current
  // instance and the sum must match a recomputation to double precision.
  // Returns "" on success; on failure the arranger is left empty.
  std::string InstallArrangement(
      const std::vector<std::pair<EventId, UserId>>& pairs,
      uint64_t max_sum_bits);

 private:
  // RestoreState body; on failure the arrangement may be partial — the
  // public wrapper resets to empty before surfacing the error.
  std::string RestoreStateImpl(const ArrangerState& state);
  // Drops all assignments, zeroes MaxSum and drift, and adopts the live
  // instance epoch.
  void ResetToEmpty();

  // Grows the per-slot mirrors after the instance added a slot.
  void GrowToInstance();
  // Rebuilds a side's linear-scan index when the instance outgrew it.
  void RefreshIndexes();

  void AddPair(EventId v, UserId u, double similarity);
  void RemovePair(EventId v, UserId u);

  // Seats left: capacity − load, 0 for a removed entity.
  int EventSeats(EventId v) const {
    return instance_->event_active(v)
               ? instance_->event_capacity(v) - arrangement_.EventLoad(v)
               : 0;
  }
  int UserSeats(UserId u) const {
    return instance_->user_active(u)
               ? instance_->user_capacity(u) - arrangement_.UserLoad(u)
               : 0;
  }
  // Whether a refill may add {v, u}: both have a seat, u's availability
  // allows v's slot, u does not hold v, and v conflicts with nothing u
  // holds.
  bool CanAdmit(EventId v, UserId u) const;

  // Greedy refills from NN cursors; consume steps_left_.
  void FillUser(UserId u);
  void FillEvent(EventId v);

  // Per-kind repair handlers (the mutation has already been validated and
  // applied to the instance where noted).
  void ApplyAddUser(const Mutation& mutation);
  void ApplyAddEvent(const Mutation& mutation);
  void ApplyRemoveUser(const Mutation& mutation);
  void ApplyRemoveEvent(const Mutation& mutation);
  void ApplyAddConflict(const Mutation& mutation);
  void ApplySetEventCapacity(const Mutation& mutation);
  void ApplySetUserCapacity(const Mutation& mutation);
  void ApplySetEventSlot(const Mutation& mutation);
  void ApplySetUserAvailability(const Mutation& mutation);

  void MaybeFullResolve();

  DynamicInstance* instance_;
  RepairOptions options_;
  std::unique_ptr<Solver> fallback_;

  Arrangement arrangement_;
  std::vector<std::vector<UserId>> event_users_;  // reverse adjacency

  std::unique_ptr<KnnIndex> event_index_;  // over event attributes
  std::unique_ptr<KnnIndex> user_index_;   // over user attributes

  double max_sum_ = 0.0;
  double drift_ = 0.0;
  int64_t steps_left_ = 0;  // budget for the Apply() in flight
  int64_t observed_epoch_ = 0;
  RepairStats stats_;
};

}  // namespace geacc

#endif  // GEACC_DYN_INCREMENTAL_ARRANGER_H_
