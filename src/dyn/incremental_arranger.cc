#include "dyn/incremental_arranger.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "algo/admission.h"
#include "algo/solvers.h"
#include "core/masked_similarity.h"
#include "index/linear_scan_index.h"
#include "obs/stats.h"
#include "util/check.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace geacc {

IncrementalArranger::IncrementalArranger(DynamicInstance* instance,
                                         RepairOptions options)
    : instance_(instance), options_(std::move(options)) {
  GEACC_CHECK(instance_ != nullptr);
  SolverOptions solver_options;
  solver_options.threads = options_.threads;
  const std::string options_error = ValidateSolverOptions(solver_options);
  GEACC_CHECK(options_error.empty()) << options_error;
  fallback_ = CreateSolver(options_.fallback_solver, solver_options);
  GEACC_CHECK(fallback_ != nullptr)
      << "unknown fallback_solver '" << options_.fallback_solver << "'";
  observed_epoch_ = instance_->epoch();
  arrangement_ = Arrangement(instance_->event_slots(),
                             instance_->user_slots());
  event_users_.resize(instance_->event_slots());
  RefreshIndexes();
}

int64_t IncrementalArranger::Apply(const Mutation& mutation) {
  WallTimer timer;
  GEACC_CHECK_EQ(instance_->epoch(), observed_epoch_)
      << "instance mutated outside Apply(); the arranger is stale";
  const int64_t changes_before =
      stats_.assignments_added + stats_.assignments_removed;
  steps_left_ = options_.repair_budget > 0
                    ? options_.repair_budget
                    : std::numeric_limits<int64_t>::max();

  switch (mutation.kind) {
    case Mutation::Kind::kAddUser:
      ApplyAddUser(mutation);
      break;
    case Mutation::Kind::kAddEvent:
      ApplyAddEvent(mutation);
      break;
    case Mutation::Kind::kRemoveUser:
      ApplyRemoveUser(mutation);
      break;
    case Mutation::Kind::kRemoveEvent:
      ApplyRemoveEvent(mutation);
      break;
    case Mutation::Kind::kAddConflict:
      ApplyAddConflict(mutation);
      break;
    case Mutation::Kind::kSetEventCapacity:
      ApplySetEventCapacity(mutation);
      break;
    case Mutation::Kind::kSetUserCapacity:
      ApplySetUserCapacity(mutation);
      break;
    case Mutation::Kind::kSetEventSlot:
      ApplySetEventSlot(mutation);
      break;
    case Mutation::Kind::kSetUserAvailability:
      ApplySetUserAvailability(mutation);
      break;
  }

  observed_epoch_ = instance_->epoch();
  ++stats_.mutations;
  MaybeFullResolve();
  stats_.last_repair_seconds = timer.Seconds();
  stats_.total_repair_seconds += stats_.last_repair_seconds;
  const int64_t changes = stats_.assignments_added +
                          stats_.assignments_removed - changes_before;
  GEACC_STATS_ADD("dyn.mutations", 1);
  GEACC_STATS_ADD("dyn.assignment_changes", changes);
  return changes;
}

void IncrementalArranger::GrowToInstance() {
  arrangement_.Resize(instance_->event_slots(), instance_->user_slots());
  event_users_.resize(instance_->event_slots());
}

void IncrementalArranger::RefreshIndexes() {
  if (event_index_ == nullptr ||
      event_index_->num_points() != instance_->event_slots()) {
    event_index_ = std::make_unique<LinearScanIndex>(
        instance_->event_attributes(), instance_->similarity());
  }
  if (user_index_ == nullptr ||
      user_index_->num_points() != instance_->user_slots()) {
    user_index_ = std::make_unique<LinearScanIndex>(
        instance_->user_attributes(), instance_->similarity());
  }
}

void IncrementalArranger::AddPair(EventId v, UserId u, double similarity) {
  // Always-on guards (not DCHECKs): this is the single choke point through
  // which every untrusted mutation source — WAL replay, the service write
  // path, trace files — lands pairs in the arrangement, and a duplicate
  // Add would silently double-count MaxSum in Release builds.
  GEACC_CHECK(v >= 0 && v < arrangement_.num_events())
      << "AddPair: event " << v << " out of range";
  GEACC_CHECK(u >= 0 && u < arrangement_.num_users())
      << "AddPair: user " << u << " out of range";
  GEACC_CHECK(!arrangement_.Contains(v, u))
      << "AddPair: pair {" << v << "," << u << "} already assigned";
  arrangement_.Add(v, u);
  event_users_[v].push_back(u);
  max_sum_ += similarity;
  ++stats_.assignments_added;
}

void IncrementalArranger::RemovePair(EventId v, UserId u) {
  arrangement_.Remove(v, u);
  auto& users = event_users_[v];
  users.erase(std::find(users.begin(), users.end(), u));
  max_sum_ -= instance_->Similarity(v, u);
  ++stats_.assignments_removed;
  GEACC_STATS_ADD("dyn.evictions", 1);
}

bool IncrementalArranger::CanAdmit(EventId v, UserId u) const {
  return EventSeats(v) > 0 && UserSeats(u) > 0 &&
         instance_->PairAllowed(v, u) && !arrangement_.Contains(v, u) &&
         FirstConflict(instance_->conflicts(), arrangement_.EventsOf(u), v) ==
             kInvalidEvent;
}

void IncrementalArranger::FillUser(UserId u) {
  if (!options_.refill) return;
  if (UserSeats(u) <= 0) return;
  RefreshIndexes();
  const std::unique_ptr<NnCursor> cursor =
      event_index_->CreateCursor(instance_->user_attributes().Row(u));
  while (UserSeats(u) > 0) {
    if (steps_left_ <= 0) {
      ++stats_.budget_exhausted;
      GEACC_STATS_ADD("dyn.budget_exhausted", 1);
      return;
    }
    --steps_left_;
    ++stats_.cursor_steps;
    GEACC_STATS_ADD("dyn.refill_steps", 1);
    const auto next = cursor->Next();
    if (!next || next->similarity <= 0.0) return;
    const EventId v = next->id;
    if (CanAdmit(v, u)) AddPair(v, u, next->similarity);
  }
}

void IncrementalArranger::FillEvent(EventId v) {
  if (!options_.refill) return;
  if (EventSeats(v) <= 0) return;
  RefreshIndexes();
  const std::unique_ptr<NnCursor> cursor =
      user_index_->CreateCursor(instance_->event_attributes().Row(v));
  while (EventSeats(v) > 0) {
    if (steps_left_ <= 0) {
      ++stats_.budget_exhausted;
      GEACC_STATS_ADD("dyn.budget_exhausted", 1);
      return;
    }
    --steps_left_;
    ++stats_.cursor_steps;
    GEACC_STATS_ADD("dyn.refill_steps", 1);
    const auto next = cursor->Next();
    if (!next || next->similarity <= 0.0) return;
    const UserId u = next->id;
    if (CanAdmit(v, u)) AddPair(v, u, next->similarity);
  }
}

void IncrementalArranger::ApplyAddUser(const Mutation& mutation) {
  const UserId u = instance_->AddUser(mutation.attributes, mutation.capacity);
  GrowToInstance();
  FillUser(u);
}

void IncrementalArranger::ApplyAddEvent(const Mutation& mutation) {
  const EventId v =
      instance_->AddEvent(mutation.attributes, mutation.capacity);
  GrowToInstance();
  FillEvent(v);
}

void IncrementalArranger::ApplyRemoveUser(const Mutation& mutation) {
  const UserId u = mutation.id;
  const std::vector<EventId> held = arrangement_.EventsOf(u);
  for (const EventId v : held) RemovePair(v, u);
  instance_->RemoveUser(u);
  // Freed seats may suit other users; the lost pair value itself is
  // unavoidable, so it does not count toward drift.
  for (const EventId v : held) FillEvent(v);
}

void IncrementalArranger::ApplyRemoveEvent(const Mutation& mutation) {
  const EventId v = mutation.id;
  const std::vector<UserId> held = event_users_[v];
  for (const UserId u : held) RemovePair(v, u);
  instance_->RemoveEvent(v);
  for (const UserId u : held) FillUser(u);
}

void IncrementalArranger::ApplyAddConflict(const Mutation& mutation) {
  const EventId a = mutation.id;
  const EventId b = mutation.other;
  instance_->AddConflict(a, b);
  // Users holding both sides must drop one; keep the more similar event
  // (ties keep the smaller id) and try to win the loss back elsewhere.
  std::vector<UserId> both;
  for (const UserId u : event_users_[a]) {
    if (arrangement_.Contains(b, u)) both.push_back(u);
  }
  std::sort(both.begin(), both.end());
  for (const UserId u : both) {
    const double sim_a = instance_->Similarity(a, u);
    const double sim_b = instance_->Similarity(b, u);
    const EventId evict =
        (sim_a < sim_b || (sim_a == sim_b && a > b)) ? a : b;
    const double before = max_sum_;
    RemovePair(evict, u);
    FillUser(u);
    drift_ += std::max(0.0, before - max_sum_);
  }
}

void IncrementalArranger::ApplySetEventCapacity(const Mutation& mutation) {
  const EventId v = mutation.id;
  instance_->SetEventCapacity(v, mutation.capacity);
  const int load = arrangement_.EventLoad(v);
  if (mutation.capacity >= load) {
    FillEvent(v);
    return;
  }
  // Capacity cut below the current roster: evict the least similar users
  // (ties evict the larger id) and try to reseat them.
  std::vector<UserId> roster = event_users_[v];
  std::sort(roster.begin(), roster.end(), [&](UserId x, UserId y) {
    const double sx = instance_->Similarity(v, x);
    const double sy = instance_->Similarity(v, y);
    if (sx != sy) return sx < sy;
    return x > y;
  });
  const int to_evict = load - mutation.capacity;
  const double before = max_sum_;
  for (int i = 0; i < to_evict; ++i) RemovePair(v, roster[i]);
  for (int i = 0; i < to_evict; ++i) FillUser(roster[i]);
  drift_ += std::max(0.0, before - max_sum_);
}

void IncrementalArranger::ApplySetUserCapacity(const Mutation& mutation) {
  const UserId u = mutation.id;
  instance_->SetUserCapacity(u, mutation.capacity);
  const int load = arrangement_.UserLoad(u);
  if (mutation.capacity >= load) {
    FillUser(u);
    return;
  }
  std::vector<EventId> held = arrangement_.EventsOf(u);
  std::sort(held.begin(), held.end(), [&](EventId x, EventId y) {
    const double sx = instance_->Similarity(x, u);
    const double sy = instance_->Similarity(y, u);
    if (sx != sy) return sx < sy;
    return x > y;
  });
  const int to_evict = load - mutation.capacity;
  const double before = max_sum_;
  for (int i = 0; i < to_evict; ++i) RemovePair(held[i], u);
  for (int i = 0; i < to_evict; ++i) FillEvent(held[i]);
  drift_ += std::max(0.0, before - max_sum_);
}

void IncrementalArranger::ApplySetEventSlot(const Mutation& mutation) {
  const EventId v = mutation.id;
  instance_->SetEventSlot(v, mutation.other);
  // Two eviction causes, handled in id order for determinism: users now
  // unavailable in the event's slot, and users whose other events conflict
  // with the rewired edges (keep the more similar side, ties keep the
  // smaller id — the kAddConflict rule).
  std::vector<UserId> roster = event_users_[v];
  std::sort(roster.begin(), roster.end());
  const double before = max_sum_;
  std::vector<UserId> displaced;
  std::vector<EventId> freed;
  for (const UserId u : roster) {
    if (!instance_->PairAllowed(v, u)) {
      RemovePair(v, u);
      displaced.push_back(u);
      continue;
    }
    // The rewiring can put v at odds with several of u's other events;
    // resolve pairwise until u's set is conflict-free again or v itself
    // got evicted.
    bool holds_v = true;
    bool any_evicted = false;
    while (holds_v) {
      const EventId blocking = FirstConflict(
          instance_->conflicts(), arrangement_.EventsOf(u), v);
      if (blocking == kInvalidEvent) break;
      const double sim_v = instance_->Similarity(v, u);
      const double sim_w = instance_->Similarity(blocking, u);
      const EventId evict =
          (sim_v < sim_w || (sim_v == sim_w && v > blocking)) ? v : blocking;
      RemovePair(evict, u);
      any_evicted = true;
      if (evict == v) {
        holds_v = false;
      } else {
        freed.push_back(evict);
      }
    }
    if (any_evicted) displaced.push_back(u);
  }
  for (const UserId u : displaced) FillUser(u);
  FillEvent(v);
  for (const EventId w : freed) FillEvent(w);
  drift_ += std::max(0.0, before - max_sum_);
}

void IncrementalArranger::ApplySetUserAvailability(const Mutation& mutation) {
  const UserId u = mutation.id;
  instance_->SetUserAvailability(u, mutation.mask);
  std::vector<EventId> held = arrangement_.EventsOf(u);
  std::sort(held.begin(), held.end());
  const double before = max_sum_;
  std::vector<EventId> freed;
  for (const EventId v : held) {
    if (instance_->PairAllowed(v, u)) continue;
    RemovePair(v, u);
    freed.push_back(v);
  }
  FillUser(u);
  for (const EventId v : freed) FillEvent(v);
  drift_ += std::max(0.0, before - max_sum_);
}

void IncrementalArranger::MaybeFullResolve() {
  if (!options_.refill) return;
  if (options_.drift_threshold <= 0.0) return;
  if (drift_ <= options_.drift_threshold * std::max(1.0, max_sum_)) return;
  FullResolve();
}

void IncrementalArranger::FullResolve() {
  GEACC_PHASE_TIMER("dyn.full_resolve");
  GEACC_STATS_ADD("dyn.full_resolves", 1);
  DynamicInstance::SnapshotMap map;
  Instance snapshot = instance_->Snapshot(&map);
  if (instance_->has_slot_constraints()) {
    // Snapshot() is slot-agnostic; mask slot-forbidden pairs to sim 0 so
    // the slot-blind fallback solver cannot admit them
    // (core/masked_similarity.h).
    std::vector<uint8_t> allowed(
        static_cast<size_t>(snapshot.num_events()) * snapshot.num_users(), 1);
    for (int dense_v = 0; dense_v < snapshot.num_events(); ++dense_v) {
      const EventId v = map.dense_to_event[dense_v];
      for (int dense_u = 0; dense_u < snapshot.num_users(); ++dense_u) {
        if (!instance_->PairAllowed(v, map.dense_to_user[dense_u])) {
          allowed[static_cast<size_t>(dense_v) * snapshot.num_users() +
                  dense_u] = 0;
        }
      }
    }
    snapshot = MaskInstance(snapshot, allowed);
  }
  const SolveResult result = fallback_->Solve(snapshot);

  arrangement_ = Arrangement(instance_->event_slots(),
                             instance_->user_slots());
  event_users_.assign(instance_->event_slots(), {});
  max_sum_ = 0.0;
  for (const auto& [dense_v, dense_u] : result.arrangement.SortedPairs()) {
    const EventId v = map.dense_to_event[dense_v];
    const UserId u = map.dense_to_user[dense_u];
    AddPair(v, u, instance_->Similarity(v, u));
  }
  drift_ = 0.0;
  ++stats_.full_resolves;
}

double IncrementalArranger::RecomputeMaxSum() const {
  double sum = 0.0;
  for (UserId u = 0; u < instance_->user_slots(); ++u) {
    for (const EventId v : arrangement_.EventsOf(u)) {
      sum += instance_->Similarity(v, u);
    }
  }
  return sum;
}

IncrementalArranger::ArrangerState IncrementalArranger::ExportState() const {
  ArrangerState state;
  state.user_events.resize(instance_->user_slots());
  for (UserId u = 0; u < instance_->user_slots(); ++u) {
    state.user_events[u] = arrangement_.EventsOf(u);
  }
  state.event_users = event_users_;
  std::memcpy(&state.max_sum_bits, &max_sum_, sizeof(max_sum_));
  std::memcpy(&state.drift_bits, &drift_, sizeof(drift_));
  return state;
}

void IncrementalArranger::ResetToEmpty() {
  const int events = instance_->event_slots();
  const int users = instance_->user_slots();
  arrangement_ = Arrangement(events, users);
  event_users_.assign(events, {});
  max_sum_ = 0.0;
  drift_ = 0.0;
  observed_epoch_ = instance_->epoch();
}

std::string IncrementalArranger::InstallArrangement(
    const std::vector<std::pair<EventId, UserId>>& pairs,
    uint64_t max_sum_bits) {
  // Reuse the RestoreState machinery: rebuild both adjacency views in the
  // given admission order so a restart replays to the same internal state.
  ArrangerState state;
  state.user_events.resize(instance_->user_slots());
  state.event_users.resize(instance_->event_slots());
  for (const auto& [v, u] : pairs) {
    if (v < 0 || v >= instance_->event_slots() || u < 0 ||
        u >= instance_->user_slots()) {
      ResetToEmpty();
      return StrFormat("installed pair {%d,%d} out of range", v, u);
    }
    state.user_events[u].push_back(v);
    state.event_users[v].push_back(u);
  }
  state.max_sum_bits = max_sum_bits;
  state.drift_bits = 0;
  return RestoreState(state);
}

std::string IncrementalArranger::RestoreState(const ArrangerState& state) {
  const std::string error = RestoreStateImpl(state);
  // Any failure leaves a sane (empty) arranger behind; the caller falls
  // back to a full re-solve.
  if (!error.empty()) ResetToEmpty();
  return error;
}

std::string IncrementalArranger::RestoreStateImpl(const ArrangerState& state) {
  const int events = instance_->event_slots();
  const int users = instance_->user_slots();
  ResetToEmpty();

  if (static_cast<int>(state.user_events.size()) != users ||
      static_cast<int>(state.event_users.size()) != events) {
    return "arranger state sized for a different slot space";
  }
  for (UserId u = 0; u < users; ++u) {
    for (const EventId v : state.user_events[u]) {
      if (v < 0 || v >= events) {
        return StrFormat("restored pair {%d,%d} out of range", v, u);
      }
      if (arrangement_.Contains(v, u)) {
        return StrFormat("restored pair {%d,%d} duplicated", v, u);
      }
      arrangement_.Add(v, u);
    }
  }
  // The per-event lists must be a reordering of the pairs just added —
  // verify per event (sorted compare against the authoritative side).
  for (EventId v = 0; v < events; ++v) {
    if (static_cast<int>(state.event_users[v].size()) !=
        arrangement_.EventLoad(v)) {
      return StrFormat("event %d adjacency disagrees with pair set", v);
    }
    std::vector<UserId> sorted = state.event_users[v];
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0 && sorted[i] == sorted[i - 1]) {
        return StrFormat("event %d adjacency has duplicates", v);
      }
      if (!arrangement_.Contains(v, sorted[i])) {
        return StrFormat("event %d adjacency disagrees with pair set", v);
      }
    }
  }
  event_users_ = state.event_users;
  std::memcpy(&max_sum_, &state.max_sum_bits, sizeof(max_sum_));
  std::memcpy(&drift_, &state.drift_bits, sizeof(drift_));

  const std::string error = Validate();
  if (!error.empty()) return error;
  // Guard against a bit-corrupted sum sneaking past feasibility checks:
  // the restored value must equal the recomputation to double precision.
  const double recomputed = RecomputeMaxSum();
  if (!(std::abs(max_sum_ - recomputed) <=
        1e-9 * std::max(1.0, std::abs(recomputed)))) {
    return "restored max_sum disagrees with recomputation";
  }
  return "";
}

std::string IncrementalArranger::Validate() const {
  if (arrangement_.num_events() != instance_->event_slots() ||
      arrangement_.num_users() != instance_->user_slots()) {
    return "arrangement sized for a different slot space";
  }
  const ConflictGraph& conflicts = instance_->conflicts();
  for (UserId u = 0; u < instance_->user_slots(); ++u) {
    const auto& events = arrangement_.EventsOf(u);
    const int load = static_cast<int>(events.size());
    if (!instance_->user_active(u)) {
      if (load > 0) return StrFormat("removed user %d still matched", u);
      continue;
    }
    if (load > instance_->user_capacity(u)) {
      return StrFormat("user %d over capacity: %d > %d", u, load,
                       instance_->user_capacity(u));
    }
    for (size_t i = 0; i < events.size(); ++i) {
      if (!instance_->event_active(events[i])) {
        return StrFormat("user %d matched to removed event %d", u,
                         events[i]);
      }
      if (instance_->Similarity(events[i], u) <= 0.0) {
        return StrFormat("pair {%d,%d} has non-positive similarity",
                         events[i], u);
      }
      if (!instance_->PairAllowed(events[i], u)) {
        return StrFormat("pair {%d,%d} violates slot availability",
                         events[i], u);
      }
      for (size_t j = i + 1; j < events.size(); ++j) {
        if (events[i] == events[j]) {
          return StrFormat("duplicate pair {%d,%d}", events[i], u);
        }
        if (conflicts.AreConflicting(events[i], events[j])) {
          return StrFormat("user %d assigned conflicting events %d and %d",
                           u, events[i], events[j]);
        }
      }
    }
  }
  for (EventId v = 0; v < instance_->event_slots(); ++v) {
    const int load = arrangement_.EventLoad(v);
    if (!instance_->event_active(v)) {
      if (load > 0) return StrFormat("removed event %d still matched", v);
      continue;
    }
    if (load > instance_->event_capacity(v)) {
      return StrFormat("event %d over capacity: %d > %d", v, load,
                       instance_->event_capacity(v));
    }
    if (static_cast<int>(event_users_[v].size()) != load) {
      return StrFormat("event %d reverse adjacency out of sync", v);
    }
  }
  return "";
}

}  // namespace geacc
