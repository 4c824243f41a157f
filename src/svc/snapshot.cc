#include "svc/snapshot.h"

#include <algorithm>
#include <utility>

#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace geacc::svc {

std::vector<ScoredEvent> ServiceSnapshot::TopKEvents(UserId u, int k) const {
  GEACC_CHECK(user_in_range(u)) << "user id " << u << " out of range";
  std::vector<ScoredEvent> candidates;
  if (k <= 0 || !user_active_[u]) return candidates;
  const std::vector<EventId>& held = user_events_[u];
  candidates.reserve(static_cast<size_t>(num_active_events_));
  for (EventId v = 0; v < event_slots(); ++v) {
    if (!event_active_[v]) continue;
    if (std::find(held.begin(), held.end(), v) != held.end()) continue;
    const double sim = Similarity(v, u);
    if (sim <= 0.0) continue;
    candidates.push_back({v, sim});
  }
  const auto better = [](const ScoredEvent& a, const ScoredEvent& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.event < b.event;
  };
  const size_t keep = std::min<size_t>(candidates.size(), k);
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end(), better);
  candidates.resize(keep);
  return candidates;
}

std::vector<std::vector<ScoredEvent>> ServiceSnapshot::TopKEventsBatch(
    const std::vector<UserId>& users, int k, int threads) const {
  std::vector<std::vector<ScoredEvent>> results(users.size());
  if (users.empty()) return results;
  ThreadPool pool(ResolveThreadCount(threads));
  pool.ParallelFor(0, static_cast<int64_t>(users.size()),
                   [&](int /*chunk*/, int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       results[i] = TopKEvents(users[i], k);
                     }
                   });
  return results;
}

std::vector<ScoredCandidate> ServiceSnapshot::Candidates(
    UserId first_user, int user_count, int max_edges) const {
  std::vector<ScoredCandidate> edges;
  const UserId begin = std::max<UserId>(first_user, 0);
  // In 64 bits: begin + user_count overflows int for a count near INT_MAX.
  const UserId end = static_cast<UserId>(std::min<int64_t>(
      user_slots(),
      static_cast<int64_t>(begin) + std::max(user_count, 0)));
  const size_t limit = static_cast<size_t>(std::max(max_edges, 0)) + 1;
  for (UserId u = begin; u < end; ++u) {
    if (!user_active_[u]) continue;
    for (EventId v = 0; v < event_slots(); ++v) {
      if (!event_active_[v]) continue;
      const double sim = Similarity(v, u);
      if (sim <= 0.0) continue;
      edges.push_back({u, v, sim});
      if (edges.size() == limit) return edges;
    }
  }
  return edges;
}

Instance ServiceSnapshot::ToDenseInstance(
    std::vector<EventId>* dense_to_event,
    std::vector<UserId>* dense_to_user) const {
  std::vector<EventId> event_map;
  std::vector<UserId> user_map;
  std::vector<int> event_to_dense(event_slots(), -1);
  std::vector<int> user_to_dense(user_slots(), -1);

  AttributeMatrix events(num_active_events_, dim_);
  std::vector<int> event_capacities;
  event_capacities.reserve(static_cast<size_t>(num_active_events_));
  for (EventId v = 0; v < event_slots(); ++v) {
    if (!event_active_[v]) continue;
    const int dense = static_cast<int>(event_map.size());
    event_to_dense[v] = dense;
    event_map.push_back(v);
    const double* row = event_attributes_.Row(v);
    for (int j = 0; j < dim_; ++j) events.Set(dense, j, row[j]);
    event_capacities.push_back(event_capacities_[v]);
  }

  AttributeMatrix users(num_active_users_, dim_);
  std::vector<int> user_capacities;
  user_capacities.reserve(static_cast<size_t>(num_active_users_));
  for (UserId u = 0; u < user_slots(); ++u) {
    if (!user_active_[u]) continue;
    const int dense = static_cast<int>(user_map.size());
    user_to_dense[u] = dense;
    user_map.push_back(u);
    const double* row = user_attributes_.Row(u);
    for (int j = 0; j < dim_; ++j) users.Set(dense, j, row[j]);
    user_capacities.push_back(user_capacities_[u]);
  }

  ConflictGraph conflicts(num_active_events_);
  for (EventId v = 0; v < event_slots(); ++v) {
    if (!event_active_[v]) continue;
    for (const EventId w : conflicts_.ConflictsOf(v)) {
      if (w > v && event_active_[w]) {
        conflicts.AddConflict(event_to_dense[v], event_to_dense[w]);
      }
    }
  }

  if (dense_to_event != nullptr) *dense_to_event = event_map;
  if (dense_to_user != nullptr) *dense_to_user = user_map;
  return Instance(std::move(events), std::move(event_capacities),
                  std::move(users), std::move(user_capacities),
                  std::move(conflicts), similarity_->Clone());
}

Arrangement ServiceSnapshot::ToDenseArrangement() const {
  std::vector<int> event_to_dense(event_slots(), -1);
  std::vector<int> user_to_dense(user_slots(), -1);
  int next_event = 0;
  for (EventId v = 0; v < event_slots(); ++v) {
    if (event_active_[v]) event_to_dense[v] = next_event++;
  }
  int next_user = 0;
  for (UserId u = 0; u < user_slots(); ++u) {
    if (user_active_[u]) user_to_dense[u] = next_user++;
  }
  Arrangement arrangement(next_event, next_user);
  for (UserId u = 0; u < user_slots(); ++u) {
    for (const EventId v : user_events_[u]) {
      arrangement.Add(event_to_dense[v], user_to_dense[u]);
    }
  }
  return arrangement;
}

std::shared_ptr<const ServiceSnapshot> BuildSnapshot(
    const DynamicInstance& instance, const IncrementalArranger& arranger,
    int64_t applied_seq) {
  auto snapshot = std::shared_ptr<ServiceSnapshot>(new ServiceSnapshot());
  snapshot->epoch_ = instance.epoch();
  snapshot->applied_seq_ = applied_seq;
  snapshot->dim_ = instance.dim();
  snapshot->event_attributes_ = instance.event_attributes();
  snapshot->user_attributes_ = instance.user_attributes();
  snapshot->num_active_events_ = instance.num_active_events();
  snapshot->num_active_users_ = instance.num_active_users();
  snapshot->conflicts_ = instance.conflicts();
  snapshot->similarity_ = instance.similarity().Clone();

  const int event_slots = instance.event_slots();
  const int user_slots = instance.user_slots();
  snapshot->event_capacities_.resize(event_slots);
  snapshot->event_active_.resize(event_slots);
  for (EventId v = 0; v < event_slots; ++v) {
    snapshot->event_capacities_[v] = instance.event_capacity(v);
    snapshot->event_active_[v] = instance.event_active(v);
  }
  snapshot->user_capacities_.resize(user_slots);
  snapshot->user_active_.resize(user_slots);
  for (UserId u = 0; u < user_slots; ++u) {
    snapshot->user_capacities_[u] = instance.user_capacity(u);
    snapshot->user_active_[u] = instance.user_active(u);
  }

  const Arrangement& arrangement = arranger.arrangement();
  snapshot->user_events_.resize(user_slots);
  snapshot->event_users_.resize(event_slots);
  for (UserId u = 0; u < user_slots; ++u) {
    snapshot->user_events_[u] = arrangement.EventsOf(u);
  }
  for (EventId v = 0; v < event_slots; ++v) {
    snapshot->event_users_[v] = arranger.UsersOf(v);
  }
  snapshot->num_pairs_ = arrangement.size();
  snapshot->max_sum_ = arranger.max_sum();
  return snapshot;
}

}  // namespace geacc::svc
