#include "svc/snapshot.h"

#include <algorithm>

#include "util/check.h"
#include "util/thread_pool.h"

namespace geacc::svc {

std::vector<ScoredEvent> ServiceSnapshot::TopKEvents(UserId u, int k) const {
  GEACC_CHECK(user_in_range(u)) << "user id " << u << " out of range";
  std::vector<ScoredEvent> candidates;
  if (k <= 0 || !instance_.user_active(u)) return candidates;
  const std::vector<EventId>& held = AssignmentsOf(u);
  candidates.reserve(static_cast<size_t>(num_active_events()));
  for (EventId v = 0; v < event_slots(); ++v) {
    if (!instance_.event_active(v)) continue;
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
    if (!instance_.user_active(u)) continue;
    for (EventId v = 0; v < event_slots(); ++v) {
      if (!instance_.event_active(v)) continue;
      const double sim = Similarity(v, u);
      if (sim <= 0.0) continue;
      edges.push_back({u, v, sim});
      if (edges.size() == limit) return edges;
    }
  }
  return edges;
}

Arrangement ServiceSnapshot::ToDenseArrangement() const {
  std::vector<int> event_to_dense(event_slots(), -1);
  std::vector<int> user_to_dense(user_slots(), -1);
  int next_event = 0;
  for (EventId v = 0; v < event_slots(); ++v) {
    if (instance_.event_active(v)) event_to_dense[v] = next_event++;
  }
  int next_user = 0;
  for (UserId u = 0; u < user_slots(); ++u) {
    if (instance_.user_active(u)) user_to_dense[u] = next_user++;
  }
  Arrangement arrangement(next_event, next_user);
  for (UserId u = 0; u < user_slots(); ++u) {
    for (const EventId v : AssignmentsOf(u)) {
      arrangement.Add(event_to_dense[v], user_to_dense[u]);
    }
  }
  return arrangement;
}

std::shared_ptr<const ServiceSnapshot> BuildSnapshot(
    const DynamicInstance& instance, const IncrementalArranger& arranger,
    int64_t applied_seq) {
  return std::shared_ptr<const ServiceSnapshot>(
      new ServiceSnapshot(applied_seq, instance.Clone(), arranger.ExportState(),
                          arranger.arrangement().size()));
}

}  // namespace geacc::svc
