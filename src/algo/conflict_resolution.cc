#include "algo/conflict_resolution.h"

#include <algorithm>
#include <cstdint>

#include "algo/admission.h"
#include "obs/stats.h"
#include "util/check.h"

namespace geacc {

std::vector<EventId> GreedySelectNonConflicting(
    const Instance& instance, UserId u, std::vector<EventId> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [&](EventId a, EventId b) {
              const double sa = instance.Similarity(a, u);
              const double sb = instance.Similarity(b, u);
              if (sa != sb) return sa > sb;
              return a < b;
            });
  std::vector<EventId> selected;
  selected.reserve(candidates.size());
  const ConflictGraph& conflicts = instance.conflicts();
  for (const EventId v : candidates) {
    if (FirstConflict(conflicts, selected, v) == kInvalidEvent) {
      selected.push_back(v);
    }
  }
  GEACC_STATS_ADD("resolve.greedy_evictions",
                  static_cast<int64_t>(candidates.size() - selected.size()));
  return selected;
}

std::vector<EventId> ExactSelectNonConflicting(
    const Instance& instance, UserId u, std::vector<EventId> candidates) {
  const int n = static_cast<int>(candidates.size());
  GEACC_CHECK_LE(n, 25) << "exact MWIS candidate set too large";
  if (n == 0) return {};
  std::sort(candidates.begin(), candidates.end());  // deterministic bits

  // Bit i set in conflict_mask[i]: candidate i conflicts with candidate j.
  std::vector<uint32_t> conflict_mask(n, 0);
  const ConflictGraph& conflicts = instance.conflicts();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (conflicts.AreConflicting(candidates[i], candidates[j])) {
        conflict_mask[i] |= 1u << j;
        conflict_mask[j] |= 1u << i;
      }
    }
  }
  std::vector<double> weight(n);
  for (int i = 0; i < n; ++i) {
    weight[i] = instance.Similarity(candidates[i], u);
  }

  uint32_t best_subset = 0;
  double best_weight = 0.0;
  const uint32_t limit = 1u << n;
  for (uint32_t subset = 0; subset < limit; ++subset) {
    double total = 0.0;
    bool independent = true;
    for (int i = 0; i < n && independent; ++i) {
      if ((subset & (1u << i)) == 0) continue;
      if ((conflict_mask[i] & subset) != 0) independent = false;
      total += weight[i];
    }
    // Strict improvement keeps the lowest-bits subset on ties (subsets are
    // enumerated in increasing numeric order).
    if (independent && total > best_weight) {
      best_weight = total;
      best_subset = subset;
    }
  }

  std::vector<EventId> selected;
  for (int i = 0; i < n; ++i) {
    if (best_subset & (1u << i)) selected.push_back(candidates[i]);
  }
  GEACC_STATS_ADD("resolve.exact_evictions",
                  static_cast<int64_t>(candidates.size() - selected.size()));
  GEACC_STATS_ADD("resolve.exact_subsets_scanned", limit);
  return selected;
}

}  // namespace geacc
