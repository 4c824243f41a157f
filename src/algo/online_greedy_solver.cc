#include "algo/online_greedy_solver.h"

#include <algorithm>

#include "obs/stats.h"
#include "util/check.h"
#include "util/memory.h"
#include "util/timer.h"

namespace geacc {

OnlineArranger::OnlineArranger(const Instance& instance)
    : instance_(instance),
      admission_(instance),
      arrived_(instance.num_users(), false) {}

std::vector<EventId> OnlineArranger::ArriveUser(UserId u) {
  GEACC_CHECK(u >= 0 && u < instance_.num_users())
      << "user id out of range: " << u;
  GEACC_CHECK(!arrived_[u]) << "user " << u << " arrived twice";
  arrived_[u] = true;

  // Rank all events by this user's interest (sim desc, id asc).
  std::vector<EventId> ranked;
  ranked.reserve(instance_.num_events());
  for (EventId v = 0; v < instance_.num_events(); ++v) {
    if (instance_.Similarity(v, u) > 0.0) ranked.push_back(v);
  }
  std::sort(ranked.begin(), ranked.end(), [&](EventId a, EventId b) {
    const double sa = instance_.Similarity(a, u);
    const double sb = instance_.Similarity(b, u);
    if (sa != sb) return sa > sb;
    return a < b;
  });

  // u arrives once, so the events it holds are exactly those taken here.
  for (const EventId v : ranked) {
    if (!admission_.UserHasSeat(u)) break;
    admission_.TryAdmit(v, u);
  }
  const std::vector<EventId>& taken = admission_.arrangement().EventsOf(u);
  GEACC_STATS_ADD("online.arrivals", 1);
  GEACC_STATS_ADD("online.events_ranked", static_cast<int64_t>(ranked.size()));
  GEACC_STATS_ADD("online.matches", static_cast<int64_t>(taken.size()));
  return taken;
}

SolveResult OnlineGreedySolver::Solve(const Instance& instance) const {
  WallTimer timer;
  SolverStats stats;
  OnlineArranger arranger(instance);
  for (UserId u = 0; u < instance.num_users(); ++u) {
    arranger.ArriveUser(u);
  }
  Arrangement result(instance.num_events(), instance.num_users());
  for (UserId u = 0; u < instance.num_users(); ++u) {
    for (const EventId v : arranger.arrangement().EventsOf(u)) {
      result.Add(v, u);
    }
  }
  stats.logical_peak_bytes =
      result.ByteEstimate() * 2 +
      static_cast<uint64_t>(instance.num_events()) * sizeof(int);
  stats.wall_seconds = timer.Seconds();
  return {std::move(result), stats};
}

}  // namespace geacc
