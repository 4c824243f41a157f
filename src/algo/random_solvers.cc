#include "algo/random_solvers.h"

#include "algo/admission.h"
#include "obs/stats.h"
#include "util/rng.h"
#include "util/timer.h"

namespace geacc {
namespace {

SolveResult SolveRandom(const Instance& instance, uint64_t seed,
                        bool event_major) {
  WallTimer timer;
  SolverStats stats;
  const int num_events = instance.num_events();
  const int num_users = instance.num_users();
  Admission admission(instance);
  Rng rng(seed);

  int64_t pairs_considered = 0;
  int64_t infeasible_rejections = 0;
  auto try_add = [&](EventId v, UserId u, double probability) {
    ++pairs_considered;
    if (!rng.Bernoulli(probability)) return;
    if (instance.Similarity(v, u) <= 0.0 ||
        admission.TryAdmit(v, u).verdict != Verdict::kAdmitted) {
      ++infeasible_rejections;
    }
  };

  if (event_major) {
    for (EventId v = 0; v < num_events && num_users > 0; ++v) {
      const double p = static_cast<double>(instance.event_capacity(v)) /
                       static_cast<double>(num_users);
      for (UserId u = 0; u < num_users; ++u) try_add(v, u, p);
    }
  } else {
    for (UserId u = 0; u < num_users && num_events > 0; ++u) {
      const double p = static_cast<double>(instance.user_capacity(u)) /
                       static_cast<double>(num_events);
      for (EventId v = 0; v < num_events; ++v) try_add(v, u, p);
    }
  }
  GEACC_STATS_ADD("random.pairs_considered", pairs_considered);
  GEACC_STATS_ADD("random.pairs_matched", admission.arrangement().size());
  GEACC_STATS_ADD("random.infeasible_rejections", infeasible_rejections);
  stats.logical_peak_bytes = admission.ByteEstimate();
  stats.wall_seconds = timer.Seconds();
  return {admission.TakeArrangement(), stats};
}

}  // namespace

SolveResult RandomVSolver::Solve(const Instance& instance) const {
  return SolveRandom(instance, options_.seed, /*event_major=*/true);
}

SolveResult RandomUSolver::Solve(const Instance& instance) const {
  return SolveRandom(instance, options_.seed, /*event_major=*/false);
}

}  // namespace geacc
