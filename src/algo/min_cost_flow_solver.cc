#include "algo/min_cost_flow_solver.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/conflict_resolution.h"
#include "flow/transport_ssp.h"
#include "obs/stats.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace geacc {
namespace {

// An augmenting path with real cost below 1 strictly improves
// MaxSum(M_Δ) = Δ − cost(Δ); a path at exactly 1 leaves it unchanged. The
// epsilon guards float noise at the boundary.
constexpr double kUnitCostStop = 1.0 - 1e-9;

// Matching extraction reads the settled flow concurrently; per-chunk
// matched-pair lists fold in chunk order, reproducing the serial
// row-major Add order exactly.
void ExtractMatching(const Instance& instance, const TransportSsp& sspa,
                     ThreadPool& pool, Arrangement* matching) {
  GEACC_PHASE_TIMER("mcf.extract");
  using PairList = std::vector<std::pair<EventId, UserId>>;
  ParallelMap<PairList>(
      pool, 0, instance.num_events(),
      [&](int64_t chunk_begin, int64_t chunk_end) {
        PairList matched;
        for (EventId v = static_cast<EventId>(chunk_begin);
             v < static_cast<EventId>(chunk_end); ++v) {
          for (UserId u = 0; u < instance.num_users(); ++u) {
            if (sspa.Flow(v, u) == 1 && instance.Similarity(v, u) > 0.0) {
              matched.emplace_back(v, u);
            }
          }
        }
        return matched;
      },
      [&](const PairList& matched) {
        for (const auto& [v, u] : matched) matching->Add(v, u);
      });
}

}  // namespace

Arrangement MinCostFlowSolver::SolveWithoutConflicts(
    const Instance& instance, SolverStats* stats) const {
  ThreadPool pool(ResolveThreadCount(options_.threads));
  return SolveWithoutConflictsOn(instance, stats, pool);
}

Arrangement MinCostFlowSolver::SolveWithoutConflictsOn(
    const Instance& instance, SolverStats* stats, ThreadPool& pool) const {
  const int num_events = instance.num_events();
  const int num_users = instance.num_users();
  Arrangement matching(num_events, num_users);
  if (num_events == 0 || num_users == 0) return matching;

  // Pair-cost precompute fans out over events (each chunk owns a disjoint
  // row slice). Each row is one batched-kernel call (this is the
  // fp_mode="fast" opt-in site — DESIGN.md §15.3); the mirror is forced
  // warm before the fan-out so workers never contend on its build lock.
  std::vector<double> pair_costs(static_cast<size_t>(num_events) * num_users);
  {
    GEACC_PHASE_TIMER("mcf.pair_costs");
    const simd::FpMode fp = ResolveFpMode(options_);
    instance.user_attributes().Blocked();
    pool.ParallelFor(0, num_events, [&](int /*chunk*/, int64_t chunk_begin,
                                        int64_t chunk_end) {
      for (EventId v = static_cast<EventId>(chunk_begin);
           v < static_cast<EventId>(chunk_end); ++v) {
        double* row = &pair_costs[static_cast<size_t>(v) * num_users];
        instance.SimilarityRow(v, fp, row);
        for (UserId u = 0; u < num_users; ++u) {
          row[u] = 1.0 - row[u];
        }
      }
    });
  }

  // Unit-by-unit sweep over Δ = 1..Δmax, equivalent to Algorithm 1's loop:
  // after k augmentations the residual flow is the min-cost flow of amount
  // k, and MaxSum(M_k) = k − cost(k). Unit costs are non-decreasing, so the
  // sweep stops at the first path that no longer improves, leaving the flow
  // at the Δ with maximum MaxSum. Sequential by construction — the flow at
  // Δ+1 extends the flow at Δ (see the header for why per-Δ fan-out loses).
  // The network has an arc even for sim = 0 pairs (they may carry flow;
  // such pairs are simply excluded from the extracted matching).
  std::vector<int64_t> event_capacity(num_events);
  for (EventId v = 0; v < num_events; ++v) {
    event_capacity[v] = instance.event_capacity(v);
  }
  std::vector<int64_t> user_capacity(num_users);
  for (UserId u = 0; u < num_users; ++u) {
    user_capacity[u] = instance.user_capacity(u);
  }
  TransportSsp sspa(pair_costs.data(), std::move(event_capacity),
                    std::move(user_capacity));
  int64_t best_delta = 0;
  {
    GEACC_PHASE_TIMER("mcf.flow_sweep");
    while (sspa.AugmentIfCheaper(kUnitCostStop) == 1) ++best_delta;
  }
  ExtractMatching(instance, sspa, pool, &matching);
  if (stats != nullptr) {
    // +1 for the final (rejected) path search that ended the sweep.
    stats->flow_augmentations += best_delta + 1;
    stats->best_delta = best_delta;
    stats->logical_peak_bytes += sspa.ByteEstimate() + VectorBytes(pair_costs);
  }
  GEACC_STATS_ADD("mcf.flow_sweeps", 1);
  GEACC_STATS_ADD("mcf.best_delta", best_delta);
  return matching;
}

SolveResult MinCostFlowSolver::Solve(const Instance& instance) const {
  WallTimer timer;
  SolverStats stats;
  ThreadPool pool(ResolveThreadCount(options_.threads));
  Arrangement unconstrained =
      SolveWithoutConflictsOn(instance, &stats, pool);

  // Step 2 (lines 8–14): per user, keep a non-conflicting subset —
  // greedily (the paper's rule) or exactly (bitmask MWIS ablation). Users
  // are independent, so resolution fans out; per-chunk kept lists are
  // applied in chunk (= user) order, matching the serial Add order.
  GEACC_PHASE_TIMER("mcf.conflict_resolution");
  Arrangement result(instance.num_events(), instance.num_users());
  struct ResolvedChunk {
    std::vector<std::pair<UserId, std::vector<EventId>>> kept;
    int64_t evicted = 0;
  };
  ParallelMap<ResolvedChunk>(
      pool, 0, instance.num_users(),
      [&](int64_t chunk_begin, int64_t chunk_end) {
        ResolvedChunk out;
        for (UserId u = static_cast<UserId>(chunk_begin);
             u < static_cast<UserId>(chunk_end); ++u) {
          const std::vector<EventId>& assigned = unconstrained.EventsOf(u);
          if (assigned.empty()) continue;
          std::vector<EventId> kept =
              options_.exact_conflict_resolution
                  ? ExactSelectNonConflicting(instance, u, assigned)
                  : GreedySelectNonConflicting(instance, u, assigned);
          out.evicted += static_cast<int64_t>(assigned.size() - kept.size());
          out.kept.emplace_back(u, std::move(kept));
        }
        return out;
      },
      [&](const ResolvedChunk& chunk) {
        stats.conflicts_resolved += chunk.evicted;
        for (const auto& [u, kept] : chunk.kept) {
          for (const EventId v : kept) result.Add(v, u);
        }
      });
  GEACC_STATS_ADD("mcf.conflict_evictions", stats.conflicts_resolved);
  stats.logical_peak_bytes +=
      unconstrained.ByteEstimate() + result.ByteEstimate();
  stats.wall_seconds = timer.Seconds();
  return {std::move(result), stats};
}

}  // namespace geacc
