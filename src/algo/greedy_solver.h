// Greedy-GEACC (paper Algorithm 2, Section III.B).
//
// Maintains a max-heap H of candidate pairs. Initially each event
// contributes its nearest user and each user its nearest event. Each
// iteration pops the globally most similar candidate, adds it to the
// matching if capacities and conflicts allow (algo/admission holds the
// heap order, the seats and the conflict scan), and refills H with the
// popped endpoints' next *feasible unvisited* nearest neighbors, fetched
// from incremental NN cursors (src/index/). A pair enters H at most once;
// skipped-because-infeasible neighbors are permanently infeasible
// (capacities only decrease, matchings only grow), so consuming them from
// the cursor is safe.
//
// Approximation ratio: 1 / (1 + max c_u) (Theorem 3). In practice it beats
// MinCostFlow-GEACC on every metric — the paper's headline result.
//
// Complexity: O(M log M + C·I) where M ≤ Σc_v + Σc_u is the number of
// heap operations (each accepted pair frees at most two refills), C the
// cursor advances, and I the per-advance index cost (O(|U| / batch) for
// the linear cursor) — near-linear in practice (Fig. 5 a–b). Memory is
// O(|V| + |U|) beyond the index.
//
// Thread-safety: Solve() is const and re-entrant; all search state is
// per-call. Counters reported: greedy.heap_pushes/heap_pops,
// greedy.cursor_skips, greedy.matches (+ index.* from the cursors).

#ifndef GEACC_ALGO_GREEDY_SOLVER_H_
#define GEACC_ALGO_GREEDY_SOLVER_H_

#include <string>

#include "core/instance.h"
#include "core/solver.h"
#include "index/knn_index.h"

namespace geacc {

class GreedySolver final : public Solver {
 public:
  explicit GreedySolver(SolverOptions options = {}) : options_(options) {}

  std::string Name() const override { return "greedy"; }
  SolveResult Solve(const Instance& instance) const override;

  // Solve() with the cursors over caller-built indexes instead of the ones
  // MakeIndex picks: `user_index` over instance.user_attributes(),
  // `event_index` over instance.event_attributes(). Every backend
  // enumerates in the same order, so the arrangement is Solve()'s bit for
  // bit; tests use this to check greedy over each backend.
  SolveResult SolveOver(const Instance& instance, const KnnIndex& user_index,
                        const KnnIndex& event_index) const;

 private:
  // Null indexes are built with MakeIndex.
  SolveResult SolveImpl(const Instance& instance, const KnnIndex* user_index,
                        const KnnIndex* event_index) const;

  SolverOptions options_;
};

}  // namespace geacc

#endif  // GEACC_ALGO_GREEDY_SOLVER_H_
