// Greedy-GEACC (paper Algorithm 2, Section III.B).
//
// Maintains a max-heap H of candidate pairs holding at most one pair per
// event: event v's next *admissible* user, fetched from v's incremental NN
// cursor over the users (src/index/). Each iteration pops the globally
// first candidate, adds it to the matching if capacities and conflicts
// allow (algo/admission holds the heap order, the seats and the conflict
// scan), and, while v has a seat left, refills H from v's cursor. The
// cursors are linear scans filtered by the Admission's user seats, so a
// refill never returns a user with no seat left; a user the cursor still
// yields but who became inadmissible is skipped.
//
// Why this admits exactly what the sort-all specification does
// (SortAllGreedySolver): every positive pair sits in exactly one event's
// cursor, each cursor yields its pairs in admission order, and H pops the
// ≤ |V| cursor heads in admission order — a lazy k-way merge of the sorted
// pair list. A pair the seat filter drops or the cursor skips is
// inadmissible at that moment, and since seats only fall and held events
// only accumulate, sort-all would refuse it too.
//
// Approximation ratio: 1 / (1 + max c_u) (Theorem 3). In practice it beats
// MinCostFlow-GEACC on every metric — the paper's headline result.
//
// Complexity: O(P log |V|) for the P heap pops (each admits a pair or
// refuses one that became inadmissible after it was pushed), plus the
// cursor refills: each scores all |U| users (O(|U|·d)) and selects the
// next batch of b seated users (O(|U| log b)), with b doubling per refill,
// so a cursor run k users deep pays O(log k) refills. Memory is O(|V|)
// cursors and heap entries, plus the seats and the arrangement.
//
// Thread-safety: Solve() is const and re-entrant; all search state is
// per-call. The cursors open and take their first pair in parallel over
// the events (SolverOptions::threads); the iteration is sequential.
// Counters reported: greedy.heap_pushes (== heap_pops), greedy.cursor_skips
// (pairs a cursor yielded that were no longer admissible), greedy.matches,
// and the cursors' own index.linear.{refills, points_scanned, cursor_steps}.

#ifndef GEACC_ALGO_GREEDY_SOLVER_H_
#define GEACC_ALGO_GREEDY_SOLVER_H_

#include <string>

#include "core/instance.h"
#include "core/solver.h"

namespace geacc {

class GreedySolver final : public Solver {
 public:
  explicit GreedySolver(SolverOptions options = {}) : options_(options) {}

  std::string Name() const override { return "greedy"; }
  SolveResult Solve(const Instance& instance) const override;

 private:
  SolverOptions options_;
};

}  // namespace geacc

#endif  // GEACC_ALGO_GREEDY_SOLVER_H_
