// MinCostFlow-GEACC (paper Algorithm 1, Section III.A).
//
// Step 1 ignores conflicts and finds the best capacitated matching M_∅ via
// min-cost flow: source → events (capacity c_v, cost 0), event → user
// (capacity 1, cost 1 − sim), users → sink (capacity c_u, cost 0). The
// paper evaluates the min-cost flow at every amount Δ and keeps the best
// matching; with SSPA this collapses to a single incremental run because
//
//   MaxSum(M_Δ) = Δ − cost(Δ),
//
// cost(Δ) is convex in Δ (successive shortest paths have non-decreasing
// unit cost), so MaxSum(M_Δ) is concave and the sweep can stop at the first
// augmenting path whose real cost reaches 1. Step 2 resolves conflicts per
// user with the greedy independent-set rule.
//
// Approximation ratio: 1 / max c_u (Theorem 2). Complexity is dominated by
// Δmax = min{Σc_v, Σc_u} shortest-path searches (the paper's "quartic"
// cost). The engine, flow/transport_ssp.h, relaxes each settled event's
// dense cost row with one SIMD kernel call, so a search costs
// O(|V_s|·|U| + H log H) for |V_s| settled events and H heap operations,
// at most O(|V|·|U| + (|V| + |U|) log(|V| + |U|)). Memory is O(|V|·|U|)
// doubles — the pair costs and the engine's forward-cost rows — with no
// residual arc list.
//
// Thread-safety: Solve() is const and re-entrant; the flow network is
// rebuilt per call. Counters reported: mcf.flow_sweeps, mcf.best_delta,
// mcf.conflict_evictions (+ flow.* from the SSP engine and resolve.*
// from conflict resolution).
//
// Parallelism (SolverOptions::threads): the Δ-sweep itself is irreducibly
// sequential — the flow at Δ+1 is the flow at Δ plus one augmentation, and
// solving each Δ independently (the paper-literal reading) costs O(Δmax²)
// path searches against the sweep's O(Δmax), so fanning the sweep out can
// only lose. What does fan out are the O(|V|·|U|) phases around it: the
// pair-cost precompute (1 − sim per pair), the matching extraction from
// the residual flow, and per-user conflict resolution. Each uses
// per-chunk partials folded in chunk order (util/thread_pool.h), so the
// arrangement is bit-identical to the serial solve at any thread count.

#ifndef GEACC_ALGO_MIN_COST_FLOW_SOLVER_H_
#define GEACC_ALGO_MIN_COST_FLOW_SOLVER_H_

#include <string>

#include "core/instance.h"
#include "core/solver.h"

namespace geacc {

class ThreadPool;

class MinCostFlowSolver final : public Solver {
 public:
  explicit MinCostFlowSolver(SolverOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "mincostflow"; }
  SolveResult Solve(const Instance& instance) const override;

  // Step 1 only: the conflict-oblivious optimal matching M_∅ (exposed for
  // tests of Lemma 1 and for the CF=∅ optimality property).
  Arrangement SolveWithoutConflicts(const Instance& instance,
                                    SolverStats* stats) const;

 private:
  // Shared implementation: Solve() constructs one pool for both steps;
  // the public SolveWithoutConflicts builds its own.
  Arrangement SolveWithoutConflictsOn(const Instance& instance,
                                      SolverStats* stats,
                                      ThreadPool& pool) const;

  SolverOptions options_;
};

}  // namespace geacc

#endif  // GEACC_ALGO_MIN_COST_FLOW_SOLVER_H_
