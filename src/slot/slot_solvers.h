// Joint slot + participant solvers over SlottedInstance.
//
// A SlotSolver searches the space of slottings (per-event slot choices)
// and, per slotting, the induced plain GEACC instance. Three strategies,
// mirroring the base registry's coverage of the quality/cost spectrum:
//
//  * "slot-greedy" — one pass over (similarity, event, user, slot)
//    candidates in algo/admission's AdmitsBefore order (slot as the last
//    tie-break), fixing each event's slot at its first admitted pair. It
//    keeps its own admission loop: conflicts are tested between slot
//    windows, not on a conflict graph. Linearithmic in the candidate
//    count; no optimality guarantee, but always jointly feasible.
//  * "slot-mcf-sweep" — enumerates candidate slottings (cartesian product
//    of the allowed-slot sets, lexicographic), prunes slottings dominated
//    by an already-priced one (identical per-event admissible user sets
//    and a superset of the derived conflict pairs can never score
//    higher), and prices each survivor with MinCostFlow-GEACC's Δ-sweep.
//    Inherits the 1/max c_u per-slotting ratio; exponential in |V| only
//    through the slotting enumeration.
//  * "slot-exact" — branch-and-bound over slot assignments (events in id
//    order, slots ascending) with an admissible slot-aware upper bound:
//    Σ_v (capacity-clipped sum of the top positive similarities among
//    users available in v's slot — maximized over allowed slots while v
//    is unassigned), tightened by forced-conflict clique caps
//    (algo/bounds.h) unless SolverOptions::bound = "lemma6": events whose
//    allowed slots pairwise conflict land in conflicting slots under
//    every completion, so a clique of them cannot all fill their top
//    users — the per-event masses alone were over-admissive there.
//    Leaves are solved exactly with Prune-GEACC, so the returned
//    (slotting, arrangement) attains the joint optimum.
//
// Bound-vs-incumbent contract (shared with PruneSolver; algo/bounds.h): a
// subtree is pruned only when its admissible bound falls more than
// algo::kBoundEps (1e-9) below the incumbent; the incumbent updates with
// strict `>`, so a subtree whose bound merely ties the incumbent may be
// descended but never displaces it — the returned slotting and
// arrangement stay bit-identical to the exhaustive enumeration's at every
// bound level.
//
// Determinism: identical (instance, options) → identical result; all tie
// breaks are fixed (first-best under strict improvement in enumeration
// order). SolverOptions carries the per-leaf solver configuration
// (threads, flow_algorithm, fp_mode, bound, ...); slot solvers validate
// it the same way CreateSolver does.

#ifndef GEACC_SLOT_SLOT_SOLVERS_H_
#define GEACC_SLOT_SLOT_SOLVERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.h"
#include "slot/slotted.h"

namespace geacc {
namespace slot {

struct SlotSolveResult {
  Slotting slotting;
  Arrangement arrangement;
  // Σ similarity over matched pairs under `slotting` (base similarity —
  // masked and base values agree on admitted pairs).
  double max_sum = 0.0;
  // Complete slottings whose induced instance was priced with a solver.
  int64_t leaf_solves = 0;
  // Slottings examined at all, including dominance- and bound-pruned
  // ones (slot-greedy commits to a single slotting, so reports 1).
  int64_t slottings_considered = 0;
  SolverStats stats;
};

class SlotSolver {
 public:
  virtual ~SlotSolver() = default;

  // Canonical registry name, e.g. "slot-greedy".
  virtual std::string Name() const = 0;

  // Produces a jointly feasible (slotting, arrangement):
  // AuditSlotted(slotted, slotting, arrangement) is empty. Const and
  // re-entrant, like Solver::Solve.
  virtual SlotSolveResult Solve(const SlottedInstance& slotted) const = 0;
};

// Creates a joint solver by name ("slot-greedy", "slot-mcf-sweep",
// "slot-exact"), or nullptr for unknown names. CHECK-fails on invalid
// options, like CreateSolver.
std::unique_ptr<SlotSolver> CreateSlotSolver(const std::string& name,
                                             SolverOptions options = {});

// All joint-solver names, in presentation order.
std::vector<std::string> SlotSolverNames();

}  // namespace slot
}  // namespace geacc

#endif  // GEACC_SLOT_SLOT_SOLVERS_H_
