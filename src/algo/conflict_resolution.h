// Greedy conflict resolution (step 2 of MinCostFlow-GEACC).
//
// Given the events tentatively assigned to one user, selecting the best
// non-conflicting subset is a maximum-weight independent set on the
// conflict subgraph (NP-hard), so Algorithm 1 lines 9–14 pick greedily:
// scan the user's events in non-increasing similarity and keep each event
// that conflicts with nothing kept so far.
//
// Complexity: O(k log k + k²) for a user with k tentative events (sort
// plus pairwise conflict checks); the exact variant is O(2^k · k) and
// capped by its caller. Thread-safety: free functions with no shared
// state. Counters reported: resolve.greedy_evictions,
// resolve.exact_evictions, resolve.exact_subsets_scanned.

#ifndef GEACC_ALGO_CONFLICT_RESOLUTION_H_
#define GEACC_ALGO_CONFLICT_RESOLUTION_H_

#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace geacc {

// Returns the greedily selected subset of `candidates` for user `u`,
// non-conflicting under instance.conflicts(). Deterministic: candidates are
// ranked by (similarity desc, id asc).
std::vector<EventId> GreedySelectNonConflicting(
    const Instance& instance, UserId u, std::vector<EventId> candidates);

// Exact maximum-weight independent set over `candidates` (weights =
// similarity to `u`) by subset enumeration — never worse than the greedy
// rule, exponential only in |candidates| ≤ c_u, which the paper's
// configurations keep ≤ 10. Aborts above 25 candidates. Ties are broken
// toward the lexicographically smallest event set. Extension beyond the
// paper (which argues greedy via MWIS NP-hardness), selected by
// SolverOptions::exact_conflict_resolution; only tests set it
// (tests/flow_variants_test.cc, tests/parallel_determinism_test.cc).
std::vector<EventId> ExactSelectNonConflicting(
    const Instance& instance, UserId u, std::vector<EventId> candidates);

}  // namespace geacc

#endif  // GEACC_ALGO_CONFLICT_RESOLUTION_H_
