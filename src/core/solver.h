// Solver interface shared by all GEACC algorithms.
//
// A solver consumes an Instance and produces a feasible Arrangement plus
// per-run statistics. Construction takes SolverOptions (seed for randomized
// solvers, structural toggles for ablations); Solve() is const and
// re-entrant so one solver object can serve a whole parameter sweep.
//
// Contract for implementations:
//  * Solve() must return an arrangement for which
//    Arrangement::Validate(instance) is empty — the harness aborts on
//    violation rather than report a number for an infeasible matching.
//  * Solve() must be const with no observable shared mutable state, so
//    one solver instance may be called concurrently from multiple
//    threads (RunSweep does exactly this). With SolverOptions::threads
//    != 1 a solver may fan work out over a per-call thread pool
//    (util/thread_pool.h); the pool re-credits worker-side counters to
//    the calling thread, so per-run observability attribution (src/obs/)
//    is preserved either way.
//  * Determinism: identical (instance, SolverOptions) → identical
//    arrangement on every platform; randomized solvers draw exclusively
//    from SolverOptions::seed. The arrangement is additionally invariant
//    under SolverOptions::threads (search-effort counters under
//    threads > 1 may vary run to run where opportunistic cross-thread
//    pruning is involved; see prune_solver.h).
//
// Guarantees per algorithm (details in each header): MinCostFlow-GEACC
// 1/max c_u (Theorem 2), Greedy-GEACC 1/(1 + max c_u) (Theorem 3),
// Prune-GEACC exact (Section IV, Lemma 6 bound is admissible).

#ifndef GEACC_CORE_SOLVER_H_
#define GEACC_CORE_SOLVER_H_

#include <cstdint>
#include <string>

#include "core/arrangement.h"
#include "simd/kernels.h"

namespace geacc {

class Instance;

struct SolverOptions {
  // Seed for randomized solvers (Random-V / Random-U).
  uint64_t seed = 42;

  // Intra-solver worker lanes (util/thread_pool.h): 1 = serial (default),
  // N > 1 = a pool of N lanes, 0 = one lane per hardware thread. The
  // parallel solve is bit-identical to the serial one at any value — the
  // pool's chunked reductions are deterministic and all tie-breaking is
  // fixed — so the approximation guarantees and golden tests are
  // unaffected; only wall time changes. See DESIGN.md §10 for which
  // phases of each solver fan out.
  int threads = 1;

  // MinCostFlow-GEACC: resolve each user's conflicts exactly (bitmask
  // max-weight independent set over their ≤ c_u assigned events) instead
  // of the paper's greedy rule. Never worse, exponential only in c_u.
  bool exact_conflict_resolution = false;

  // Prune-GEACC ablation toggles (all true = paper's Algorithm 3/4;
  // enable_pruning=false = the "exhaustive search without pruning"
  // comparator of Fig. 6).
  bool enable_pruning = true;
  bool enable_greedy_seed = true;
  bool enable_event_ordering = true;

  // Safety valve for the exponential exact solvers: abort the search (and
  // return the best matching found so far) after this many Search-GEACC
  // invocations. 0 = unlimited.
  int64_t max_search_invocations = 0;

  // Admissible bound family for the exact solvers' branch-and-bound
  // pruning (Prune-GEACC and slot-exact; algo/bounds.h, DESIGN.md §18):
  // "lemma6" (per-event solo potentials only — the paper's bound),
  // "clique" (default: + clique-cover caps over a greedy clique partition
  // of the conflict graph), or "clique-lp" (+ an LP-relaxation b-matching
  // cap per suffix — tightest, costs one small flow solve per suffix
  // position at setup). Every mode is admissible, so the returned
  // arrangement and MaxSum are identical across modes; only the search
  // effort (nodes visited / leaf solves) changes.
  std::string bound = "clique";

  // Floating-point policy for the batched similarity kernels (DESIGN.md
  // §15.3): "strict" (default) keeps every batched result bit-identical
  // to the per-pair scalar path, so solver output is invariant under the
  // SIMD dispatch level; "fast" permits FMA contraction in the
  // solver-internal bulk evaluations (MinCostFlow pair-cost matrix,
  // Prune search tables) — last-ulp similarity differences there can
  // shift tie-breaks, so "fast" trades the bit-identity guarantee for a
  // little throughput. NN-cursor enumeration (Greedy) always runs
  // strict regardless of this knob.
  std::string fp_mode = "strict";
};

// The simd::FpMode for `options.fp_mode`; CHECK-fails on names that
// ValidateSolverOptions would reject.
simd::FpMode ResolveFpMode(const SolverOptions& options);

// Checks the string-valued fields of `options` against the known names
// (`fp_mode` ∈ {strict, fast}, `bound` ∈ {lemma6, clique, clique-lp}) and
// that `threads` is non-negative. Returns an empty string when valid, else
// a description of the first bad field. CreateSolver() CHECK-fails on a
// non-empty result so that typos fail fast instead of surfacing mid-solve
// (or never, for solvers that ignore the field).
std::string ValidateSolverOptions(const SolverOptions& options);

struct SolverStats {
  double wall_seconds = 0.0;

  // Deterministic logical peak of the solver's own working memory
  // (excludes the input instance).
  uint64_t logical_peak_bytes = 0;

  // MinCostFlow-GEACC: number of unit augmentations (= Δmax) and the Δ at
  // which the best pre-resolution matching was found.
  int64_t flow_augmentations = 0;
  int64_t best_delta = 0;
  // Pairs deleted by the conflict-resolution step.
  int64_t conflicts_resolved = 0;

  // Greedy-GEACC heap activity.
  int64_t heap_pushes = 0;
  int64_t heap_pops = 0;

  // Prune-GEACC / exhaustive search counters (Fig. 6).
  int64_t search_invocations = 0;
  int64_t complete_searches = 0;
  int64_t prune_events = 0;
  int64_t branches_matched = 0;  // branch-1 descents (pair taken)
  // Prunes that only the conflict-aware bound achieved — the Lemma 6 /
  // per-slot-mass bound alone would have descended (algo/bounds.h).
  int64_t bound_clique_cuts = 0;
  int64_t sum_prune_depth = 0;  // mean = sum / prune_events
  int64_t max_depth = 0;        // deepest recursion reached
  bool search_truncated = false;

  double MeanPruneDepth() const {
    return prune_events == 0
               ? 0.0
               : static_cast<double>(sum_prune_depth) /
                     static_cast<double>(prune_events);
  }
};

struct SolveResult {
  Arrangement arrangement;
  SolverStats stats;
};

class Solver {
 public:
  virtual ~Solver() = default;

  // Canonical name used in tables and the registry, e.g. "greedy".
  virtual std::string Name() const = 0;

  // Produces a feasible arrangement for `instance`. Implementations fill
  // stats.wall_seconds and stats.logical_peak_bytes.
  virtual SolveResult Solve(const Instance& instance) const = 0;
};

}  // namespace geacc

#endif  // GEACC_CORE_SOLVER_H_
