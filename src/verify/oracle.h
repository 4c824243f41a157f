// Differential correctness campaign: solver matrix × seeded instances ×
// oracle checks.
//
// The exact-solver literature validates heuristics by differential
// comparison against exact oracles on seeded instance families; the
// paper's own theorems give checkable approximation certificates. This
// driver sweeps a deterministic family of small instances (exact solvers
// stay tractable at |V| ≤ 6, |U| ≤ 8) and asserts, per instance:
//
//   * audit/<solver>       every registry solver's arrangement passes
//                          AuditArrangement (maximality included where the
//                          solver guarantees it)
//   * exact/prune,
//     exact/exhaustive     Prune-GEACC ≡ exhaustive ≡ brute force (exact
//                          optimum, Section IV) under the configured
//                          bound mode
//   * exact/bitwise        seedless Prune-GEACC (clique-cover bounds
//                          active, greedy warm start off) returns the
//                          bit-identical arrangement — same SortedPairs —
//                          as the exhaustive search: the tightened
//                          pruning removed no DFS-first optimal leaf
//                          (algo/bounds.h contract)
//   * bounds/greedy        MaxSum(Greedy) ≥ OPT / (1 + max c_u), ≤ OPT
//                          (Theorem 3 certificate)
//   * bounds/mincostflow   MaxSum(MCF) ≥ OPT / max c_u, ≤ OPT (Theorem 2),
//                          and MCF ≡ OPT when CF = ∅ (Lemma 1)
//   * threads/<solver>     solve at threads=1 and threads=N are
//                          bit-identical (same SortedPairs)
//
// plus, on a sampled subset of iterations, further differentials:
//
//   * repair/trace         an IncrementalArranger replaying a generated
//                          mutation trace stays feasible after every
//                          mutation, its incremental MaxSum matches a
//                          from-scratch recomputation, its dense snapshot
//                          passes the auditor, and a fresh re-solve of the
//                          same snapshot is feasible too
//   * wal/recovery         an ArrangementService fed the same trace over
//                          its write path, then recovered from its WAL,
//                          lands on a bit-identical snapshot (MaxSum and
//                          pair set)
//   * wal/recovery-ckpt    the same through a paged checkpoint plus the
//                          WAL suffix: recovery from copies of a running
//                          service's WAL and checkpoint serves its MaxSum
//                          bits, pair set and epoch, and a decoy WAL shows
//                          it read the checkpoint, not the full log
//   * sharded/N=2,
//     sharded/N=3          a ShardCoordinator over N in-process score-only
//                          shard services, seeded with the same instance,
//                          repairs to the bit-identical greedy-sortall
//                          arrangement (same pair set, same MaxSum bits)
//                          and its merged arrangement passes the auditor
//                          (DESIGN.md §16)
//   * slotted/greedy       slot-greedy's joint (slotting, arrangement) on
//                          a seeded slotted instance passes AuditSlotted,
//                          its derived conflict graph matches pairwise
//                          WindowsConflict recomputation, and its MaxSum
//                          matches a from-scratch re-sum bit-for-bit
//   * slotted/exact        slot-exact's branch-and-bound is bit-identical
//                          (slotting, pair set, MaxSum bits) to exhaustive
//                          enumeration of every complete slotting with the
//                          same exact leaf solver (DESIGN.md §17)
//
// Failing instance-level checks are (optionally) minimized with the
// delta-debugging shrinker before being serialized into the failure
// record, so a CI artifact is a minimal repro rather than a random seed.
//
// Fault injection (`inject = "extra-pair"`) deliberately corrupts the
// greedy solver's output before auditing — the harness's own self-test:
// a campaign that cannot detect and shrink an injected violation is not
// protecting anything.

#ifndef GEACC_VERIFY_ORACLE_H_
#define GEACC_VERIFY_ORACLE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/instance.h"
#include "verify/shrink.h"

namespace geacc::verify {

struct CampaignConfig {
  // Number of seeded instances swept through the solver matrix.
  int instances = 200;
  uint64_t seed = 42;

  // Family size bounds; the exact oracles (brute force / exhaustive) cap
  // what is tractable. Events are drawn from [3, max_events] so an
  // injected extra pair always exists, users from [2, max_users]. The
  // conflict-aware bounds (algo/bounds.h) keep the clique-bounded exact
  // solvers cheap well past the former 5×8 family, so the default matrix
  // now stretches to 6×8 — the binding cost is the unbounded brute-force
  // and exhaustive oracles themselves (memoized across checks by the
  // campaign's OracleCache, but still exponential): worst-case
  // low-density draws blow up ~30× per extra user past |U| = 8
  // (measured; a single 6×9 tail instance runs for minutes, so the
  // extra-user sweep stays opt-in via --max_users).
  int max_events = 6;
  int max_users = 8;

  // Conflict-density override for the family: < 0 draws each instance's
  // density from the mixed set {0, 0.25, 0.5, 1.0}; ≥ 0 forces every
  // instance to that density (the CI dense-conflict pass uses 1.0).
  double conflict_density = -1.0;

  // SolverOptions::bound for every exact solver in the matrix ("lemma6",
  // "clique", or "clique-lp") — the whole check list must hold at every
  // level, so CI sweeps this.
  std::string bound = "clique";

  // Lane count for the serial-vs-threaded bit-identity check.
  int threads = 3;

  // Run the trace-level differentials every k-th iteration (0 = never).
  int repair_period = 5;
  int wal_period = 10;
  int trace_mutations = 40;

  // Run the sharded-topology differential every k-th iteration (0 =
  // never): a ShardCoordinator over N ∈ {2, 3} in-process score-only
  // shards, fed this iteration's instance, must repair to the
  // bit-identical greedy-sortall arrangement (DESIGN.md §16).
  int shard_period = 20;

  // Run the slotted joint-solver differentials every k-th iteration (0 =
  // never) over a seeded slotted family (S ≤ 3, |V| ≤ 4, |U| ≤ 6, so the
  // slotting space stays enumerable): slot-greedy's result passes
  // AuditSlotted with DeriveConflicts-consistent conflicts, and
  // slot-exact is bit-identical — slotting, pair set, and MaxSum bits —
  // to exhaustive slotting enumeration with the same exact leaf solver
  // (DESIGN.md §17).
  int slot_period = 15;

  // Minimize failing instances with ShrinkInstance before recording.
  bool shrink = false;
  ShrinkOptions shrink_options;

  // Stop after this many failures (a broken build should not pay for 200
  // shrink runs).
  int max_failures = 10;

  // Directory for WAL scratch files; empty = std::filesystem temp dir.
  std::string scratch_dir;

  // Harness self-test fault: "" (off) or "extra-pair" (append a stored
  // pair to greedy's arrangement before auditing).
  std::string inject;
};

struct CampaignFailure {
  std::string check;   // e.g. "audit/greedy", "wal/recovery"
  std::string detail;  // first line(s) of what went wrong
  uint64_t seed = 0;   // regenerate via MakeCampaignInstance(config, seed)
  // instance_io text of the failing instance (instance-level checks only).
  std::string instance_text;
  // instance_io text after delta-debugging (when CampaignConfig::shrink).
  std::string shrunk_instance_text;
  ShrinkStats shrink_stats;
};

struct CampaignResult {
  int instances = 0;
  int64_t checks = 0;
  std::vector<CampaignFailure> failures;

  bool ok() const { return failures.empty(); }
};

// The deterministic campaign family: instance `index` under `config.seed`.
Instance MakeCampaignInstance(const CampaignConfig& config, uint64_t index);

// Runs the full campaign. `log` (may be null) receives one progress line
// per 50 instances plus one line per failure.
CampaignResult RunCampaign(const CampaignConfig& config,
                           std::ostream* log = nullptr);

}  // namespace geacc::verify

#endif  // GEACC_VERIFY_ORACLE_H_
