// Unit tests for the solver implementations and the registry: feasibility,
// determinism, edge cases, solver-specific behaviours.

#include <gtest/gtest.h>

#include <memory>

#include "algo/conflict_resolution.h"
#include "algo/greedy_solver.h"
#include "algo/min_cost_flow_solver.h"
#include "algo/prune_solver.h"
#include "algo/random_solvers.h"
#include "algo/solvers.h"
#include "index/knn_index.h"
#include "tests/test_util.h"

namespace geacc {
namespace {

using geacc::testing::MakeTableInstance;
using geacc::testing::SmallRandomInstance;

// ------------------------------------------------------------ registry ---

TEST(SolverRegistry, CreatesEveryListedSolver) {
  for (const std::string& name : SolverNames()) {
    const auto solver = CreateSolver(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->Name(), name);
  }
  EXPECT_EQ(CreateSolver("no-such-solver"), nullptr);
}

TEST(SolverRegistry, UnknownOptionValuesDie) {
  // CreateSolver fails fast, naming the field, even for a solver that
  // ignores it.
  SolverOptions fp_options;
  fp_options.fp_mode = "approximate";
  EXPECT_DEATH(CreateSolver("greedy", fp_options),
               "unknown fp_mode 'approximate'");
  SolverOptions bound_options;
  bound_options.bound = "simplex";
  EXPECT_DEATH(CreateSolver("mincostflow", bound_options),
               "unknown bound 'simplex'");
}

TEST(SolverRegistry, ValidateSolverOptionsAcceptsAllKnownValues) {
  for (const char* fp_mode : {"strict", "fast"}) {
    for (const char* bound : {"lemma6", "clique", "clique-lp"}) {
      SolverOptions options;
      options.fp_mode = fp_mode;
      options.bound = bound;
      EXPECT_EQ(ValidateSolverOptions(options), "")
          << fp_mode << "/" << bound;
    }
  }
}

TEST(SolverRegistry, ExhaustiveForcesPruningOff) {
  const Instance instance = geacc::testing::PaperTableIExample();
  const auto exhaustive = CreateSolver("exhaustive");
  const SolveResult result = exhaustive->Solve(instance);
  EXPECT_EQ(result.stats.prune_events, 0);
  EXPECT_GT(result.stats.complete_searches, 0);
}

// -------------------------------------------------------- empty inputs ---

class EmptyInstanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EmptyInstanceTest, AllSolversHandleEmptySides) {
  const auto solver = CreateSolver(GetParam());
  {
    // No events.
    const Instance instance = MakeTableInstance({}, {}, {1, 1}, {});
    const SolveResult result = solver->Solve(instance);
    EXPECT_EQ(result.arrangement.size(), 0);
  }
  {
    // No users.
    const Instance instance = MakeTableInstance({{}, {}}, {1, 1}, {}, {});
    const SolveResult result = solver->Solve(instance);
    EXPECT_EQ(result.arrangement.size(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, EmptyInstanceTest,
                         ::testing::Values("greedy", "mincostflow", "prune",
                                           "exhaustive", "bruteforce",
                                           "random-v", "random-u"));

// -------------------------------------------------------- zero sims ------

class ZeroSimilarityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZeroSimilarityTest, NoPairsWhenAllSimilaritiesZero) {
  const Instance instance = MakeTableInstance(
      {{0.0, 0.0}, {0.0, 0.0}}, {2, 2}, {2, 2}, {});
  const SolveResult result = CreateSolver(GetParam())->Solve(instance);
  EXPECT_EQ(result.arrangement.size(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, ZeroSimilarityTest,
                         ::testing::Values("greedy", "mincostflow", "prune",
                                           "exhaustive", "bruteforce",
                                           "random-v", "random-u"));

// ----------------------------------------------------- complete conflicts -

TEST(Solvers, CompleteConflictGraphLimitsUsersToOneEvent) {
  // Every event pair conflicts → each user attends at most one event, no
  // matter the capacity.
  const Instance instance = MakeTableInstance(
      {{0.9, 0.8}, {0.7, 0.6}, {0.5, 0.4}}, {2, 2, 2}, {3, 3},
      {{0, 1}, {0, 2}, {1, 2}});
  for (const char* name : {"greedy", "mincostflow", "prune"}) {
    const SolveResult result = CreateSolver(name)->Solve(instance);
    EXPECT_EQ(result.arrangement.Validate(instance), "") << name;
    for (UserId u = 0; u < 2; ++u) {
      EXPECT_LE(result.arrangement.UserLoad(u), 1) << name;
    }
  }
  // The optimum assigns each user their best event: 0.9 + 0.8.
  const SolveResult optimal = CreateSolver("prune")->Solve(instance);
  EXPECT_NEAR(optimal.arrangement.MaxSum(instance), 1.7, 1e-9);
}

// ------------------------------------------------------------- greedy ----

TEST(GreedySolver, DeterministicAcrossRuns) {
  const Instance instance = SmallRandomInstance(6, 12, 0.3, 3, 1234);
  const GreedySolver solver;
  const auto a = solver.Solve(instance).arrangement.SortedPairs();
  const auto b = solver.Solve(instance).arrangement.SortedPairs();
  EXPECT_EQ(a, b);
}

TEST(GreedySolver, IndexChoiceDoesNotChangeResult) {
  // SmallRandomInstance is 3-d, where MakeIndex would pick the kd-tree;
  // greedy runs seat-filtered linear-scan cursors at every dimensionality
  // and must still admit what the sort-all specification admits.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Instance instance = SmallRandomInstance(5, 15, 0.25, 4, seed);
    ASSERT_EQ(MakeIndex(instance.user_attributes(), instance.similarity())
                  ->Name(),
              "kdtree");
    const SolveResult greedy = GreedySolver().Solve(instance);
    const SolveResult sortall =
        CreateSolver("greedy-sortall")->Solve(instance);
    EXPECT_EQ(greedy.arrangement.SortedPairs(),
              sortall.arrangement.SortedPairs())
        << "seed " << seed;
    EXPECT_EQ(greedy.arrangement.MaxSum(instance),
              sortall.arrangement.MaxSum(instance))
        << "seed " << seed;
  }
}

TEST(GreedySolver, HeapStatsPopulated) {
  const Instance instance = SmallRandomInstance(6, 12, 0.3, 3, 5);
  const SolveResult result = GreedySolver().Solve(instance);
  EXPECT_GT(result.stats.heap_pushes, 0);
  EXPECT_EQ(result.stats.heap_pushes, result.stats.heap_pops);
  EXPECT_GT(result.stats.logical_peak_bytes, 0u);
}

TEST(GreedySolver, RespectsTightCapacities) {
  // One user with capacity 1 shared by two non-conflicting events: greedy
  // must give them only the more similar event.
  const Instance instance =
      MakeTableInstance({{0.9}, {0.8}}, {1, 1}, {1}, {});
  const SolveResult result = GreedySolver().Solve(instance);
  EXPECT_EQ(result.arrangement.size(), 1);
  EXPECT_TRUE(result.arrangement.Contains(0, 0));
}

// -------------------------------------------------------- mincostflow ----

TEST(MinCostFlowSolver, OptimalWithoutConflicts) {
  // CF = ∅ → MinCostFlow-GEACC is exact (Lemma 1). Hand-checkable 2×2:
  // caps all 1, best assignment is 0.9 + 0.6 = 1.5 (not greedy's 0.9 only).
  const Instance instance = MakeTableInstance(
      {{0.9, 0.7}, {0.8, 0.1}}, {1, 1}, {1, 1}, {});
  const SolveResult result = MinCostFlowSolver().Solve(instance);
  EXPECT_NEAR(result.arrangement.MaxSum(instance), 0.7 + 0.8, 1e-9);
}

TEST(MinCostFlowSolver, StatsReportAugmentations) {
  const Instance instance = SmallRandomInstance(4, 8, 0.25, 2, 3);
  const SolveResult result = MinCostFlowSolver().Solve(instance);
  EXPECT_GT(result.stats.flow_augmentations, 0);
  EXPECT_GE(result.stats.best_delta, result.arrangement.size());
}

TEST(MinCostFlowSolver, ResolutionRemovesConflicts) {
  // M_∅ gives user 0 both conflicting events; resolution must keep only
  // the better one.
  const Instance instance =
      MakeTableInstance({{0.9}, {0.8}}, {1, 1}, {2}, {{0, 1}});
  const SolveResult result = MinCostFlowSolver().Solve(instance);
  EXPECT_EQ(result.arrangement.size(), 1);
  EXPECT_TRUE(result.arrangement.Contains(0, 0));
  EXPECT_EQ(result.stats.conflicts_resolved, 1);
}

// ------------------------------------------------- conflict resolution ---

TEST(ConflictResolution, GreedyKeepsBestIndependentSet) {
  // Events 0,1,2 for one user; 0 ⊥ 1. Sims 0.9, 0.8, 0.5 → keep {0, 2}.
  const Instance instance = MakeTableInstance(
      {{0.9}, {0.8}, {0.5}}, {1, 1, 1}, {3}, {{0, 1}});
  const std::vector<EventId> kept =
      GreedySelectNonConflicting(instance, 0, {0, 1, 2});
  EXPECT_EQ(kept, (std::vector<EventId>{0, 2}));
}

TEST(ConflictResolution, GreedyIsNotAlwaysOptimal) {
  // Greedy MWIS picks 0.9 and drops {0.8, 0.8}: documents the known
  // suboptimality of the greedy independent-set step.
  const Instance instance = MakeTableInstance(
      {{0.9}, {0.8}, {0.8}}, {1, 1, 1}, {3}, {{0, 1}, {0, 2}});
  const std::vector<EventId> kept =
      GreedySelectNonConflicting(instance, 0, {0, 1, 2});
  EXPECT_EQ(kept, (std::vector<EventId>{0}));
}

// ------------------------------------------------------------- prune -----

TEST(PruneSolver, AblationsAllReachTheOptimum) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const Instance instance = SmallRandomInstance(4, 6, 0.3, 2, seed);
    const double reference = CreateSolver("bruteforce")
                                 ->Solve(instance)
                                 .arrangement.MaxSum(instance);
    for (const bool greedy_seed : {true, false}) {
      for (const bool ordering : {true, false}) {
        SolverOptions options;
        options.enable_greedy_seed = greedy_seed;
        options.enable_event_ordering = ordering;
        const PruneSolver solver(options);
        EXPECT_NEAR(solver.Solve(instance).arrangement.MaxSum(instance),
                    reference, 1e-9)
            << "seed " << seed << " greedy_seed " << greedy_seed
            << " ordering " << ordering;
      }
    }
  }
}

TEST(PruneSolver, PruningReducesSearchInvocations) {
  const Instance instance = SmallRandomInstance(4, 7, 0.25, 2, 42);
  const SolveResult pruned = CreateSolver("prune")->Solve(instance);
  const SolveResult exhaustive = CreateSolver("exhaustive")->Solve(instance);
  EXPECT_GT(pruned.stats.prune_events, 0);
  EXPECT_LT(pruned.stats.search_invocations,
            exhaustive.stats.search_invocations);
  EXPECT_LE(pruned.stats.complete_searches,
            exhaustive.stats.complete_searches);
  EXPECT_NEAR(pruned.arrangement.MaxSum(instance),
              exhaustive.arrangement.MaxSum(instance), 1e-9);
}

TEST(PruneSolver, DepthNeverExceedsPairCount) {
  const Instance instance = SmallRandomInstance(3, 5, 0.5, 2, 7);
  const SolveResult result = CreateSolver("prune")->Solve(instance);
  EXPECT_LE(result.stats.max_depth, 3 * 5);
  EXPECT_GT(result.stats.max_depth, 0);
  EXPECT_LE(result.stats.MeanPruneDepth(),
            static_cast<double>(result.stats.max_depth));
}

TEST(PruneSolver, TruncationReturnsFeasibleSeed) {
  const Instance instance = SmallRandomInstance(5, 10, 0.25, 3, 9);
  SolverOptions options;
  options.max_search_invocations = 100;
  const PruneSolver solver(options);
  const SolveResult result = solver.Solve(instance);
  EXPECT_TRUE(result.stats.search_truncated);
  EXPECT_EQ(result.arrangement.Validate(instance), "");
  // The greedy seed guarantees a non-trivial matching even when truncated.
  EXPECT_GT(result.arrangement.size(), 0);
}

// ------------------------------------------------------------- random ----

TEST(RandomSolvers, DeterministicPerSeedAndSeedSensitive) {
  const Instance instance = SmallRandomInstance(6, 20, 0.25, 3, 11);
  SolverOptions seed_a, seed_b;
  seed_a.seed = 1;
  seed_b.seed = 2;
  const auto va1 = RandomVSolver(seed_a).Solve(instance).arrangement;
  const auto va2 = RandomVSolver(seed_a).Solve(instance).arrangement;
  const auto vb = RandomVSolver(seed_b).Solve(instance).arrangement;
  EXPECT_EQ(va1.SortedPairs(), va2.SortedPairs());
  EXPECT_NE(va1.SortedPairs(), vb.SortedPairs());
}

TEST(RandomSolvers, OutputsAreFeasible) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Instance instance = SmallRandomInstance(5, 15, 0.5, 3, seed);
    for (const char* name : {"random-v", "random-u"}) {
      SolverOptions options;
      options.seed = seed;
      const SolveResult result =
          CreateSolver(name, options)->Solve(instance);
      EXPECT_EQ(result.arrangement.Validate(instance), "")
          << name << " seed " << seed;
    }
  }
}

TEST(RandomSolvers, ExpectedMatchRateRoughlyCapacityBound) {
  // Random-V offers each user with probability c_v/|U|, so matched pairs
  // per event ≈ c_v when constraints rarely bind. With huge user
  // capacities and no conflicts the match count approaches Σ c_v.
  const int users = 2000;
  std::vector<std::vector<double>> table(1, std::vector<double>(users, 0.5));
  std::vector<int> user_caps(users, 10);
  const Instance instance = MakeTableInstance(table, {100}, user_caps, {});
  SolverOptions options;
  options.seed = 3;
  const SolveResult result = RandomVSolver(options).Solve(instance);
  EXPECT_NEAR(static_cast<double>(result.arrangement.size()), 100.0, 30.0);
}

}  // namespace
}  // namespace geacc
