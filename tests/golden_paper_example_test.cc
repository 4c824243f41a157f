// Golden tests pinning the paper's running example (Table I, Examples
// 1–3): the exact optimum is 4.39, MinCostFlow-GEACC returns 4.13, and
// Greedy-GEACC returns 4.28.

#include <gtest/gtest.h>

#include "algo/greedy_solver.h"
#include "algo/min_cost_flow_solver.h"
#include "algo/prune_solver.h"
#include "algo/solvers.h"
#include "tests/test_util.h"

namespace geacc {
namespace {

constexpr double kTol = 1e-9;

TEST(PaperExample, InstanceShape) {
  const Instance instance = testing::PaperTableIExample();
  EXPECT_EQ(instance.num_events(), 3);
  EXPECT_EQ(instance.num_users(), 5);
  EXPECT_EQ(instance.max_user_capacity(), 3);
  EXPECT_TRUE(instance.conflicts().AreConflicting(0, 2));
  EXPECT_FALSE(instance.conflicts().AreConflicting(0, 1));
  EXPECT_NEAR(instance.Similarity(0, 0), 0.93, kTol);
  EXPECT_NEAR(instance.Similarity(1, 0), 0.0, kTol);
  EXPECT_NEAR(instance.Similarity(2, 4), 0.68, kTol);
  EXPECT_EQ(instance.Validate(), "");
}

TEST(PaperExample, ExactOptimumIs439) {
  const Instance instance = testing::PaperTableIExample();
  for (const char* name : {"prune", "exhaustive", "bruteforce"}) {
    const auto solver = CreateSolver(name);
    const SolveResult result = solver->Solve(instance);
    EXPECT_EQ(result.arrangement.Validate(instance), "") << name;
    EXPECT_NEAR(result.arrangement.MaxSum(instance), 4.39, kTol) << name;
  }
}

TEST(PaperExample, MinCostFlowReturns413) {
  const MinCostFlowSolver solver;
  const SolveResult result = solver.Solve(testing::PaperTableIExample());
  const Instance instance = testing::PaperTableIExample();
  EXPECT_EQ(result.arrangement.Validate(instance), "");
  EXPECT_NEAR(result.arrangement.MaxSum(instance), 4.13, kTol);
}

// Example 2: the conflict-oblivious matching M_∅ assigns u1 to both v1 and
// v3 (which the resolution step then untangles), and upper-bounds OPT
// (Corollary 1).
TEST(PaperExample, ConflictObliviousMatchingMatchesExample2) {
  const Instance instance = testing::PaperTableIExample();
  const MinCostFlowSolver solver;
  SolverStats stats;
  const Arrangement m0 = solver.SolveWithoutConflicts(instance, &stats);
  EXPECT_TRUE(m0.Contains(0, 0));  // {v1, u1}
  EXPECT_TRUE(m0.Contains(2, 0));  // {v3, u1}
  EXPECT_GE(m0.MaxSum(instance), 4.39 - kTol);
}

TEST(PaperExample, GreedyReturns428) {
  const GreedySolver solver;
  const Instance instance = testing::PaperTableIExample();
  const SolveResult result = solver.Solve(instance);
  EXPECT_EQ(result.arrangement.Validate(instance), "");
  EXPECT_NEAR(result.arrangement.MaxSum(instance), 4.28, kTol);
}

// Example 3's first iterations: {v1,u1} is matched first, then {v3,u1} is
// popped but rejected because v3 conflicts with the already-matched v1.
TEST(PaperExample, GreedyMatchesExample3Trace) {
  const GreedySolver solver;
  const Instance instance = testing::PaperTableIExample();
  const SolveResult result = solver.Solve(instance);
  EXPECT_TRUE(result.arrangement.Contains(0, 0));   // {v1, u1}
  EXPECT_FALSE(result.arrangement.Contains(2, 0));  // {v3, u1} rejected
  EXPECT_TRUE(result.arrangement.Contains(0, 2));   // {v1, u3} (3rd pop)
}

// Both approximation guarantees hold on the example (they must — the
// optimum is known): Greedy ≥ OPT/(1+α), MCF ≥ OPT/α with α = max c_u = 3.
TEST(PaperExample, ApproximationRatiosHold) {
  const Instance instance = testing::PaperTableIExample();
  EXPECT_GE(4.28, 4.39 / (1 + 3) - kTol);
  EXPECT_GE(4.13, 4.39 / 3 - kTol);
}

}  // namespace
}  // namespace geacc
