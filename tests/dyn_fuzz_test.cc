// Randomized mutation-trace fuzzing of the dynamic engine: after every
// single Apply() the maintained arrangement must be feasible for the live
// instance and the incrementally tracked MaxSum must match a from-scratch
// recompute — across index backends, tight repair budgets, and aggressive
// drift fallbacks.

#include <gtest/gtest.h>

#include <vector>

#include "algo/solvers.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "gen/trace_gen.h"

namespace geacc {
namespace {

TraceGenConfig SmallChurnConfig(uint64_t seed) {
  TraceGenConfig config;
  config.initial_events = 8;
  config.initial_users = 40;
  config.dim = 4;
  config.num_mutations = 120;
  config.seed = seed;
  return config;
}

// Replays `trace` under `options`, asserting the invariants at every epoch.
void ReplayAndCheck(const MutationTrace& trace, const RepairOptions& options) {
  DynamicInstance dynamic(trace.initial);
  IncrementalArranger arranger(&dynamic, options);
  arranger.FullResolve();
  ASSERT_EQ(arranger.Validate(), "") << "after bootstrap";
  for (size_t i = 0; i < trace.mutations.size(); ++i) {
    arranger.Apply(trace.mutations[i]);
    ASSERT_EQ(arranger.Validate(), "")
        << "epoch " << i + 1 << ": " << trace.mutations[i].DebugString();
    ASSERT_NEAR(arranger.max_sum(), arranger.RecomputeMaxSum(), 1e-9)
        << "epoch " << i + 1;
  }
  EXPECT_EQ(arranger.stats().mutations,
            static_cast<int64_t>(trace.mutations.size()));
}

TEST(DynFuzz, DefaultOptionsStayFeasibleAndConsistent) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const MutationTrace trace = GenerateTrace(SmallChurnConfig(seed));
    ReplayAndCheck(trace, RepairOptions{});
  }
}

TEST(DynFuzz, TinyRepairBudgetNeverBreaksFeasibility) {
  RepairOptions options;
  options.repair_budget = 3;
  options.drift_threshold = 0.0;
  for (uint64_t seed = 10; seed <= 12; ++seed) {
    const MutationTrace trace = GenerateTrace(SmallChurnConfig(seed));
    ReplayAndCheck(trace, options);
  }
}

TEST(DynFuzz, AggressiveDriftFallbackStaysConsistent) {
  RepairOptions options;
  options.drift_threshold = 0.001;
  const MutationTrace trace = GenerateTrace(SmallChurnConfig(20));
  ReplayAndCheck(trace, options);
}

TEST(DynFuzz, GeneratorIsDeterministic) {
  const TraceGenConfig config = SmallChurnConfig(7);
  const MutationTrace a = GenerateTrace(config);
  const MutationTrace b = GenerateTrace(config);
  ASSERT_EQ(a.mutations.size(), b.mutations.size());
  for (size_t i = 0; i < a.mutations.size(); ++i) {
    EXPECT_EQ(a.mutations[i].DebugString(), b.mutations[i].DebugString())
        << "mutation " << i;
  }
}

TEST(DynFuzz, GeneratedMutationsReplayCleanlyThroughTheInstance) {
  // Every generated mutation must be valid at its epoch even without the
  // arranger in the loop (ids alive, capacities >= 1).
  const MutationTrace trace = GenerateTrace(SmallChurnConfig(40));
  DynamicInstance dynamic(trace.initial);
  for (const Mutation& mutation : trace.mutations) {
    dynamic.Apply(mutation);
  }
  EXPECT_EQ(dynamic.epoch(),
            static_cast<int64_t>(trace.mutations.size()));
}

TEST(DynFuzz, FinalQualityTracksTheOracle) {
  // With the default drift fallback the maintained MaxSum should stay
  // close to a from-scratch greedy solve of the final instance.
  const MutationTrace trace = GenerateTrace(SmallChurnConfig(50));
  DynamicInstance dynamic(trace.initial);
  IncrementalArranger arranger(&dynamic);  // drift_threshold = 0.1
  arranger.FullResolve();
  for (const Mutation& mutation : trace.mutations) {
    arranger.Apply(mutation);
  }
  const Instance final_state = dynamic.Snapshot();
  const double oracle = CreateSolver("greedy")
                            ->Solve(final_state)
                            .arrangement.MaxSum(final_state);
  EXPECT_GE(arranger.max_sum(), 0.80 * oracle);
}

}  // namespace
}  // namespace geacc
