// Tests of the benchmark's own correctness gates: the MaxSum upper bound
// behind quality_ratio, and the audit gate every solve and the final serve
// snapshot pass through.

#include <algorithm>
#include <memory>
#include <vector>

#include "algo/solvers.h"
#include "gen/synthetic.h"
#include "gtest/gtest.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace geacc::perfbench {
namespace {

SyntheticConfig TinyConfig(uint64_t seed) {
  SyntheticConfig config;
  config.num_events = 4;
  config.num_users = 6;
  config.dim = 3;
  config.event_capacity = DistributionSpec::Uniform(1.0, 3.0);
  config.user_capacity = DistributionSpec::Uniform(1.0, 3.0);
  config.conflict_density = 0.5;
  config.seed = seed;
  return config;
}

TEST(MaxSumUpperBoundTest, CoversTheBruteForceOptimum) {
  const std::unique_ptr<Solver> exact = CreateSolver("bruteforce");
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Instance instance = GenerateSynthetic(TinyConfig(seed));
    const double optimum = exact->Solve(instance).arrangement.MaxSum(instance);
    EXPECT_GE(MaxSumUpperBound(instance), optimum - 1e-12) << "seed " << seed;
  }
}

TEST(MaxSumUpperBoundTest, IsTheSmallerCapacitySide) {
  // Two events (cap 1 each), one user (cap 2), no conflicts: the event
  // side allows both pairs, the user side too, so the bound is the sum.
  InstanceBuilder builder;
  builder.AddEvent({0.0}, 1);
  builder.AddEvent({1.0}, 1);
  builder.AddUser({0.0}, 2);
  const Instance both = builder.Build();
  EXPECT_DOUBLE_EQ(MaxSumUpperBound(both),
                   both.Similarity(0, 0) + both.Similarity(1, 0));
  // With c_u = 1 only the user's best pair fits.
  InstanceBuilder narrow;
  narrow.AddEvent({0.0}, 1);
  narrow.AddEvent({1.0}, 1);
  narrow.AddUser({0.0}, 1);
  const Instance one = narrow.Build();
  EXPECT_DOUBLE_EQ(MaxSumUpperBound(one),
                   std::max(one.Similarity(0, 0), one.Similarity(1, 0)));
}

TEST(AuditGateTest, PassesSolverOutput) {
  const Instance instance = GenerateSynthetic(TinyConfig(7));
  const Arrangement arrangement =
      CreateSolver("greedy")->Solve(instance).arrangement;
  EXPECT_EQ(AuditGate(instance, arrangement, /*check_maximality=*/true,
                      MaxSumUpperBound(instance)),
            "");
}

TEST(AuditGateTest, FailsAnArrangementWithAnInjectedPair) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance instance = GenerateSynthetic(TinyConfig(seed));
    const Arrangement solved =
        CreateSolver("greedy")->Solve(instance).arrangement;
    const std::vector<std::pair<EventId, UserId>> pairs = solved.SortedPairs();
    ASSERT_FALSE(pairs.empty());
    const double bound = MaxSumUpperBound(instance);
    // A pair already held: a duplicate.
    Arrangement duplicate = solved;
    duplicate.AddUnchecked(pairs.front().first, pairs.front().second);
    EXPECT_NE(AuditGate(instance, duplicate, false, bound), "")
        << "seed " << seed;
    // A pair not held: greedy output is maximal, so it must break a
    // capacity, a conflict or positivity.
    for (EventId v = 0; v < instance.num_events(); ++v) {
      for (UserId u = 0; u < instance.num_users(); ++u) {
        if (solved.Contains(v, u)) continue;
        Arrangement injected = solved;
        injected.AddUnchecked(v, u);
        EXPECT_NE(AuditGate(instance, injected, false, bound), "")
            << "seed " << seed << " pair (" << v << ", " << u << ")";
      }
    }
  }
}

TEST(AuditGateTest, FailsAMaxSumAboveTheBound) {
  const Instance instance = GenerateSynthetic(TinyConfig(3));
  const Arrangement solved =
      CreateSolver("greedy")->Solve(instance).arrangement;
  const double max_sum = solved.MaxSum(instance);
  ASSERT_GT(max_sum, 0.0);
  EXPECT_NE(AuditGate(instance, solved, /*check_maximality=*/false,
                      0.5 * max_sum),
            "");
}

TEST(QuantileTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles(values, n=4)[0] for 8 and 11 values.
  EXPECT_DOUBLE_EQ(Quantile({8, 1, 7, 2, 6, 3, 5, 4}, 0.25), 2.25);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.25), 3.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5, 6, 7, 8}, 0.75), 6.75);
  EXPECT_DOUBLE_EQ(Quantile({4.0}, 0.25), 4.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.25), 0.0);
}

TEST(InputSeedTest, DistinctAndReproducible) {
  EXPECT_EQ(InputSeed(5, 3), InputSeed(5, 3));
  EXPECT_NE(InputSeed(5, 3), InputSeed(5, 4));
  EXPECT_NE(InputSeed(5, 3), InputSeed(6, 3));
}

}  // namespace
}  // namespace geacc::perfbench
