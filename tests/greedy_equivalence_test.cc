// Property test: Greedy-GEACC (Algorithm 2's lazy heap over incremental NN
// cursors) must produce the *identical* matching to the sort-all greedy
// specification (sort every positive pair globally, add feasible pairs in
// order). Feasibility is monotone, so both define "repeatedly add the most
// similar addable pair" — any divergence is a bug in the heap/cursor
// machinery. Swept over sizes, conflict densities, capacities, seeds, and
// dimensionality on both sides of kKdTreeMaxDim, so greedy's cursors run
// over both k-NN backends MakeIndex can pick.

#include <gtest/gtest.h>

#include <tuple>

#include "algo/solvers.h"
#include "gen/ebsn.h"
#include "gen/synthetic.h"
#include "index/knn_index.h"
#include "tests/test_util.h"

namespace geacc {
namespace {

using Param = std::tuple<int, int, double, uint64_t>;  // |V|, |U|, rho, seed

class GreedyEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(GreedyEquivalenceTest, HeapGreedyEqualsSortAllGreedy) {
  const auto& [num_events, num_users, density, seed] = GetParam();
  for (const int dim : {kKdTreeMaxDim, kKdTreeMaxDim + 1}) {
    SyntheticConfig config;
    config.num_events = num_events;
    config.num_users = num_users;
    config.dim = dim;
    config.max_attribute = 100.0;
    config.event_attribute = DistributionSpec::Uniform(0.0, 100.0);
    config.user_attribute = DistributionSpec::Uniform(0.0, 100.0);
    config.event_capacity = DistributionSpec::Uniform(1.0, 8.0);
    config.user_capacity = DistributionSpec::Uniform(1.0, 4.0);
    config.conflict_density = density;
    config.seed = seed * 997 + 13;
    const Instance instance = GenerateSynthetic(config);

    const auto heap = CreateSolver("greedy")->Solve(instance);
    const auto sorted = CreateSolver("greedy-sortall")->Solve(instance);
    EXPECT_EQ(heap.arrangement.SortedPairs(), sorted.arrangement.SortedPairs())
        << "d=" << dim;
    EXPECT_EQ(sorted.arrangement.Validate(instance), "") << "d=" << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyEquivalenceTest,
    ::testing::Combine(::testing::Values(3, 10, 40),
                       ::testing::Values(5, 30, 120),
                       ::testing::Values(0.0, 0.4, 1.0),
                       ::testing::Values(1, 2, 3)));

TEST(GreedyEquivalence, HoldsOnEbsnData) {
  EbsnConfig config = EbsnCityPreset("auckland");
  config.seed = 23;
  const Instance instance = GenerateEbsn(config);
  const auto heap = CreateSolver("greedy")->Solve(instance);
  const auto sorted = CreateSolver("greedy-sortall")->Solve(instance);
  EXPECT_EQ(heap.arrangement.SortedPairs(), sorted.arrangement.SortedPairs());
}

TEST(GreedyEquivalence, HoldsOnPaperExample) {
  const Instance instance = geacc::testing::PaperTableIExample();
  const auto heap = CreateSolver("greedy")->Solve(instance);
  const auto sorted = CreateSolver("greedy-sortall")->Solve(instance);
  EXPECT_EQ(heap.arrangement.SortedPairs(), sorted.arrangement.SortedPairs());
  EXPECT_NEAR(sorted.arrangement.MaxSum(instance), 4.28, 1e-9);
}

}  // namespace
}  // namespace geacc
