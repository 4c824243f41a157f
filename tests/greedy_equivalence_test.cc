// Property test: Greedy-GEACC (Algorithm 2's lazy heap over seat-filtered
// per-event NN cursors) must produce the *identical* matching to the
// sort-all greedy specification (sort every positive pair globally, add
// feasible pairs in order). Feasibility is monotone, so both define
// "repeatedly add the most similar addable pair" — any divergence is a bug
// in the heap/cursor machinery. Swept over sizes, conflict densities,
// capacities, seeds and two dimensionalities, then over instances large
// enough that the cursors refill many times, including a tie-heavy one.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/solvers.h"
#include "core/conflict_graph.h"
#include "gen/ebsn.h"
#include "gen/synthetic.h"
#include "obs/stats.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace geacc {
namespace {

using Param = std::tuple<int, int, double, uint64_t>;  // |V|, |U|, rho, seed

class GreedyEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(GreedyEquivalenceTest, HeapGreedyEqualsSortAllGreedy) {
  const auto& [num_events, num_users, density, seed] = GetParam();
  for (const int dim : {3, 4}) {
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

// |U| = 3,000 users with one or two seats and events with up to 200: the
// seats run out near the top of most events' lists, so each event's cursor
// refills several times (the sweep above, at |U| <= 120, never gets past
// an event's second refill).
TEST(GreedyEquivalence, HoldsWhereCursorsRunDeep) {
  constexpr int kEvents = 60;
  constexpr int kUsers = 3000;
  std::vector<std::pair<std::string, Instance>> instances;
  for (const double density : {0.0, 0.5, 1.0}) {
    for (const int dim : {2, 20}) {
      SyntheticConfig config;
      config.num_events = kEvents;
      config.num_users = kUsers;
      config.dim = dim;
      config.max_attribute = 100.0;
      config.event_attribute = DistributionSpec::Uniform(0.0, 100.0);
      config.user_attribute = DistributionSpec::Uniform(0.0, 100.0);
      config.event_capacity = DistributionSpec::Uniform(1.0, 200.0);
      config.user_capacity = DistributionSpec::Uniform(1.0, 2.0);
      config.conflict_density = density;
      config.seed = 4100 + dim;
      instances.emplace_back(
          "rho=" + std::to_string(density) + " d=" + std::to_string(dim),
          GenerateSynthetic(config));
    }
  }
  {
    // Ties everywhere: 1-d integer attributes in [0, 8] leave nine
    // distances, so at most nine similarity values, and admission order
    // rests on the id tie-breaks.
    Rng rng(4242);
    AttributeMatrix events(kEvents, 1);
    AttributeMatrix users(kUsers, 1);
    std::vector<int> event_capacities(kEvents);
    std::vector<int> user_capacities(kUsers);
    for (EventId v = 0; v < kEvents; ++v) {
      events.Set(v, 0, static_cast<double>(rng.UniformInt(0, 8)));
      event_capacities[v] = static_cast<int>(rng.UniformInt(1, 200));
    }
    for (UserId u = 0; u < kUsers; ++u) {
      users.Set(u, 0, static_cast<double>(rng.UniformInt(0, 8)));
      user_capacities[u] = static_cast<int>(rng.UniformInt(1, 2));
    }
    ConflictGraph conflicts(kEvents);
    for (EventId a = 0; a < kEvents; ++a) {
      for (EventId b = a + 1; b < kEvents; ++b) {
        if (rng.UniformInt(0, 1) == 1) conflicts.AddConflict(a, b);
      }
    }
    instances.emplace_back(
        "ties", Instance(std::move(events), event_capacities,
                         std::move(users), user_capacities,
                         std::move(conflicts),
                         std::make_unique<EuclideanSimilarity>(8.0)));
  }
  for (const auto& [name, instance] : instances) {
    const obs::StatsScope scope;
    const auto heap = CreateSolver("greedy")->Solve(instance);
    const obs::StatsSnapshot delta = scope.Harvest();
    const auto sorted = CreateSolver("greedy-sortall")->Solve(instance);
    EXPECT_EQ(heap.arrangement.SortedPairs(), sorted.arrangement.SortedPairs())
        << name;
    EXPECT_EQ(heap.arrangement.MaxSum(instance),
              sorted.arrangement.MaxSum(instance))
        << name;
#if !defined(GEACC_NO_STATS)
    const auto refills = delta.counters.find("index.linear.refills");
    ASSERT_NE(refills, delta.counters.end()) << name;
    EXPECT_GT(refills->second, kEvents) << name;
#endif
  }
}

}  // namespace
}  // namespace geacc
