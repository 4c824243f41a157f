// Cross-checks between the two min-cost-flow engines — the generic
// Dijkstra engine over a FlowGraph (tests/flow/min_cost_flow.h, the
// reference) and the library's dense transport engine
// (flow/transport_ssp.h) — on small random networks, and tests of exact
// conflict resolution.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "algo/conflict_resolution.h"
#include "algo/min_cost_flow_solver.h"
#include "flow/transport_ssp.h"
#include "simd/simd.h"
#include "tests/flow/graph.h"
#include "tests/flow/min_cost_flow.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace geacc {
namespace {

using geacc::testing::MakeTableInstance;
using geacc::testing::SmallRandomInstance;

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

std::vector<uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<uint64_t> out;
  for (const double x : xs) out.push_back(Bits(x));
  return out;
}

// source → events (capacity 1..3) → users (capacity 1, cost in [0, 1))
// → sink (capacity 1..2), drawn in that order.
struct Bipartite {
  int events = 0;
  int users = 0;
  std::vector<int64_t> event_capacity;
  std::vector<double> costs;  // row-major |V|×|U|
  std::vector<int64_t> user_capacity;
};

Bipartite RandomBipartite(int events, int users, uint64_t seed) {
  Rng rng(seed);
  Bipartite net;
  net.events = events;
  net.users = users;
  for (int v = 0; v < events; ++v) {
    net.event_capacity.push_back(rng.UniformInt(1, 3));
  }
  for (int pair = 0; pair < events * users; ++pair) {
    net.costs.push_back(rng.NextDouble());
  }
  for (int u = 0; u < users; ++u) {
    net.user_capacity.push_back(rng.UniformInt(1, 2));
  }
  return net;
}

// The same network as a FlowGraph, in TransportSsp's node numbering:
// 0 = source, 1..|V| events, |V|+1..|V|+|U| users, |V|+|U|+1 = sink.
FlowGraph BuildGraph(const Bipartite& net) {
  FlowGraph graph(net.events + net.users + 2);
  for (int v = 0; v < net.events; ++v) {
    graph.AddArc(0, 1 + v, net.event_capacity[v], 0.0);
  }
  for (int v = 0; v < net.events; ++v) {
    for (int u = 0; u < net.users; ++u) {
      graph.AddArc(1 + v, 1 + net.events + u, 1,
                   net.costs[static_cast<size_t>(v) * net.users + u]);
    }
  }
  for (int u = 0; u < net.users; ++u) {
    graph.AddArc(1 + net.events + u, net.events + net.users + 1,
                 net.user_capacity[u], 0.0);
  }
  return graph;
}

// Runs AugmentIfCheaper(cost_limit) on both engines side by side until
// the generic one stops, comparing the return value, the path and the bits
// of its cost and of every potential after each call.
void RunLockstep(const Bipartite& net, double cost_limit,
                 const std::string& mode) {
  FlowGraph graph = BuildGraph(net);
  SuccessiveShortestPaths generic(&graph, 0, net.events + net.users + 1);
  TransportSsp dense(net.costs.data(), net.event_capacity, net.user_capacity);
  for (int step = 0;; ++step) {
    const std::string at = mode + " step " + std::to_string(step);
    const int64_t pushed = generic.AugmentIfCheaper(cost_limit);
    EXPECT_EQ(dense.AugmentIfCheaper(cost_limit), pushed) << at;
    EXPECT_EQ(dense.LastPath(), generic.LastPath()) << at;
    EXPECT_EQ(Bits(dense.last_path_cost()), Bits(generic.last_path_cost()))
        << at;
    EXPECT_EQ(Bits(dense.potentials()), Bits(generic.potentials())) << at;
    if (pushed == 0 || ::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(dense.total_flow(), generic.total_flow()) << mode;
  EXPECT_EQ(Bits(dense.total_cost()), Bits(generic.total_cost())) << mode;
}

// RunLockstep at the scalar and the auto dispatch level (TransportSsp's
// row kernel is dispatched; the generic engine is not).
void RunAtEveryLevel(const Bipartite& net, double cost_limit) {
  for (const char* mode : {"scalar", "auto"}) {
    std::string error;
    EXPECT_TRUE(simd::SetDispatchOverride(mode, &error)) << error;
    RunLockstep(net, cost_limit, mode);
  }
  std::string error;
  EXPECT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

class FlowEngineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlowEngineAgreementTest, PerUnitCostsAgree) {
  // No cost limit: both engines run to maximum flow.
  RunAtEveryLevel(RandomBipartite(4, 7, GetParam()),
                  std::numeric_limits<double>::infinity());
}

TEST_P(FlowEngineAgreementTest, ProfitableSweepAgrees) {
  // The sweep stops at the first path costing 0.8 or more.
  RunAtEveryLevel(RandomBipartite(5, 8, GetParam() + 333), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowEngineAgreementTest,
                         ::testing::Range<uint64_t>(0, 15));

// ------------------------------------------ exact conflict resolution ----

TEST(ExactConflictResolution, BeatsGreedyOnItsWorstCase) {
  // Greedy keeps {0.9}; exact keeps {0.8, 0.8}.
  const Instance instance = MakeTableInstance(
      {{0.9}, {0.8}, {0.8}}, {1, 1, 1}, {3}, {{0, 1}, {0, 2}});
  const auto greedy = GreedySelectNonConflicting(instance, 0, {0, 1, 2});
  const auto exact = ExactSelectNonConflicting(instance, 0, {0, 1, 2});
  EXPECT_EQ(greedy, (std::vector<EventId>{0}));
  EXPECT_EQ(exact, (std::vector<EventId>{1, 2}));
}

TEST(ExactConflictResolution, EmptyAndSingleton) {
  const Instance instance = MakeTableInstance({{0.5}}, {1}, {1}, {});
  EXPECT_TRUE(ExactSelectNonConflicting(instance, 0, {}).empty());
  EXPECT_EQ(ExactSelectNonConflicting(instance, 0, {0}),
            (std::vector<EventId>{0}));
}

TEST(ExactConflictResolution, NeverWorseThanGreedyProperty) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const Instance instance = SmallRandomInstance(8, 1, 0.5, 8, seed + 50);
    std::vector<EventId> all_events;
    for (EventId v = 0; v < instance.num_events(); ++v) {
      if (instance.Similarity(v, 0) > 0.0) all_events.push_back(v);
    }
    auto weight_of = [&](const std::vector<EventId>& events) {
      double sum = 0.0;
      for (const EventId v : events) sum += instance.Similarity(v, 0);
      return sum;
    };
    const double greedy =
        weight_of(GreedySelectNonConflicting(instance, 0, all_events));
    const double exact =
        weight_of(ExactSelectNonConflicting(instance, 0, all_events));
    EXPECT_GE(exact, greedy - 1e-12) << "seed " << seed;
  }
}

TEST(MinCostFlowSolver, ExactResolutionNeverWorseEndToEnd) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Instance instance = SmallRandomInstance(6, 10, 0.6, 4, seed + 9);
    SolverOptions greedy_options, exact_options;
    exact_options.exact_conflict_resolution = true;
    const double greedy = MinCostFlowSolver(greedy_options)
                              .Solve(instance)
                              .arrangement.MaxSum(instance);
    const SolveResult exact = MinCostFlowSolver(exact_options).Solve(instance);
    EXPECT_EQ(exact.arrangement.Validate(instance), "");
    EXPECT_GE(exact.arrangement.MaxSum(instance), greedy - 1e-9)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace geacc
