// Unit and property tests for the flow substrate.
//
// The property tests cross-check SSPA (Dijkstra + potentials) against an
// independent Bellman–Ford successive-shortest-path implementation written
// here, on random bipartite networks.

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "tests/flow/graph.h"
#include "tests/flow/min_cost_flow.h"
#include "util/rng.h"

namespace geacc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------- FlowGraph ----

TEST(FlowGraph, ArcPairing) {
  FlowGraph graph(3);
  const int arc = graph.AddArc(0, 1, 5, 2.5);
  EXPECT_EQ(arc, 0);
  EXPECT_EQ(graph.Head(arc), 1);
  EXPECT_EQ(graph.Tail(arc), 0);
  EXPECT_EQ(graph.Head(arc ^ 1), 0);
  EXPECT_DOUBLE_EQ(graph.Cost(arc), 2.5);
  EXPECT_DOUBLE_EQ(graph.Cost(arc ^ 1), -2.5);
  EXPECT_EQ(graph.ResidualCapacity(arc), 5);
  EXPECT_EQ(graph.ResidualCapacity(arc ^ 1), 0);
  EXPECT_EQ(graph.Flow(arc), 0);
}

TEST(FlowGraph, PushMovesResidual) {
  FlowGraph graph(2);
  const int arc = graph.AddArc(0, 1, 3, 1.0);
  graph.Push(arc, 2);
  EXPECT_EQ(graph.ResidualCapacity(arc), 1);
  EXPECT_EQ(graph.Flow(arc), 2);
  graph.Push(arc ^ 1, 1);  // undo one unit
  EXPECT_EQ(graph.Flow(arc), 1);
}

TEST(FlowGraph, NegativeCostFlag) {
  FlowGraph graph(2);
  graph.AddArc(0, 1, 1, 1.0);
  EXPECT_FALSE(graph.HasNegativeCost());
  graph.AddArc(0, 1, 1, -1.0);
  EXPECT_TRUE(graph.HasNegativeCost());
}

// ----------------------------------------------------------- SSPA unit ---

TEST(Sspa, SimplePath) {
  FlowGraph graph(3);
  graph.AddArc(0, 1, 2, 1.0);
  graph.AddArc(1, 2, 2, 1.0);
  SuccessiveShortestPaths sspa(&graph, 0, 2);
  EXPECT_EQ(sspa.RunToMaxFlow(), 2);
  EXPECT_DOUBLE_EQ(sspa.total_cost(), 4.0);
}

TEST(Sspa, PicksCheaperPathFirst) {
  FlowGraph graph(4);
  graph.AddArc(0, 1, 1, 1.0);  // s -> a (cheap)
  graph.AddArc(1, 3, 1, 0.0);
  graph.AddArc(0, 2, 1, 3.0);  // s -> b (expensive)
  graph.AddArc(2, 3, 1, 0.0);
  SuccessiveShortestPaths sspa(&graph, 0, 3);
  EXPECT_EQ(sspa.Augment(1), 1);
  EXPECT_DOUBLE_EQ(sspa.total_cost(), 1.0);
  EXPECT_EQ(sspa.Augment(1), 1);
  EXPECT_DOUBLE_EQ(sspa.total_cost(), 4.0);
  EXPECT_EQ(sspa.Augment(1), 0);  // max flow reached
}

TEST(Sspa, ReroutesThroughResidualArc) {
  // Bipartite 2×2 with unit caps: v1 is cheap to u1 but must yield it to
  // v2 on the second augmentation (classic residual rerouting).
  //   nodes: 0=s, 1=v1, 2=v2, 3=u1, 4=u2, 5=t
  FlowGraph graph(6);
  graph.AddArc(0, 1, 1, 0.0);
  graph.AddArc(0, 2, 1, 0.0);
  const int v1u1 = graph.AddArc(1, 3, 1, 0.0);
  const int v1u2 = graph.AddArc(1, 4, 1, 1.0);
  const int v2u1 = graph.AddArc(2, 3, 1, 0.5);
  graph.AddArc(3, 5, 1, 0.0);
  graph.AddArc(4, 5, 1, 0.0);
  SuccessiveShortestPaths sspa(&graph, 0, 5);
  EXPECT_EQ(sspa.RunToMaxFlow(), 2);
  EXPECT_DOUBLE_EQ(sspa.total_cost(), 1.5);
  EXPECT_EQ(graph.Flow(v1u1), 0);  // rerouted away
  EXPECT_EQ(graph.Flow(v1u2), 1);
  EXPECT_EQ(graph.Flow(v2u1), 1);
}

TEST(Sspa, DisconnectedSinkGivesZeroFlow) {
  FlowGraph graph(3);
  graph.AddArc(0, 1, 1, 0.0);  // sink 2 unreachable
  SuccessiveShortestPaths sspa(&graph, 0, 2);
  EXPECT_EQ(sspa.RunToMaxFlow(), 0);
  EXPECT_DOUBLE_EQ(sspa.total_cost(), 0.0);
}

TEST(Sspa, NegativeCostsViaBellmanFordBootstrap) {
  FlowGraph graph(4);
  graph.AddArc(0, 1, 1, -2.0);
  graph.AddArc(1, 3, 1, 1.0);
  graph.AddArc(0, 2, 1, 0.0);
  graph.AddArc(2, 3, 1, 0.5);
  SuccessiveShortestPaths sspa(&graph, 0, 3);
  EXPECT_EQ(sspa.Augment(1), 1);
  EXPECT_DOUBLE_EQ(sspa.total_cost(), -1.0);  // the negative path first
  EXPECT_EQ(sspa.Augment(1), 1);
  EXPECT_DOUBLE_EQ(sspa.total_cost(), -0.5);
}

TEST(Sspa, AugmentIfCheaperStopsAtLimit) {
  FlowGraph graph(4);
  graph.AddArc(0, 1, 1, 0.2);
  graph.AddArc(1, 3, 1, 0.0);
  graph.AddArc(0, 2, 1, 1.5);
  graph.AddArc(2, 3, 1, 0.0);
  SuccessiveShortestPaths sspa(&graph, 0, 3);
  EXPECT_EQ(sspa.AugmentIfCheaper(1.0), 1);  // 0.2 < 1
  EXPECT_EQ(sspa.AugmentIfCheaper(1.0), 0);  // 1.5 >= 1: rejected
  EXPECT_EQ(sspa.total_flow(), 1);
  // The rejected path is still available to plain Augment.
  EXPECT_EQ(sspa.Augment(1), 1);
  EXPECT_DOUBLE_EQ(sspa.total_cost(), 1.7);
}

TEST(Sspa, BottleneckAugmentation) {
  FlowGraph graph(3);
  graph.AddArc(0, 1, 10, 1.0);
  graph.AddArc(1, 2, 7, 0.0);
  SuccessiveShortestPaths sspa(&graph, 0, 2);
  EXPECT_EQ(sspa.Augment(100), 7);  // limited by the 7-cap arc
  EXPECT_EQ(sspa.Augment(100), 0);
}

// ------------------------------------------- reference implementation ----

// Independent successive-shortest-path min-cost flow using Bellman–Ford
// over *real* costs (no potentials). Returns per-unit path costs.
std::vector<double> ReferenceUnitCosts(FlowGraph& graph, int source,
                                       int sink) {
  std::vector<double> unit_costs;
  const int n = graph.num_nodes();
  while (true) {
    std::vector<double> dist(n, kInf);
    std::vector<int> parent(n, -1);
    dist[source] = 0.0;
    for (int round = 0; round < n; ++round) {
      bool changed = false;
      for (int node = 0; node < n; ++node) {
        if (dist[node] == kInf) continue;
        for (const int arc : graph.OutArcs(node)) {
          if (graph.ResidualCapacity(arc) <= 0) continue;
          const double candidate = dist[node] + graph.Cost(arc);
          if (candidate < dist[graph.Head(arc)] - 1e-12) {
            dist[graph.Head(arc)] = candidate;
            parent[graph.Head(arc)] = arc;
            changed = true;
          }
        }
      }
      if (!changed) break;
    }
    if (dist[sink] == kInf) break;
    for (int node = sink; node != source;) {
      graph.Push(parent[node], 1);
      node = graph.Tail(parent[node]);
    }
    unit_costs.push_back(dist[sink]);
  }
  return unit_costs;
}

// Random bipartite GEACC-shaped network.
struct RandomNetwork {
  FlowGraph graph;
  int source;
  int sink;
};

RandomNetwork MakeRandomBipartite(int events, int users, uint64_t seed) {
  Rng rng(seed);
  RandomNetwork net{FlowGraph(events + users + 2), 0, events + users + 1};
  for (int v = 0; v < events; ++v) {
    net.graph.AddArc(net.source, 1 + v, rng.UniformInt(1, 3), 0.0);
  }
  for (int v = 0; v < events; ++v) {
    for (int u = 0; u < users; ++u) {
      net.graph.AddArc(1 + v, 1 + events + u, 1, rng.NextDouble());
    }
  }
  for (int u = 0; u < users; ++u) {
    net.graph.AddArc(1 + events + u, net.sink, rng.UniformInt(1, 2), 0.0);
  }
  return net;
}

class SspaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SspaPropertyTest, MatchesBellmanFordReferencePerUnit) {
  const uint64_t seed = GetParam();
  RandomNetwork dijkstra_net = MakeRandomBipartite(4, 7, seed);
  RandomNetwork reference_net = MakeRandomBipartite(4, 7, seed);

  std::vector<double> sspa_costs;
  SuccessiveShortestPaths sspa(&dijkstra_net.graph, dijkstra_net.source,
                               dijkstra_net.sink);
  while (true) {
    const double before = sspa.total_cost();
    if (sspa.Augment(1) == 0) break;
    sspa_costs.push_back(sspa.total_cost() - before);
  }

  const std::vector<double> reference_costs = ReferenceUnitCosts(
      reference_net.graph, reference_net.source, reference_net.sink);

  ASSERT_EQ(sspa_costs.size(), reference_costs.size()) << "seed " << seed;
  for (size_t i = 0; i < sspa_costs.size(); ++i) {
    ASSERT_NEAR(sspa_costs[i], reference_costs[i], 1e-6)
        << "unit " << i << " seed " << seed;
  }
}

TEST_P(SspaPropertyTest, UnitCostsNonDecreasing) {
  RandomNetwork net = MakeRandomBipartite(5, 9, GetParam() + 1000);
  SuccessiveShortestPaths sspa(&net.graph, net.source, net.sink);
  double previous = -kInf;
  while (true) {
    const double before = sspa.total_cost();
    if (sspa.Augment(1) == 0) break;
    const double unit = sspa.total_cost() - before;
    ASSERT_GE(unit, previous - 1e-9);
    previous = unit;
  }
}

TEST_P(SspaPropertyTest, FlowConservationAtMaxFlow) {
  RandomNetwork net = MakeRandomBipartite(4, 6, GetParam() + 2000);
  SuccessiveShortestPaths sspa(&net.graph, net.source, net.sink);
  const int64_t flow = sspa.RunToMaxFlow();
  // Net outflow of every interior node must be zero.
  std::vector<int64_t> net_out(net.graph.num_nodes(), 0);
  for (int node = 0; node < net.graph.num_nodes(); ++node) {
    for (const int arc : net.graph.OutArcs(node)) {
      if ((arc & 1) != 0) continue;  // count each forward arc once
      net_out[node] += net.graph.Flow(arc);
      net_out[net.graph.Head(arc)] -= net.graph.Flow(arc);
    }
  }
  EXPECT_EQ(net_out[net.source], flow);
  EXPECT_EQ(net_out[net.sink], -flow);
  for (int node = 0; node < net.graph.num_nodes(); ++node) {
    if (node != net.source && node != net.sink) {
      EXPECT_EQ(net_out[node], 0) << "node " << node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SspaPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace geacc
