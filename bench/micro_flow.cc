// Microbenchmarks: the generic min-cost-flow engine (flow/min_cost_flow.h)
// on GEACC-shaped bipartite networks. BMatchingBound runs this engine;
// MinCostFlow-GEACC runs the dense flow/transport_ssp.h instead.

#include <benchmark/benchmark.h>

#include "bench/micro_common.h"

#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "util/rng.h"

namespace geacc {
namespace {

struct Network {
  FlowGraph graph;
  int source;
  int sink;
};

Network MakeBipartite(int events, int users, uint64_t seed) {
  Rng rng(seed);
  Network net{FlowGraph(events + users + 2), 0, events + users + 1};
  for (int v = 0; v < events; ++v) {
    net.graph.AddArc(net.source, 1 + v, rng.UniformInt(1, 25), 0.0);
  }
  for (int v = 0; v < events; ++v) {
    for (int u = 0; u < users; ++u) {
      net.graph.AddArc(1 + v, 1 + events + u, 1, rng.NextDouble());
    }
  }
  for (int u = 0; u < users; ++u) {
    net.graph.AddArc(1 + events + u, net.sink, rng.UniformInt(1, 4), 0.0);
  }
  return net;
}

void BM_BuildNetwork(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Network net = MakeBipartite(events, users, 7);
    benchmark::DoNotOptimize(net.graph.num_arcs());
  }
}
BENCHMARK(BM_BuildNetwork)->Args({20, 200})->Args({50, 500});

void BM_RunToMaxFlow(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Network net = MakeBipartite(events, users, 7);
    SuccessiveShortestPaths sspa(&net.graph, net.source, net.sink);
    benchmark::DoNotOptimize(sspa.RunToMaxFlow());
  }
}
BENCHMARK(BM_RunToMaxFlow)->Args({10, 100})->Args({20, 200})->Args({50, 500});

// Unit-by-unit augmentation (what MinCostFlow-GEACC does) vs bottleneck.
void BM_UnitAugmentation(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Network net = MakeBipartite(events, users, 7);
    SuccessiveShortestPaths sspa(&net.graph, net.source, net.sink);
    while (sspa.Augment(1) == 1) {
    }
    benchmark::DoNotOptimize(sspa.total_cost());
  }
}
BENCHMARK(BM_UnitAugmentation)->Args({10, 100})->Args({20, 200});

void BM_ProfitableSweep(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  const int users = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Network net = MakeBipartite(events, users, 7);
    SuccessiveShortestPaths sspa(&net.graph, net.source, net.sink);
    while (sspa.AugmentIfCheaper(1.0) == 1) {
    }
    benchmark::DoNotOptimize(sspa.total_cost());
  }
}
BENCHMARK(BM_ProfitableSweep)->Args({10, 100})->Args({20, 200});

}  // namespace
}  // namespace geacc

GEACC_MICRO_MAIN("micro_flow")
