// Microbenchmarks: the library's one min-cost-flow engine, the dense
// transport SSP of flow/transport_ssp.h, on GEACC-shaped bipartite
// networks (pair costs in [0, 1), c_v ~ U[1, 25], c_u ~ U[1, 4]).
// MinCostFlow-GEACC runs it to its profitable stop; the clique-lp bound
// runs it once per suffix of the branch-and-bound order.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "bench/micro_common.h"

#include "flow/transport_ssp.h"
#include "util/rng.h"

namespace geacc {
namespace {

struct Network {
  std::vector<int64_t> event_capacity;
  std::vector<double> costs;  // row-major |V|×|U|
  std::vector<int64_t> user_capacity;
};

Network MakeBipartite(int events, int users, uint64_t seed) {
  Rng rng(seed);
  Network net;
  for (int v = 0; v < events; ++v) {
    net.event_capacity.push_back(rng.UniformInt(1, 25));
  }
  for (int pair = 0; pair < events * users; ++pair) {
    net.costs.push_back(rng.NextDouble());
  }
  for (int u = 0; u < users; ++u) {
    net.user_capacity.push_back(rng.UniformInt(1, 4));
  }
  return net;
}

// Engine set-up alone: it copies the cost rows and sizes its node state.
void BM_BuildEngine(benchmark::State& state) {
  const Network net = MakeBipartite(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)), 7);
  for (auto _ : state) {
    TransportSsp ssp(net.costs.data(), net.event_capacity, net.user_capacity);
    benchmark::DoNotOptimize(ssp.ByteEstimate());
  }
}
BENCHMARK(BM_BuildEngine)->Args({20, 200})->Args({50, 500});

// Augments until `cost_limit` stops the sweep (+inf: maximum flow).
void RunSweep(benchmark::State& state, double cost_limit) {
  const Network net = MakeBipartite(static_cast<int>(state.range(0)),
                                    static_cast<int>(state.range(1)), 7);
  for (auto _ : state) {
    TransportSsp ssp(net.costs.data(), net.event_capacity, net.user_capacity);
    while (ssp.AugmentIfCheaper(cost_limit) == 1) {
    }
    benchmark::DoNotOptimize(ssp.total_cost());
  }
}

void BM_RunToMaxFlow(benchmark::State& state) {
  RunSweep(state, std::numeric_limits<double>::infinity());
}
BENCHMARK(BM_RunToMaxFlow)->Args({10, 100})->Args({20, 200})->Args({50, 500});

// MinCostFlow-GEACC's and the LP bound's sweep: only paths below 1 gain.
void BM_ProfitableSweep(benchmark::State& state) { RunSweep(state, 1.0); }
BENCHMARK(BM_ProfitableSweep)->Args({10, 100})->Args({20, 200});

}  // namespace
}  // namespace geacc

GEACC_MICRO_MAIN("micro_flow")
