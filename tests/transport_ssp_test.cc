// Lockstep differential test of the dense transport SSP engine
// (flow/transport_ssp.h) against the generic Dijkstra engine kept as a
// reference (tests/flow/min_cost_flow.h) on the network MinCostFlow-GEACC
// builds. Both engines run AugmentIfCheaper(1 − 1e-9) side by side; after
// every call the return value, the path, the path-cost bits and every
// potential's bits must agree, and at the end every pair's flow and the
// flow.dijkstra.* / flow.augmenting_paths counts must agree. Every case
// runs at the scalar and at the auto dispatch level.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "flow/transport_ssp.h"
#include "gen/synthetic.h"
#include "obs/stats.h"
#include "simd/simd.h"
#include "tests/flow/graph.h"
#include "tests/flow/min_cost_flow.h"
#include "util/rng.h"

namespace geacc {
namespace {

// MinCostFlowSolver's stop: a path at real cost ≥ 1 − 1e-9 ends the sweep.
constexpr double kUnitCostStop = 1.0 - 1e-9;

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

std::vector<uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<uint64_t> out;
  out.reserve(xs.size());
  for (const double x : xs) out.push_back(Bits(x));
  return out;
}

struct Network {
  int events = 0;
  int users = 0;
  std::vector<double> costs;  // row-major |V|×|U|
  std::vector<int64_t> event_capacity;
  std::vector<int64_t> user_capacity;
};

// What a lockstep run saw, so each case can check it covers its regime.
struct Trace {
  int64_t augmentations = 0;
  size_t longest_path = 0;  // nodes, source and sink included
  bool ended_by_cost = false;
  double final_path_cost = 0.0;
};

void AddCounters(const obs::StatsSnapshot& delta,
                 std::map<std::string, int64_t>* total) {
  for (const auto& [name, value] : delta.counters) (*total)[name] += value;
}

// The same network as a FlowGraph for the generic engine, in
// TransportSsp's node numbering; pair_arcs holds the row-major (v, u)
// forward arc ids.
FlowGraph BuildGraph(const Network& net, std::vector<int>* pair_arcs) {
  const int sink = net.events + net.users + 1;
  FlowGraph graph(net.events + net.users + 2);
  for (int v = 0; v < net.events; ++v) {
    graph.AddArc(0, 1 + v, net.event_capacity[v], 0.0);
  }
  pair_arcs->clear();
  for (int v = 0; v < net.events; ++v) {
    for (int u = 0; u < net.users; ++u) {
      pair_arcs->push_back(graph.AddArc(
          1 + v, 1 + net.events + u, 1,
          net.costs[static_cast<size_t>(v) * net.users + u]));
    }
  }
  for (int u = 0; u < net.users; ++u) {
    graph.AddArc(1 + net.events + u, sink, net.user_capacity[u], 0.0);
  }
  return graph;
}

// Runs both engines in lockstep at the current dispatch level.
Trace RunLockstep(const Network& net, const std::string& tag) {
  std::vector<int> pair_arcs;
  FlowGraph graph = BuildGraph(net, &pair_arcs);
  SuccessiveShortestPaths generic(&graph, 0, net.events + net.users + 1);
  TransportSsp dense(net.costs.data(), net.event_capacity, net.user_capacity);
  std::map<std::string, int64_t> generic_counters;
  std::map<std::string, int64_t> dense_counters;
  Trace trace;
  for (int64_t step = 0;; ++step) {
    const std::string at = tag + " step " + std::to_string(step);
    int64_t generic_pushed = 0;
    int64_t dense_pushed = 0;
    {
      const obs::StatsScope scope;
      generic_pushed = generic.AugmentIfCheaper(kUnitCostStop);
      AddCounters(scope.Harvest(), &generic_counters);
    }
    {
      const obs::StatsScope scope;
      dense_pushed = dense.AugmentIfCheaper(kUnitCostStop);
      AddCounters(scope.Harvest(), &dense_counters);
    }
    EXPECT_EQ(dense_pushed, generic_pushed) << at;
    EXPECT_EQ(dense.LastPath(), generic.LastPath()) << at;
    EXPECT_EQ(Bits(dense.last_path_cost()), Bits(generic.last_path_cost()))
        << at;
    EXPECT_EQ(Bits(dense.potentials()), Bits(generic.potentials())) << at;
    if (testing::Test::HasFailure()) return trace;
    trace.longest_path =
        std::max(trace.longest_path, generic.LastPath().size());
    if (generic_pushed == 0) {
      trace.ended_by_cost = !generic.LastPath().empty();
      trace.final_path_cost = generic.last_path_cost();
      break;
    }
    ++trace.augmentations;
  }
  EXPECT_EQ(dense.total_flow(), generic.total_flow()) << tag;
  EXPECT_EQ(Bits(dense.total_cost()), Bits(generic.total_cost())) << tag;
  for (int v = 0; v < net.events; ++v) {
    for (int u = 0; u < net.users; ++u) {
      EXPECT_EQ(dense.Flow(v, u),
                graph.Flow(pair_arcs[static_cast<size_t>(v) * net.users + u]))
          << tag << " pair (" << v << ", " << u << ")";
    }
  }
#if !defined(GEACC_NO_STATS)
  for (const char* name : {"flow.dijkstra.settles",
                           "flow.dijkstra.relaxations",
                           "flow.augmenting_paths"}) {
    EXPECT_EQ(dense_counters[name], generic_counters[name])
        << tag << " " << name;
  }
  EXPECT_GT(dense_counters["flow.dijkstra.settles"], 0) << tag;
#endif
  return trace;
}

// Runs `make(seed)` for `seeds` seeds at the scalar and the auto level;
// `check` inspects each trace.
template <typename Make, typename Check>
void ForEachNetwork(int seeds, Make make, Check check) {
  for (const char* mode : {"scalar", "auto"}) {
    std::string error;
    ASSERT_TRUE(simd::SetDispatchOverride(mode, &error)) << error;
    for (int seed = 0; seed < seeds; ++seed) {
      const Network net = make(static_cast<uint64_t>(seed));
      const std::string tag =
          std::string(mode) + " seed " + std::to_string(seed);
      const Trace trace = RunLockstep(net, tag);
      if (testing::Test::HasFailure()) break;
      check(net, trace, tag);
    }
  }
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

// Costs from `cost(rng)`, capacities uniform in the given ranges.
template <typename CostFn>
Network RandomNetwork(int events, int users, uint64_t seed, int max_event_cap,
                      int min_user_cap, int max_user_cap, CostFn cost) {
  Rng rng(seed);
  Network net;
  net.events = events;
  net.users = users;
  for (int v = 0; v < events; ++v) {
    net.event_capacity.push_back(rng.UniformInt(1, max_event_cap));
  }
  for (int u = 0; u < users; ++u) {
    net.user_capacity.push_back(rng.UniformInt(min_user_cap, max_user_cap));
  }
  for (int i = 0; i < events * users; ++i) net.costs.push_back(cost(rng));
  return net;
}

void NoCheck(const Network&, const Trace&, const std::string&) {}

// ----------------------------------------------------------------------

TEST(TransportSsp, MatchesGenericOnGeaccInstances) {
  // Costs 1 − sim exactly as MinCostFlowSolver computes them.
  ForEachNetwork(
      6,
      [](uint64_t seed) {
        SyntheticConfig config;
        config.num_events = 12;
        config.num_users = 60;
        config.event_capacity = DistributionSpec::Uniform(1.0, 10.0);
        config.seed = 100 + seed;
        const Instance instance = GenerateSynthetic(config);
        Network net;
        net.events = instance.num_events();
        net.users = instance.num_users();
        net.costs.resize(static_cast<size_t>(net.events) * net.users);
        for (int v = 0; v < net.events; ++v) {
          double* row = &net.costs[static_cast<size_t>(v) * net.users];
          instance.SimilarityRow(v, simd::FpMode::kStrict, row);
          for (int u = 0; u < net.users; ++u) row[u] = 1.0 - row[u];
          net.event_capacity.push_back(instance.event_capacity(v));
        }
        for (int u = 0; u < net.users; ++u) {
          net.user_capacity.push_back(instance.user_capacity(u));
        }
        return net;
      },
      [](const Network&, const Trace& trace, const std::string& tag) {
        EXPECT_GT(trace.augmentations, 0) << tag;
      });
}

TEST(TransportSsp, MatchesGenericOnRandomRealCosts) {
  ForEachNetwork(
      10,
      [](uint64_t seed) {
        return RandomNetwork(7, 23, seed, 4, 1, 3,
                             [](Rng& rng) { return rng.NextDouble(); });
      },
      NoCheck);
}

TEST(TransportSsp, MatchesGenericOnTieHeavyIntegerCosts) {
  // Costs k/4 for k ∈ {0..4}: distances tie everywhere, so the (distance,
  // id) order alone decides which node settles first.
  ForEachNetwork(
      10,
      [](uint64_t seed) {
        return RandomNetwork(6, 20, seed, 5, 1, 3, [](Rng& rng) {
          return static_cast<double>(rng.UniformInt(0, 4)) / 4.0;
        });
      },
      [](const Network&, const Trace& trace, const std::string& tag) {
        EXPECT_GT(trace.augmentations, 0) << tag;
      });
}

TEST(TransportSsp, MatchesGenericWithZeroSimilarityPairs) {
  // Half the pairs have sim = 0, i.e. cost exactly 1: they never pay but
  // may still carry flow inside a rerouting path.
  ForEachNetwork(
      10,
      [](uint64_t seed) {
        return RandomNetwork(5, 18, seed, 4, 1, 3, [](Rng& rng) {
          return rng.Bernoulli(0.5) ? 1.0 : rng.NextDouble();
        });
      },
      [](const Network& net, const Trace&, const std::string& tag) {
        int ones = 0;
        for (const double c : net.costs) ones += c == 1.0;
        EXPECT_GT(ones, 0) << tag;
      });
}

TEST(TransportSsp, MatchesGenericOnSingleEventAndSingleUser) {
  ForEachNetwork(
      8,
      [](uint64_t seed) {
        const bool one_event = seed % 2 == 0;
        return RandomNetwork(one_event ? 1 : 9, one_event ? 9 : 1, seed, 6, 1,
                             6, [](Rng& r) { return r.NextDouble(); });
      },
      NoCheck);
  ForEachNetwork(
      4,
      [](uint64_t seed) {
        return RandomNetwork(1, 1, seed, 3, 1, 3, [seed](Rng& rng) {
          return seed % 2 == 0 ? rng.NextDouble() : 1.0;
        });
      },
      [](const Network& net, const Trace& trace, const std::string& tag) {
        EXPECT_EQ(trace.augmentations, net.costs[0] < kUnitCostStop ? 1 : 0)
            << tag;
      });
  // No users or no events: the sink is unreachable from the first search.
  ForEachNetwork(
      2,
      [](uint64_t seed) {
        return RandomNetwork(seed == 0 ? 3 : 0, seed == 0 ? 0 : 3, seed, 2, 1,
                             2, [](Rng& rng) { return rng.NextDouble(); });
      },
      [](const Network&, const Trace& trace, const std::string& tag) {
        EXPECT_EQ(trace.augmentations, 0) << tag;
        EXPECT_FALSE(trace.ended_by_cost) << tag;
      });
}

TEST(TransportSsp, MatchesGenericWhenUserCapacityCoversAllEvents) {
  // c_u ≥ |V|: no user ever saturates its sink arc before its pairs do.
  ForEachNetwork(
      10,
      [](uint64_t seed) {
        return RandomNetwork(5, 14, seed, 9, 5, 7,
                             [](Rng& rng) { return rng.NextDouble(); });
      },
      NoCheck);
}

TEST(TransportSsp, MatchesGenericThroughSaturatedEvents) {
  // c_v = 1: an event saturates on its first unit, after which it is
  // reachable only through a backward arc from the user it serves.
  int rerouted = 0;
  ForEachNetwork(
      10,
      [](uint64_t seed) {
        return RandomNetwork(8, 12, seed, 1, 1, 2,
                             [](Rng& rng) { return rng.NextDouble(); });
      },
      [&](const Network&, const Trace& trace, const std::string&) {
        // source, v, u, sink is 4 nodes; a longer path enters an event
        // through a backward arc, and with c_v = 1 that event is saturated.
        rerouted += trace.longest_path > 4;
      });
  EXPECT_GT(rerouted, 0);
}

TEST(TransportSsp, MatchesGenericAtTheUnitCostBoundary) {
  // One pair pays; the next path costs 1 − 5e-10 ∈ [1 − 1e-9, 1), which
  // both engines must reject.
  ForEachNetwork(
      2,
      [](uint64_t seed) {
        Network net;
        net.events = 1;
        net.users = 2;
        net.costs = {0.25, 1.0 - 5e-10};
        if (seed == 1) std::swap(net.costs[0], net.costs[1]);
        net.event_capacity = {2};
        net.user_capacity = {1, 1};
        return net;
      },
      [](const Network&, const Trace& trace, const std::string& tag) {
        EXPECT_EQ(trace.augmentations, 1) << tag;
        EXPECT_TRUE(trace.ended_by_cost) << tag;
        EXPECT_GE(trace.final_path_cost, kUnitCostStop) << tag;
        EXPECT_LT(trace.final_path_cost, 1.0) << tag;
      });
  // Costs crowded around the stop, so rerouting paths sum to values on
  // either side of it.
  int in_window = 0;
  ForEachNetwork(
      20,
      [](uint64_t seed) {
        return RandomNetwork(4, 10, seed, 3, 1, 2, [](Rng& rng) {
          return 1.0 - 1e-10 * static_cast<double>(rng.UniformInt(0, 12));
        });
      },
      [&](const Network&, const Trace& trace, const std::string&) {
        in_window += trace.ended_by_cost &&
                     trace.final_path_cost >= kUnitCostStop &&
                     trace.final_path_cost < 1.0;
      });
  EXPECT_GT(in_window, 0);
}

}  // namespace
}  // namespace geacc
