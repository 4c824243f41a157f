// Bit-identical parallelism: every solver must return the same arrangement
// at any SolverOptions::threads value (DESIGN.md §10), the pool's chunked
// reductions must be deterministic, and worker-side counters must be
// re-credited to the calling thread so StatsScope attribution survives
// intra-solver fan-out.

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/solvers.h"
#include "core/instance.h"
#include "core/preprocess.h"
#include "core/solver.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "exp/experiment.h"
#include "gen/synthetic.h"
#include "gen/trace_gen.h"
#include "obs/stats.h"
#include "util/thread_pool.h"

namespace geacc {
namespace {

// The arrangement's exact serialized form — per-user event lists in list
// order, so two arrangements compare equal only when they were built by
// the identical Add sequence modulo user grouping.
std::vector<std::pair<UserId, EventId>> FlatPairs(const Arrangement& a) {
  std::vector<std::pair<UserId, EventId>> pairs;
  for (UserId u = 0; u < a.num_users(); ++u) {
    for (const EventId v : a.EventsOf(u)) pairs.emplace_back(u, v);
  }
  return pairs;
}

Instance MakeInstance(int num_events, int num_users, int max_event_capacity,
                      uint64_t seed, double conflict_density, int dim = 4) {
  SyntheticConfig config;
  config.num_events = num_events;
  config.num_users = num_users;
  config.dim = dim;
  config.event_capacity = DistributionSpec::Uniform(
      1.0, static_cast<double>(max_event_capacity));
  config.user_capacity = DistributionSpec::Uniform(1.0, 2.0);
  config.conflict_density = conflict_density;
  config.seed = seed;
  return GenerateSynthetic(config);
}

void ExpectThreadInvariant(const std::string& solver_name,
                           SolverOptions options, const Instance& instance) {
  options.threads = 1;
  const std::unique_ptr<Solver> serial = CreateSolver(solver_name, options);
  ASSERT_NE(serial, nullptr);
  const SolveResult baseline = serial->Solve(instance);
  const auto baseline_pairs = FlatPairs(baseline.arrangement);
  const double baseline_sum = baseline.arrangement.MaxSum(instance);

  for (const int threads : {2, 8}) {
    options.threads = threads;
    const std::unique_ptr<Solver> parallel =
        CreateSolver(solver_name, options);
    const SolveResult result = parallel->Solve(instance);
    EXPECT_EQ(FlatPairs(result.arrangement), baseline_pairs)
        << solver_name << " arrangement changed at threads=" << threads
        << " (seed instance " << instance.DebugString() << ")";
    EXPECT_EQ(result.arrangement.MaxSum(instance), baseline_sum)
        << solver_name << " MaxSum changed at threads=" << threads;
  }
}

TEST(ParallelDeterminism, MinCostFlowFuzz) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Instance instance = MakeInstance(20, 60, 8, seed, 0.25);
    ExpectThreadInvariant("mincostflow", SolverOptions(), instance);
  }
}

TEST(ParallelDeterminism, MinCostFlowExactResolution) {
  const Instance instance = MakeInstance(12, 30, 5, 11, 0.4);
  SolverOptions options;
  options.exact_conflict_resolution = true;
  ExpectThreadInvariant("mincostflow", options, instance);
}

TEST(ParallelDeterminism, GreedyFuzz) {
  // d = 3 and d = 4, where greedy's cursors once switched from the
  // kd-tree to linear scan.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const int dim : {3, 4}) {
      const Instance instance = MakeInstance(20, 60, 8, seed, 0.25, dim);
      ExpectThreadInvariant("greedy", SolverOptions(), instance);
    }
  }
}

TEST(ParallelDeterminism, PruneFuzz) {
  // Small enough for the exact search, varied enough to exercise the
  // fan-out (tasks, shared incumbent, strict-> fold) across shapes.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const Instance instance = MakeInstance(5, 12, 3, seed, 0.3);
    ExpectThreadInvariant("prune", SolverOptions{}, instance);
  }
}

TEST(ParallelDeterminism, PruneAblationsAndExhaustive) {
  const Instance instance = MakeInstance(4, 8, 2, 21, 0.3);
  for (const bool ordering : {true, false}) {
    for (const bool greedy_seed : {true, false}) {
      SolverOptions options;
      options.enable_event_ordering = ordering;
      options.enable_greedy_seed = greedy_seed;
      ExpectThreadInvariant("prune", options, instance);
    }
  }
  SolverOptions exhaustive;
  exhaustive.enable_pruning = false;
  ExpectThreadInvariant("exhaustive", exhaustive, instance);
}

TEST(ParallelDeterminism, TruncatedSearchFallsBackToSerial) {
  const Instance instance = MakeInstance(5, 12, 3, 31, 0.3);
  SolverOptions options;
  options.max_search_invocations = 500;
  // The invocation budget is a single serial count, so threads > 1 must
  // not change what the truncated search returns.
  ExpectThreadInvariant("prune", options, instance);
}

TEST(ParallelDeterminism, IncrementalArrangerThreadInvariant) {
  // The repair engine's fallback solver inherits RepairOptions::threads;
  // a full trace replay — including drift-triggered full resolves, forced
  // here by a tiny drift threshold — must be bit-identical at any thread
  // count.
  TraceGenConfig config;
  config.initial_events = 15;
  config.initial_users = 80;
  config.num_mutations = 300;
  config.seed = 7;
  const MutationTrace trace = GenerateTrace(config);

  auto replay = [&](int threads) {
    DynamicInstance instance(trace.initial);
    RepairOptions options;
    options.drift_threshold = 0.01;  // drift often → many full resolves
    options.threads = threads;
    IncrementalArranger arranger(&instance, options);
    arranger.FullResolve();
    for (const Mutation& mutation : trace.mutations) {
      arranger.Apply(mutation);
    }
    return std::make_pair(FlatPairs(arranger.arrangement()),
                          arranger.max_sum());
  };

  const auto baseline = replay(1);
  EXPECT_GT(baseline.first.size(), 0u);
  for (const int threads : {2, 8}) {
    const auto result = replay(threads);
    EXPECT_EQ(result.first, baseline.first)
        << "arrangement changed at threads=" << threads;
    EXPECT_EQ(result.second, baseline.second)
        << "max_sum changed at threads=" << threads;
  }
}

TEST(ParallelDeterminism, ReduceInstanceThreadInvariant) {
  const Instance instance = MakeInstance(20, 60, 8, 41, 0.25);
  const ReducedInstance baseline = ReduceInstance(instance, 1);
  for (const int threads : {2, 8}) {
    const ReducedInstance reduced = ReduceInstance(instance, threads);
    EXPECT_EQ(reduced.event_map, baseline.event_map);
    EXPECT_EQ(reduced.user_map, baseline.user_map);
    EXPECT_EQ(reduced.clamped_capacities, baseline.clamped_capacities);
  }
}

TEST(ParallelDeterminism, SweepBudgetSharesThreadsDeterministically) {
  SweepConfig config;
  config.title = "budget";
  config.solvers = {"greedy", "mincostflow"};
  config.repetitions = 2;
  config.threads = 4;                  // budget: 2 workers × 2 lanes
  config.solver_options.threads = 2;
  std::vector<SweepPoint> points;
  for (const int num_users : {20, 40}) {
    points.push_back({std::to_string(num_users), [num_users](uint64_t seed) {
                        return MakeInstance(8, num_users, 4, seed, 0.25);
                      }});
  }
  const SweepResult parallel = RunSweep(config, points);
  config.threads = 1;
  config.solver_options.threads = 1;
  const SweepResult serial = RunSweep(config, points);
  EXPECT_EQ(parallel.metrics.at("max_sum"), serial.metrics.at("max_sum"));
  EXPECT_EQ(parallel.metrics.at("matched_pairs"),
            serial.metrics.at("matched_pairs"));
}

TEST(ThreadPool, ChunksAreDeterministicAndCoverTheRange) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const int64_t n = 1237;
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v.store(0);
    pool.ParallelFor(0, n, [&](int /*chunk*/, int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " at " << threads;
    }
    EXPECT_GE(pool.NumChunks(0, n), 1);
    EXPECT_EQ(pool.NumChunks(0, n), pool.NumChunks(0, n));  // pure function
  }
}

TEST(ThreadPool, ParallelMapFoldsInChunkOrder) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<int64_t> order;
    int64_t total = 0;
    ParallelMap<int64_t>(
        pool, 0, 1000,
        [](int64_t begin, int64_t end) {
          int64_t sum = 0;
          for (int64_t i = begin; i < end; ++i) sum += i;
          return sum;
        },
        [&](int64_t partial) {
          order.push_back(partial);
          total += partial;
        });
    EXPECT_EQ(total, 999 * 1000 / 2);
    EXPECT_EQ(static_cast<int>(order.size()), pool.NumChunks(0, 1000));
  }
}

#if !defined(GEACC_NO_STATS)
TEST(PoolStatsAttribution, WorkerCountersCreditedToCallingThread) {
  const Instance instance = MakeInstance(20, 60, 8, 51, 0.25);

  SolverOptions serial_options;
  serial_options.threads = 1;
  const obs::StatsScope serial_scope;
  CreateSolver("greedy", serial_options)->Solve(instance);
  const obs::StatsSnapshot serial_delta = serial_scope.Harvest();

  SolverOptions parallel_options;
  parallel_options.threads = 4;
  const obs::StatsScope parallel_scope;
  CreateSolver("greedy", parallel_options)->Solve(instance);
  const obs::StatsSnapshot parallel_delta = parallel_scope.Harvest();

  // The pool reports its own activity on the caller...
  EXPECT_GT(parallel_delta.counters.at("pool.parallel_fors"), 0);
  EXPECT_GT(parallel_delta.counters.at("pool.chunks"), 0);
  // ...and the solver's deterministic counters match the serial harvest
  // even though some increments happened on worker lanes.
  for (const char* name : {"greedy.heap_pushes", "greedy.heap_pops",
                           "greedy.cursor_skips", "greedy.matches"}) {
    const auto serial_it = serial_delta.counters.find(name);
    const auto parallel_it = parallel_delta.counters.find(name);
    ASSERT_NE(serial_it, serial_delta.counters.end()) << name;
    ASSERT_NE(parallel_it, parallel_delta.counters.end()) << name;
    EXPECT_EQ(parallel_it->second, serial_it->second) << name;
  }
}
#endif  // !GEACC_NO_STATS

}  // namespace
}  // namespace geacc
