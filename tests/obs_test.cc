// Tests for the observability layer (src/obs/stats.h): registry
// semantics, per-thread isolation, phase timers, and the acceptance
// criterion that every registered solver reports counters through it.

#include "obs/stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "algo/solvers.h"
#include "gen/synthetic.h"

namespace geacc::obs {
namespace {

TEST(StatsRegistryTest, RegisterCounterInternsNames) {
  StatsRegistry& registry = StatsRegistry::Global();
  const CounterId id = registry.RegisterCounter("test.intern.a");
  EXPECT_EQ(id, registry.RegisterCounter("test.intern.a"));
  EXPECT_NE(id, registry.RegisterCounter("test.intern.b"));

  const std::vector<std::string> names = registry.CounterNames();
  ASSERT_LT(static_cast<size_t>(id), names.size());
  EXPECT_EQ(names[id], "test.intern.a");
}

TEST(StatsRegistryTest, AddAccumulatesIntoGlobalSnapshot) {
  StatsRegistry& registry = StatsRegistry::Global();
  const CounterId id = registry.RegisterCounter("test.accumulate");
  const int64_t before = registry.CounterValue("test.accumulate");
  registry.Add(id, 3);
  registry.Add(id, 4);
  EXPECT_EQ(registry.CounterValue("test.accumulate"), before + 7);

  const StatsSnapshot snapshot = registry.Snapshot();
  const auto it = snapshot.counters.find("test.accumulate");
  ASSERT_NE(it, snapshot.counters.end());
  EXPECT_EQ(it->second, before + 7);
}

TEST(StatsRegistryTest, SnapshotOmitsZeroCounters) {
  StatsRegistry& registry = StatsRegistry::Global();
  registry.RegisterCounter("test.never.incremented");
  const StatsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.count("test.never.incremented"), 0u);
}

TEST(StatsRegistryTest, SnapshotIncludesOtherThreads) {
  StatsRegistry& registry = StatsRegistry::Global();
  const CounterId id = registry.RegisterCounter("test.cross.thread");
  const int64_t before = registry.CounterValue("test.cross.thread");
  std::thread worker([&] { registry.Add(id, 11); });
  worker.join();
  // The worker has exited, so its total lives in the retired accumulator.
  EXPECT_EQ(registry.CounterValue("test.cross.thread"), before + 11);
}

TEST(StatsScopeTest, HarvestSeesOnlyScopedActivity) {
  StatsRegistry& registry = StatsRegistry::Global();
  const CounterId id = registry.RegisterCounter("test.scope.delta");
  registry.Add(id, 100);  // before the scope: must not appear
  const StatsScope scope;
  registry.Add(id, 5);
  const StatsSnapshot delta = scope.Harvest();
  const auto it = delta.counters.find("test.scope.delta");
  ASSERT_NE(it, delta.counters.end());
  EXPECT_EQ(it->second, 5);
}

TEST(StatsScopeTest, HarvestIgnoresOtherThreads) {
  StatsRegistry& registry = StatsRegistry::Global();
  const CounterId id = registry.RegisterCounter("test.scope.isolation");
  const StatsScope scope;
  std::atomic<bool> done{false};
  std::thread noisy([&] {
    registry.Add(id, 1000);
    done = true;
  });
  noisy.join();
  ASSERT_TRUE(done.load());
  registry.Add(id, 2);
  const StatsSnapshot delta = scope.Harvest();
  const auto it = delta.counters.find("test.scope.isolation");
  ASSERT_NE(it, delta.counters.end());
  EXPECT_EQ(it->second, 2) << "scope must not see the other thread's adds";
}

TEST(StatsScopeTest, EmptyScopeHarvestsNothingNew) {
  const StatsScope scope;
  const StatsSnapshot delta = scope.Harvest();
  EXPECT_TRUE(delta.counters.empty());
  EXPECT_TRUE(delta.timers.empty());
}

TEST(PhaseTimerTest, RecordsSpanCountAndNonNegativeTime) {
  const StatsScope scope;
  for (int i = 0; i < 3; ++i) {
    GEACC_PHASE_TIMER("test.phase.span");
  }
  const StatsSnapshot delta = scope.Harvest();
#if defined(GEACC_NO_STATS)
  EXPECT_TRUE(delta.timers.empty());
#else
  const auto it = delta.timers.find("test.phase.span");
  ASSERT_NE(it, delta.timers.end());
  EXPECT_EQ(it->second.count, 3);
  EXPECT_GE(it->second.seconds, 0.0);
#endif
}

TEST(MacrosTest, StatsAddCompilesAndCounts) {
  const StatsScope scope;
  GEACC_STATS_ADD("test.macro.add", 2);
  GEACC_STATS_ADD("test.macro.add", 3);
  const StatsSnapshot delta = scope.Harvest();
#if defined(GEACC_NO_STATS)
  EXPECT_TRUE(delta.counters.empty());
#else
  const auto it = delta.counters.find("test.macro.add");
  ASSERT_NE(it, delta.counters.end());
  EXPECT_EQ(it->second, 5);
#endif
}

#if !defined(GEACC_NO_STATS)

// Acceptance criterion: every solver in the registry reports at least
// three counters through the observability layer on a nontrivial
// instance. The two unpruned exact searches get the smallest instance on
// which they still do: at 4 x 12 they would enumerate ~2.3e8 complete
// arrangements each.
TEST(SolverCountersTest, EveryRegistrySolverReportsAtLeastThreeCounters) {
  SyntheticConfig config;
  config.num_events = 4;
  config.num_users = 12;
  config.event_capacity = DistributionSpec::Uniform(1.0, 6.0);
  config.user_capacity = DistributionSpec::Uniform(1.0, 2.0);
  config.conflict_density = 0.5;
  config.seed = 7;
  const Instance instance = GenerateSynthetic(config);
  config.num_events = 1;
  config.num_users = 1;
  const Instance smallest = GenerateSynthetic(config);

  for (const std::string& name : SolverNames()) {
    const auto solver = CreateSolver(name);
    ASSERT_NE(solver, nullptr) << name;
    const bool enumerates = name == "exhaustive" || name == "bruteforce";
    const StatsScope scope;
    (void)solver->Solve(enumerates ? smallest : instance);
    const StatsSnapshot delta = scope.Harvest();
    EXPECT_GE(delta.counters.size(), 3u)
        << name << " reported only " << delta.counters.size()
        << " counters";
  }
}

TEST(SolverCountersTest, PruneReportsNodesVisitedAndPruned) {
  SyntheticConfig config;
  config.num_events = 4;
  config.num_users = 12;
  config.event_capacity = DistributionSpec::Uniform(1.0, 6.0);
  config.user_capacity = DistributionSpec::Uniform(1.0, 2.0);
  config.conflict_density = 0.75;  // conflicts make the bound cut
  config.seed = 11;
  const Instance instance = GenerateSynthetic(config);

  const auto solver = CreateSolver("prune");
  const StatsScope scope;
  (void)solver->Solve(instance);
  const StatsSnapshot delta = scope.Harvest();

  const auto visited = delta.counters.find("prune.nodes_visited");
  ASSERT_NE(visited, delta.counters.end());
  EXPECT_GT(visited->second, 0);
  // The pruned count appears whenever the Lemma 6 bound fired; on this
  // instance it must have (exhaustive search is vastly larger).
  const auto pruned = delta.counters.find("prune.nodes_pruned");
  ASSERT_NE(pruned, delta.counters.end());
  EXPECT_GT(pruned->second, 0);
}

#endif  // !GEACC_NO_STATS

}  // namespace
}  // namespace geacc::obs
