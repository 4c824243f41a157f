// Figure-shape regression tests: miniature versions of every evaluation
// claim in Section V, asserted qualitatively. These are the properties the
// full benches visualize; pinning them here means a refactor that silently
// flips a curve fails CI, not just the eyeball check.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "algo/solvers.h"
#include "gen/ebsn.h"
#include "gen/synthetic.h"

namespace geacc {
namespace {

// Reduced Table III defaults shared by the shape tests (kept small so the
// whole file runs in seconds; 3 repetitions to dampen seed noise).
SyntheticConfig Reduced(uint64_t seed) {
  SyntheticConfig config;
  config.num_events = 25;
  config.num_users = 250;
  config.seed = seed;
  return config;
}

double MeanMaxSum(const std::string& solver, const SyntheticConfig& base,
                  int reps = 3) {
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    SyntheticConfig config = base;
    config.seed = base.seed + rep * 7919;
    const Instance instance = GenerateSynthetic(config);
    total += CreateSolver(solver)->Solve(instance).arrangement.MaxSum(
        instance);
  }
  return total / reps;
}

// Fig. 3 cols 1-2: MaxSum grows with |V| and with |U|.
TEST(PaperShapes, MaxSumGrowsWithCardinality) {
  SyntheticConfig small = Reduced(1), large = Reduced(1);
  small.num_events = 10;
  large.num_events = 40;
  EXPECT_GT(MeanMaxSum("greedy", large), MeanMaxSum("greedy", small));

  SyntheticConfig few = Reduced(2), many = Reduced(2);
  few.num_users = 100;
  many.num_users = 400;
  EXPECT_GT(MeanMaxSum("greedy", many), MeanMaxSum("greedy", few));
}

// Fig. 3 col 3: MaxSum decreases as dimensionality grows (sparser space).
TEST(PaperShapes, MaxSumDecreasesWithDimensionality) {
  SyntheticConfig low = Reduced(3), high = Reduced(3);
  low.dim = 2;
  high.dim = 20;
  EXPECT_GT(MeanMaxSum("greedy", low), MeanMaxSum("greedy", high));
}

// Fig. 3 col 4: MaxSum decreases with conflict density; at ρ = 0
// MinCostFlow-GEACC is at least as good as Greedy (it is optimal there).
TEST(PaperShapes, ConflictDensityShapes) {
  SyntheticConfig none = Reduced(4), half = Reduced(4), all = Reduced(4);
  none.conflict_density = 0.0;
  half.conflict_density = 0.5;
  all.conflict_density = 1.0;
  const double g_none = MeanMaxSum("greedy", none);
  const double g_half = MeanMaxSum("greedy", half);
  const double g_all = MeanMaxSum("greedy", all);
  EXPECT_GE(g_none, g_half);
  EXPECT_GT(g_half, g_all);
  EXPECT_GE(MeanMaxSum("mincostflow", none) + 1e-9,
            MeanMaxSum("greedy", none));
}

// Fig. 3 rows 1 vs baselines: both informed algorithms beat both random
// baselines at defaults.
TEST(PaperShapes, InformedBeatsRandom) {
  const SyntheticConfig config = Reduced(5);
  const double greedy = MeanMaxSum("greedy", config);
  const double mcf = MeanMaxSum("mincostflow", config);
  const double rv = MeanMaxSum("random-v", config);
  const double ru = MeanMaxSum("random-u", config);
  EXPECT_GT(greedy, rv);
  EXPECT_GT(greedy, ru);
  EXPECT_GT(mcf, rv);
  EXPECT_GT(mcf, ru);
  // At the default ρ = 0.25, Greedy also beats MinCostFlow (the paper's
  // headline observation).
  EXPECT_GT(greedy, mcf);
}

// Fig. 4 col 1: MaxSum grows with event capacity.
TEST(PaperShapes, MaxSumGrowsWithEventCapacity) {
  SyntheticConfig tight = Reduced(6), loose = Reduced(6);
  tight.event_capacity = DistributionSpec::Uniform(1.0, 5.0);
  loose.event_capacity = DistributionSpec::Uniform(1.0, 50.0);
  EXPECT_GT(MeanMaxSum("greedy", loose), MeanMaxSum("greedy", tight));
}

// Fig. 4 col 2: MaxSum grows with user capacity.
TEST(PaperShapes, MaxSumGrowsWithUserCapacity) {
  SyntheticConfig tight = Reduced(7), loose = Reduced(7);
  tight.user_capacity = DistributionSpec::Uniform(1.0, 2.0);
  loose.user_capacity = DistributionSpec::Uniform(1.0, 8.0);
  EXPECT_GT(MeanMaxSum("greedy", loose), MeanMaxSum("greedy", tight));
}

// Fig. 4 col 3: Zipf/Normal generation preserves the solver ordering.
TEST(PaperShapes, DistributionVariantsPreserveOrdering) {
  SyntheticConfig config = Reduced(8);
  config.WithZipfAttributes(1.3);
  config.WithNormalCapacities();
  const double greedy = MeanMaxSum("greedy", config);
  const double mcf = MeanMaxSum("mincostflow", config);
  const double rv = MeanMaxSum("random-v", config);
  EXPECT_GT(greedy, rv);
  EXPECT_GT(mcf, rv);
}

// Fig. 4 col 4: the EBSN (real-data substitute) shows the same patterns.
TEST(PaperShapes, EbsnMatchesSyntheticPatterns) {
  EbsnConfig config = EbsnCityPreset("auckland");
  config.seed = 9;
  double greedy = 0.0, mcf = 0.0, random_v = 0.0;
  for (const double density : {0.25, 0.75}) {
    config.conflict_density = density;
    const Instance instance = GenerateEbsn(config);
    const double g = CreateSolver("greedy")->Solve(instance)
                         .arrangement.MaxSum(instance);
    const double m = CreateSolver("mincostflow")->Solve(instance)
                         .arrangement.MaxSum(instance);
    const double r = CreateSolver("random-v")->Solve(instance)
                         .arrangement.MaxSum(instance);
    EXPECT_GT(g, r) << "density " << density;
    EXPECT_GT(m, r) << "density " << density;
    greedy += g;
    mcf += m;
    random_v += r;
  }
  EXPECT_GT(greedy, mcf);  // real-data headline, aggregated
}

// Fig. 5 a-b: Greedy's cost grows roughly linearly — 4x the users must
// not cost 16x the time (allow slack for noise).
TEST(PaperShapes, GreedyScalesSubquadratically) {
  SyntheticConfig small = Reduced(10), large = Reduced(10);
  small.num_users = 500;
  large.num_users = 2000;
  const Instance small_instance = GenerateSynthetic(small);
  const Instance large_instance = GenerateSynthetic(large);
  const auto solver = CreateSolver("greedy");
  // Warm up once to stabilize timing.
  solver->Solve(small_instance);
  const double t_small =
      solver->Solve(small_instance).stats.wall_seconds + 1e-4;
  const double t_large =
      solver->Solve(large_instance).stats.wall_seconds + 1e-4;
  EXPECT_LT(t_large / t_small, 12.0);  // 4x data, well under 16x time
}

// Fig. 5 c: approximations never exceed the optimum and Greedy stays
// close; at ρ = 0 MinCostFlow equals it.
TEST(PaperShapes, EffectivenessMiniature) {
  SyntheticConfig config;
  config.num_events = 4;
  config.num_users = 9;
  config.event_capacity = DistributionSpec::Uniform(1.0, 10.0);
  config.user_capacity = DistributionSpec::Uniform(1.0, 2.0);
  for (const double density : {0.0, 0.5}) {
    config.conflict_density = density;
    config.seed = 77;
    const Instance instance = GenerateSynthetic(config);
    const double opt = CreateSolver("prune")->Solve(instance)
                           .arrangement.MaxSum(instance);
    const double greedy = CreateSolver("greedy")->Solve(instance)
                              .arrangement.MaxSum(instance);
    const double mcf = CreateSolver("mincostflow")->Solve(instance)
                           .arrangement.MaxSum(instance);
    EXPECT_LE(greedy, opt + 1e-9);
    EXPECT_LE(mcf, opt + 1e-9);
    EXPECT_GT(greedy, 0.85 * opt) << "density " << density;
    if (density == 0.0) {
      EXPECT_NEAR(mcf, opt, 1e-9);
    }
  }
}

// Fig. 6: pruning cuts search nodes by a large factor and the mean prune
// depth sits well below the maximum depth |V|·|U|.
TEST(PaperShapes, PruningMiniature) {
  SyntheticConfig config;
  config.num_events = 4;
  config.num_users = 8;
  config.event_capacity = DistributionSpec::Uniform(1.0, 10.0);
  config.user_capacity = DistributionSpec::Uniform(1.0, 2.0);
  config.conflict_density = 0.25;
  config.seed = 11;
  const Instance instance = GenerateSynthetic(config);
  const auto pruned = CreateSolver("prune")->Solve(instance);
  const auto exhaustive = CreateSolver("exhaustive")->Solve(instance);
  EXPECT_LT(pruned.stats.search_invocations * 2,
            exhaustive.stats.search_invocations);
  EXPECT_LT(pruned.stats.complete_searches,
            exhaustive.stats.complete_searches);
  EXPECT_LT(pruned.stats.MeanPruneDepth(), 32.0);  // max depth = 4·8
  EXPECT_GT(pruned.stats.prune_events, 0);
  EXPECT_NEAR(pruned.arrangement.MaxSum(instance),
              exhaustive.arrangement.MaxSum(instance), 1e-9);
}

}  // namespace
}  // namespace geacc
