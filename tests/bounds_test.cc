// Tests for the conflict-aware bound layer (algo/bounds.h, DESIGN.md
// §18): clique-partition structure and determinism, suffix-bound
// admissibility and ordering across the bound hierarchy, the
// degenerate-case guarantee (empty conflict graph ≡ Lemma 6 bitwise),
// the LP bound's b-matching against the generic reference flow engine,
// bit-identity of the bounded exact solvers against the exhaustive
// oracle, the bound-ties-incumbent regression, and slot-exact's
// forced-conflict clique caps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/bounds.h"
#include "algo/solvers.h"
#include "core/arrangement.h"
#include "core/conflict_graph.h"
#include "core/instance.h"
#include "simd/simd.h"
#include "slot/slot_solvers.h"
#include "slot/slotted_gen.h"
#include "tests/flow/graph.h"
#include "tests/flow/min_cost_flow.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace geacc {
namespace {

using algo::BoundInputs;
using algo::BoundMode;
using algo::CliquePartition;
using geacc::testing::MakeTableInstance;
using geacc::testing::SmallRandomInstance;

// Owns the flat arrays BoundInputs borrows; event_bound is Lemma 6's
// solo potential s_v·c_v (best similarity times event capacity), order
// is the identity — the same construction PruneSolver uses.
struct OwnedInputs {
  std::vector<double> sim;
  std::vector<double> event_bound;
  std::vector<int> event_capacity;
  std::vector<int> user_capacity;
  std::vector<EventId> order;
  BoundInputs in;
};

OwnedInputs MakeInputs(const Instance& instance) {
  OwnedInputs owned;
  const int num_events = instance.num_events();
  const int num_users = instance.num_users();
  owned.sim.resize(static_cast<size_t>(num_events) * num_users);
  owned.event_bound.resize(num_events);
  owned.event_capacity.resize(num_events);
  owned.user_capacity.resize(num_users);
  owned.order.resize(num_events);
  for (EventId v = 0; v < num_events; ++v) {
    double best = 0.0;
    for (UserId u = 0; u < num_users; ++u) {
      const double s = instance.Similarity(v, u);
      owned.sim[static_cast<size_t>(v) * num_users + u] = s;
      best = std::max(best, s);
    }
    owned.event_bound[v] = best * instance.event_capacity(v);
    owned.event_capacity[v] = instance.event_capacity(v);
    owned.order[v] = v;
  }
  for (UserId u = 0; u < num_users; ++u) {
    owned.user_capacity[u] = instance.user_capacity(u);
  }
  owned.in.num_events = num_events;
  owned.in.num_users = num_users;
  owned.in.sim = owned.sim.data();
  owned.in.event_bound = owned.event_bound.data();
  owned.in.event_capacity = owned.event_capacity.data();
  owned.in.user_capacity = owned.user_capacity.data();
  owned.in.conflicts = &instance.conflicts();
  owned.in.order = owned.order.data();
  return owned;
}

double ExactOptimum(const Instance& instance) {
  return CreateSolver("bruteforce")
      ->Solve(instance)
      .arrangement.MaxSum(instance);
}

// ------------------------------------------------------ partitioning ---

TEST(GreedyCliquePartition, IsAValidFirstFitPartitionInIdOrder) {
  for (const double density : {0.0, 0.25, 0.5, 1.0}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      const Instance instance =
          SmallRandomInstance(6, 8, density, 3, seed);
      const ConflictGraph& graph = instance.conflicts();
      const CliquePartition partition = algo::GreedyCliquePartition(graph);

      // Every event appears in exactly one clique, consistent with
      // clique_of, and cliques hold ascending ids.
      ASSERT_EQ(static_cast<int>(partition.clique_of.size()),
                instance.num_events());
      std::vector<int> seen(instance.num_events(), 0);
      for (int q = 0; q < partition.num_cliques(); ++q) {
        ASSERT_FALSE(partition.cliques[q].empty());
        for (size_t i = 0; i < partition.cliques[q].size(); ++i) {
          const EventId v = partition.cliques[q][i];
          ++seen[v];
          EXPECT_EQ(partition.clique_of[v], q);
          if (i > 0) {
            EXPECT_LT(partition.cliques[q][i - 1], v);
          }
        }
      }
      for (const int count : seen) EXPECT_EQ(count, 1);

      // Cliques are cliques: every pair within one conflicts.
      for (const auto& clique : partition.cliques) {
        for (size_t i = 0; i < clique.size(); ++i) {
          for (size_t j = i + 1; j < clique.size(); ++j) {
            EXPECT_TRUE(graph.AreConflicting(clique[i], clique[j]));
          }
        }
      }

      // First-fit: an event lands in clique q only because it does NOT
      // fully conflict with some earlier member of every clique before q.
      for (EventId v = 0; v < instance.num_events(); ++v) {
        for (int q = 0; q < partition.clique_of[v]; ++q) {
          bool conflicts_with_all_earlier = true;
          for (const EventId w : partition.cliques[q]) {
            if (w >= v) break;
            if (!graph.AreConflicting(v, w)) {
              conflicts_with_all_earlier = false;
              break;
            }
          }
          EXPECT_FALSE(conflicts_with_all_earlier)
              << "event " << v << " should have joined clique " << q;
        }
      }

      // Deterministic: recomputing yields the identical structure.
      const CliquePartition again = algo::GreedyCliquePartition(graph);
      EXPECT_EQ(partition.cliques, again.cliques);
      EXPECT_EQ(partition.clique_of, again.clique_of);
    }
  }
}

// ------------------------------------------------- degenerate cases ----

TEST(ComputeSuffixBounds, EmptyConflictGraphIsBitIdenticalToLemma6) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance instance = SmallRandomInstance(6, 8, 0.0, 3, seed);
    ASSERT_TRUE(instance.conflicts().empty());
    const OwnedInputs owned = MakeInputs(instance);
    const CliquePartition partition =
        algo::GreedyCliquePartition(instance.conflicts());
    const std::vector<double> lemma6 =
        algo::ComputeSuffixBounds(owned.in, BoundMode::kLemma6, partition);
    const std::vector<double> clique =
        algo::ComputeSuffixBounds(owned.in, BoundMode::kClique, partition);
    ASSERT_EQ(lemma6.size(), clique.size());
    for (size_t k = 0; k < lemma6.size(); ++k) {
      // Bitwise: the singleton-clique accumulation adds the same terms
      // in the same order as the plain Lemma 6 suffix sums.
      EXPECT_EQ(lemma6[k], clique[k]) << "suffix " << k;
    }
  }
}

// ----------------------------------------------------- admissibility ---

TEST(ComputeSuffixBounds, EveryModeIsAdmissibleAndOrdered) {
  for (const double density : {0.25, 0.5, 1.0}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const Instance instance =
          SmallRandomInstance(5, 7, density, 3, seed);
      const OwnedInputs owned = MakeInputs(instance);
      const CliquePartition partition =
          algo::GreedyCliquePartition(instance.conflicts());
      const std::vector<double> lemma6 =
          algo::ComputeSuffixBounds(owned.in, BoundMode::kLemma6, partition);
      const std::vector<double> clique =
          algo::ComputeSuffixBounds(owned.in, BoundMode::kClique, partition);
      const std::vector<double> lp = algo::ComputeSuffixBounds(
          owned.in, BoundMode::kCliqueLp, partition);
      const double opt = ExactOptimum(instance);

      // Admissible at the root: suffix[0] covers the whole instance.
      EXPECT_GE(lemma6[0] + algo::kBoundEps, opt);
      EXPECT_GE(clique[0] + algo::kBoundEps, opt);
      EXPECT_GE(lp[0] + algo::kBoundEps, opt);
      // The relaxation itself is admissible too.
      EXPECT_GE(algo::BMatchingBound(owned.in, 0) + algo::kBoundEps, opt);

      // Hierarchy: each level tightens (never loosens) the one above,
      // and suffixes are monotone with suffix[|V|] = 0.
      const size_t n = lemma6.size();
      ASSERT_EQ(n, clique.size());
      ASSERT_EQ(n, lp.size());
      EXPECT_EQ(lemma6[n - 1], 0.0);
      EXPECT_EQ(clique[n - 1], 0.0);
      EXPECT_EQ(lp[n - 1], 0.0);
      for (size_t k = 0; k < n; ++k) {
        EXPECT_LE(clique[k], lemma6[k]) << "suffix " << k;
        EXPECT_LE(lp[k], clique[k]) << "suffix " << k;
        if (k + 1 < n) {
          EXPECT_GE(lemma6[k], lemma6[k + 1]);
          EXPECT_GE(clique[k], clique[k + 1]);
        }
      }
    }
  }
}

TEST(ComputeSuffixBounds, CompleteGraphCliqueCapIsTight) {
  // Two conflicting events, one user with capacity 1: Lemma 6 claims
  // 1.0 + 0.8, but the single clique seats at most min(Σ c_v, viable
  // users) = 1 attendee, whose best similarity is 1.0 — exactly OPT.
  const Instance instance =
      MakeTableInstance({{1.0}, {0.8}}, {1, 1}, {1}, {{0, 1}});
  const OwnedInputs owned = MakeInputs(instance);
  const CliquePartition partition =
      algo::GreedyCliquePartition(instance.conflicts());
  ASSERT_EQ(partition.num_cliques(), 1);
  const std::vector<double> lemma6 =
      algo::ComputeSuffixBounds(owned.in, BoundMode::kLemma6, partition);
  const std::vector<double> clique =
      algo::ComputeSuffixBounds(owned.in, BoundMode::kClique, partition);
  EXPECT_DOUBLE_EQ(lemma6[0], 1.8);
  EXPECT_DOUBLE_EQ(clique[0], 1.0);
  EXPECT_DOUBLE_EQ(ExactOptimum(instance), 1.0);
}

// ---------------------------------------- b-matching vs the reference ---

// The b-matching weight on the generic engine (tests/flow), the way the
// LP bound computed it before it moved onto TransportSsp: an arc per pair
// with sim > 0 at cost −sim, a Bellman–Ford bootstrap, and augmentation
// while a path costs < 0.
double ReferenceBMatching(const BoundInputs& in, int suffix_start) {
  const int num_suffix = in.num_events - suffix_start;
  if (num_suffix <= 0 || in.num_users == 0) return 0.0;
  const int first_user = 1 + num_suffix;
  const int sink = first_user + in.num_users;
  FlowGraph graph(sink + 1);
  for (int i = 0; i < num_suffix; ++i) {
    const EventId v = in.order[suffix_start + i];
    graph.AddArc(0, 1 + i, in.event_capacity[v], 0.0);
    for (UserId u = 0; u < in.num_users; ++u) {
      const double s = in.sim[static_cast<size_t>(v) * in.num_users + u];
      if (s > 0.0) graph.AddArc(1 + i, first_user + u, 1, -s);
    }
  }
  for (UserId u = 0; u < in.num_users; ++u) {
    graph.AddArc(first_user + u, sink, in.user_capacity[u], 0.0);
  }
  SuccessiveShortestPaths ssp(&graph, 0, sink);
  while (ssp.AugmentIfCheaper(0.0) > 0) {
  }
  return -ssp.total_cost();
}

// Seeded inputs for the b-matching alone (no event bounds, no conflict
// graph): each similarity from `sim(rng)`, c_v ~ U[1, max_event_capacity],
// c_u ~ U[min_user_capacity, max_user_capacity], and a shuffled visit
// order.
struct MatchingShape {
  const char* name;
  int events;
  int users;
  int max_event_capacity;
  int min_user_capacity;
  int max_user_capacity;
  double (*sim)(Rng&);
};

// Points `owned.in` at the owned similarity, capacity and order arrays.
void LinkMatchingInputs(int events, int users, OwnedInputs& owned) {
  owned.in.num_events = events;
  owned.in.num_users = users;
  owned.in.sim = owned.sim.data();
  owned.in.event_capacity = owned.event_capacity.data();
  owned.in.user_capacity = owned.user_capacity.data();
  owned.in.order = owned.order.data();
}

OwnedInputs RandomMatchingInputs(const MatchingShape& shape, uint64_t seed) {
  Rng rng(seed);
  OwnedInputs owned;
  owned.sim.resize(static_cast<size_t>(shape.events) * shape.users);
  for (double& s : owned.sim) s = shape.sim(rng);
  for (int v = 0; v < shape.events; ++v) {
    owned.event_capacity.push_back(
        static_cast<int>(rng.UniformInt(1, shape.max_event_capacity)));
    owned.order.push_back(v);
  }
  for (int u = 0; u < shape.users; ++u) {
    owned.user_capacity.push_back(static_cast<int>(
        rng.UniformInt(shape.min_user_capacity, shape.max_user_capacity)));
  }
  for (int i = shape.events - 1; i > 0; --i) {
    std::swap(owned.order[i], owned.order[rng.UniformInt(0, i)]);
  }
  LinkMatchingInputs(shape.events, shape.users, owned);
  return owned;
}

TEST(BMatchingBound, AgreesWithReferenceEngineAtEverySuffix) {
  const auto uniform = [](Rng& rng) { return rng.NextDouble(); };
  const MatchingShape shapes[] = {
      // Most pairs at similarity exactly 0, and more seats than positive
      // pairs: TransportSsp gets the zero pairs at cost 1 and must leave
      // them empty; the reference gets no arc for them.
      {"zero-sims", 8, 20, 10, 1, 3,
       [](Rng& rng) { return rng.Bernoulli(0.7) ? 0.0 : rng.NextDouble(); }},
      // Five similarity values: many equal-cost paths.
      {"ties", 8, 20, 5, 1, 3,
       [](Rng& rng) {
         return 0.25 * static_cast<double>(rng.UniformInt(0, 4));
       }},
      // Every user can attend every event.
      {"users-cover-all-events", 6, 15, 8, 6, 6, uniform},
      {"single-user", 10, 1, 3, 1, 10, uniform},
      {"wide", 25, 100, 20, 1, 4, uniform},
  };
  for (const char* mode : {"scalar", "auto"}) {
    std::string error;
    ASSERT_TRUE(simd::SetDispatchOverride(mode, &error)) << error;
    for (const MatchingShape& shape : shapes) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        const OwnedInputs owned = RandomMatchingInputs(shape, seed);
        for (int k = 0; k <= shape.events; ++k) {
          const double reference = ReferenceBMatching(owned.in, k);
          const double bound = algo::BMatchingBound(owned.in, k);
          // Relative error, measured against max(|reference|, 1).
          EXPECT_LE(std::fabs(bound - reference),
                    1e-12 * std::max(1.0, std::fabs(reference)))
              << mode << " " << shape.name << " seed=" << seed
              << " suffix=" << k << ": " << bound << " vs " << reference;
        }
      }
    }
  }
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

TEST(BMatchingBound, StopsAtPathCostOneExactly) {
  // Each event's one positive pair, at 4e-10, is with a user of its own:
  // three disjoint paths, each costing 1 − 4e-10. MinCostFlow-GEACC's
  // 1 − 1e-9 stop would take none of them and return 0, below the
  // optimum 1.2e-9 that the bound must cover.
  OwnedInputs owned;
  owned.sim = {4e-10, 0.0, 0.0, 0.0, 4e-10, 0.0, 0.0, 0.0, 4e-10};
  owned.event_capacity = {1, 1, 1};
  owned.user_capacity = {1, 1, 1};
  owned.order = {0, 1, 2};
  LinkMatchingInputs(3, 3, owned);
  EXPECT_NEAR(algo::BMatchingBound(owned.in, 0), 1.2e-9, 1e-15);
  EXPECT_NEAR(ReferenceBMatching(owned.in, 0), 1.2e-9, 1e-15);
}

// ------------------------------------------------------ bound option ---

TEST(BoundOption, ValidateSolverOptionsRejectsUnknownNames) {
  SolverOptions options;
  options.bound = "chromatic";
  EXPECT_NE(ValidateSolverOptions(options), "");
  for (const char* name : {"lemma6", "clique", "clique-lp"}) {
    options.bound = name;
    EXPECT_EQ(ValidateSolverOptions(options), "") << name;
  }
}

// -------------------------------------------- solver bit-identity ------

TEST(PruneSolverBounds, BitIdenticalToExhaustiveAcrossBoundsAndThreads) {
  const auto exhaustive = CreateSolver("exhaustive");
  for (const double density : {0.5, 1.0}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const Instance instance =
          SmallRandomInstance(5, 7, density, 3, seed);
      const SolveResult reference = exhaustive->Solve(instance);
      const auto reference_pairs = reference.arrangement.SortedPairs();
      const double reference_sum = reference.arrangement.MaxSum(instance);

      int64_t invocations_lemma6 = 0;
      for (const char* bound : {"lemma6", "clique", "clique-lp"}) {
        for (const int threads : {1, 3}) {
          SolverOptions options;
          options.bound = bound;
          options.threads = threads;
          // Bit-identity (not just value equality) holds for the
          // seedless solver: see the contract in algo/bounds.h.
          options.enable_greedy_seed = false;
          const SolveResult result =
              CreateSolver("prune", options)->Solve(instance);
          EXPECT_EQ(result.arrangement.SortedPairs(), reference_pairs)
              << bound << " threads=" << threads << " seed=" << seed;
          EXPECT_EQ(result.arrangement.MaxSum(instance), reference_sum)
              << bound << " threads=" << threads << " seed=" << seed;
          if (threads == 1) {
            if (std::string(bound) == "lemma6") {
              invocations_lemma6 = result.stats.search_invocations;
            } else {
              // Tightening only shrinks the visited tree.
              EXPECT_LE(result.stats.search_invocations, invocations_lemma6)
                  << bound << " seed=" << seed;
            }
          }
        }
      }
    }
  }
}

TEST(PruneSolverBounds, BoundTyingTheIncumbentIsNeverPruned) {
  // Both DFS orders of this instance yield MaxSum exactly 1.0, and the
  // clique cap on the sibling subtree is exactly 1.0 as well — the bound
  // TIES the incumbent bit-for-bit. The prune rule must descend ties
  // (`bound + eps < incumbent`, not `<=`), or an optimal leaf is lost
  // when FP noise tips the comparison; this is the regression guard for
  // the shared PruneSolver / slot-exact contract.
  const Instance instance =
      MakeTableInstance({{1.0}, {1.0}}, {1, 1}, {1}, {{0, 1}});
  const SolveResult reference = CreateSolver("exhaustive")->Solve(instance);
  ASSERT_DOUBLE_EQ(reference.arrangement.MaxSum(instance), 1.0);
  for (const char* bound : {"lemma6", "clique", "clique-lp"}) {
    SolverOptions options;
    options.bound = bound;
    options.enable_greedy_seed = false;
    const SolveResult result =
        CreateSolver("prune", options)->Solve(instance);
    EXPECT_EQ(result.arrangement.SortedPairs(),
              reference.arrangement.SortedPairs())
        << bound;
    EXPECT_EQ(result.arrangement.MaxSum(instance), 1.0) << bound;
  }
}

// ----------------------------------------------------- slot-exact ------

// Dense slotted family: two heavily overlapping slots at one venue, so
// every scheduled pair of events conflicts regardless of slot choice —
// the forced-conflict graph is complete and the per-slot clique caps
// engage.
slot::SlottedGenConfig DenseSlottedConfig(uint64_t seed) {
  slot::SlottedGenConfig config;
  config.num_events = 5;
  config.num_users = 8;
  config.dim = 3;
  config.num_slots = 2;
  config.horizon_hours = 4.0;
  config.min_duration_hours = 3.5;
  config.max_duration_hours = 4.0;
  config.city_km = 0.0;
  config.allow_probability = 1.0;
  config.availability_count = DistributionSpec::Uniform(1.0, 2.0);
  config.seed = seed;
  return config;
}

// Hand-built instance where the per-slot clique cap provably prunes.
// Two identical fully overlapping slots at one venue, so all three
// events forced-conflict. v1 and v2 both chase users u0/u1 (sims 1.0),
// so suffix_plain double-counts those users at 4.0 while the clique cap
// knows at most 2.0 is attainable. v0 only appeals to u2 (sim 0.5), who
// is available in slot 0 alone. DFS: the v0 = slot 0 branch finds the
// optimum 2.5 first; at the v0 = slot 1 sibling the tightened bound is
// 0 + 2.0 < 2.5 — pruned — while the plain bound 0 + 4.0 would descend
// into all four leaves.
slot::SlottedInstance CliqueCutSlotted() {
  Instance base = geacc::testing::MakeTableInstance(
      {{0.0, 0.0, 0.5}, {1.0, 1.0, 0.0}, {1.0, 1.0, 0.0}}, {1, 2, 2},
      {1, 1, 1}, {});
  slot::SlotTable slots;
  slots.windows = {TimeWindow{0.0, 2.0, 0.0, 0.0},
                   TimeWindow{0.0, 2.0, 0.0, 0.0}};
  slots.speed_kmph = 0.0;
  return slot::SlottedInstance{std::move(base), std::move(slots),
                               {0b11u, 0b11u, 0b11u},
                               {0b11u, 0b11u, 0b01u}};
}

TEST(SlotExactBounds, CliqueCapPrunesWherePlainBoundDescends) {
  const slot::SlottedInstance slotted = CliqueCutSlotted();
  SolverOptions lemma6_options;
  lemma6_options.bound = "lemma6";
  SolverOptions clique_options;
  clique_options.bound = "clique";
  const slot::SlotSolveResult lemma6 =
      slot::CreateSlotSolver("slot-exact", lemma6_options)->Solve(slotted);
  const slot::SlotSolveResult clique =
      slot::CreateSlotSolver("slot-exact", clique_options)->Solve(slotted);

  EXPECT_DOUBLE_EQ(lemma6.max_sum, 2.5);
  EXPECT_EQ(clique.slotting, lemma6.slotting);
  EXPECT_EQ(clique.arrangement.SortedPairs(),
            lemma6.arrangement.SortedPairs());
  EXPECT_EQ(clique.max_sum, lemma6.max_sum);

  EXPECT_EQ(lemma6.leaf_solves, 8);
  EXPECT_LT(clique.leaf_solves, lemma6.leaf_solves);
  EXPECT_GT(clique.stats.bound_clique_cuts, 0);
  EXPECT_EQ(lemma6.stats.bound_clique_cuts, 0);
}

TEST(SlotExactBounds, CliqueBoundKeepsBitsAndCutsLeafSolves) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const slot::SlottedInstance slotted =
        slot::GenerateSlotted(DenseSlottedConfig(seed));
    SolverOptions lemma6_options;
    lemma6_options.bound = "lemma6";
    SolverOptions clique_options;
    clique_options.bound = "clique";
    const slot::SlotSolveResult lemma6 =
        slot::CreateSlotSolver("slot-exact", lemma6_options)->Solve(slotted);
    const slot::SlotSolveResult clique =
        slot::CreateSlotSolver("slot-exact", clique_options)->Solve(slotted);

    // Same joint result, bit for bit: slotting, pair set, MaxSum.
    EXPECT_EQ(clique.slotting, lemma6.slotting) << "seed=" << seed;
    EXPECT_EQ(clique.arrangement.SortedPairs(),
              lemma6.arrangement.SortedPairs())
        << "seed=" << seed;
    EXPECT_EQ(clique.max_sum, lemma6.max_sum) << "seed=" << seed;

    // The tightened per-slot caps only remove work.
    EXPECT_LE(clique.leaf_solves, lemma6.leaf_solves) << "seed=" << seed;
    EXPECT_LE(clique.slottings_considered, lemma6.slottings_considered)
        << "seed=" << seed;
    EXPECT_EQ(lemma6.stats.bound_clique_cuts, 0) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace geacc
