// Tests for the incremental repair engine (src/dyn/).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "algo/online_greedy_solver.h"
#include "algo/solvers.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "tests/test_util.h"

namespace geacc {
namespace {

using geacc::testing::MakeTableInstance;
using geacc::testing::SmallRandomInstance;

std::vector<double> RowOf(const AttributeMatrix& matrix, int row) {
  const double* source = matrix.Row(row);
  return std::vector<double>(source, source + matrix.dim());
}

// Unlimited budget, no drift fallback: pure local repair.
RepairOptions PureRepair() {
  RepairOptions options;
  options.drift_threshold = 0.0;
  return options;
}

TEST(IncrementalArranger, FullResolveBootstrapsFromTheFallback) {
  const Instance seed = geacc::testing::PaperTableIExample();
  DynamicInstance dynamic(seed);
  IncrementalArranger arranger(&dynamic);
  EXPECT_EQ(arranger.arrangement().size(), 0);
  arranger.FullResolve();
  const double greedy =
      CreateSolver("greedy")->Solve(seed).arrangement.MaxSum(seed);
  EXPECT_NEAR(arranger.max_sum(), greedy, 1e-9);
  EXPECT_EQ(arranger.Validate(), "");
}

TEST(IncrementalArranger, ArrivalsAndDeparturesStayFeasible) {
  const Instance seed = SmallRandomInstance(6, 20, 0.3, 3, 11);
  DynamicInstance dynamic(seed);
  IncrementalArranger arranger(&dynamic, PureRepair());
  arranger.FullResolve();

  // Remove a third of the users; seats refill from whoever remains.
  for (UserId u = 0; u < 20; u += 3) {
    arranger.Apply(Mutation::RemoveUser(u));
    ASSERT_EQ(arranger.Validate(), "") << "after removing user " << u;
  }
  // New arrivals use fresh slot ids.
  for (int i = 0; i < 5; ++i) {
    const Mutation arrival =
        Mutation::AddUser(RowOf(seed.user_attributes(), i), 2);
    arranger.Apply(arrival);
    ASSERT_EQ(arranger.Validate(), "");
  }
  EXPECT_NEAR(arranger.max_sum(), arranger.RecomputeMaxSum(), 1e-9);
  EXPECT_EQ(arranger.stats().mutations, 12);
}

TEST(IncrementalArranger, AddConflictEvictsTheLessInterestingSide) {
  // User 0 (capacity 2) holds both events; after they conflict, only the
  // 0.9 event survives and the 0.4 one goes to nobody (no other user).
  const Instance seed = MakeTableInstance({{0.9}, {0.4}}, {1, 1}, {2}, {});
  DynamicInstance dynamic(seed);
  IncrementalArranger arranger(&dynamic, PureRepair());
  arranger.FullResolve();
  ASSERT_EQ(arranger.arrangement().size(), 2);

  arranger.Apply(Mutation::AddConflict(0, 1));
  EXPECT_EQ(arranger.arrangement().SortedPairs(),
            (std::vector<std::pair<EventId, UserId>>{{0, 0}}));
  EXPECT_NEAR(arranger.max_sum(), 0.9, 1e-12);
  EXPECT_NEAR(arranger.drift(), 0.4, 1e-12);
  EXPECT_EQ(arranger.Validate(), "");
}

TEST(IncrementalArranger, CapacityCutEvictsLeastSimilarAndReseats) {
  // Event 0 (capacity 2) holds users 0 and 1; cutting it to 1 evicts the
  // 0.3 user, who lands on event 1 (0.2) instead.
  const Instance seed =
      MakeTableInstance({{0.8, 0.3}, {0.0, 0.2}}, {2, 1}, {1, 1}, {});
  DynamicInstance dynamic(seed);
  IncrementalArranger arranger(&dynamic, PureRepair());
  arranger.FullResolve();
  ASSERT_EQ(arranger.arrangement().size(), 2);

  arranger.Apply(Mutation::SetEventCapacity(0, 1));
  EXPECT_EQ(arranger.arrangement().SortedPairs(),
            (std::vector<std::pair<EventId, UserId>>{{0, 0}, {1, 1}}));
  EXPECT_NEAR(arranger.max_sum(), 1.0, 1e-12);
  // Displaced 0.3, won back 0.2 elsewhere: drift is the 0.1 net loss.
  EXPECT_NEAR(arranger.drift(), 0.1, 1e-12);
}

TEST(IncrementalArranger, RemoveEventReseatsItsAttendees) {
  const Instance seed =
      MakeTableInstance({{0.9}, {0.5}}, {1, 1}, {1}, {});
  DynamicInstance dynamic(seed);
  IncrementalArranger arranger(&dynamic, PureRepair());
  arranger.FullResolve();
  arranger.Apply(Mutation::RemoveEvent(0));
  EXPECT_EQ(arranger.arrangement().SortedPairs(),
            (std::vector<std::pair<EventId, UserId>>{{1, 0}}));
  // Removal losses are unavoidable, so they do not accumulate drift.
  EXPECT_NEAR(arranger.drift(), 0.0, 1e-12);
  EXPECT_EQ(arranger.Validate(), "");
}

TEST(IncrementalArranger, DriftThresholdTriggersFullResolve) {
  const Instance seed = SmallRandomInstance(8, 30, 0.0, 3, 23);
  DynamicInstance dynamic(seed);
  RepairOptions options;
  options.drift_threshold = 1e-6;  // any displaced value forces a resolve
  IncrementalArranger arranger(&dynamic, options);
  arranger.FullResolve();
  const int64_t resolves_before = arranger.stats().full_resolves;

  // Cut every event to capacity 1: plenty of displaced value.
  for (EventId v = 0; v < 8; ++v) {
    arranger.Apply(Mutation::SetEventCapacity(v, 1));
  }
  EXPECT_GT(arranger.stats().full_resolves, resolves_before);
  EXPECT_NEAR(arranger.drift(), 0.0, 1e-12);  // reset by the resolve
  EXPECT_EQ(arranger.Validate(), "");
}

TEST(IncrementalArranger, RepairBudgetBoundsCursorSteps) {
  const Instance seed = SmallRandomInstance(10, 40, 0.2, 3, 31);
  DynamicInstance dynamic(seed);
  RepairOptions options;
  options.repair_budget = 2;  // almost no repair work allowed
  options.drift_threshold = 0.0;
  IncrementalArranger arranger(&dynamic, options);
  arranger.FullResolve();

  for (UserId u = 0; u < 10; ++u) {
    arranger.Apply(Mutation::RemoveUser(u));
    // Feasibility never depends on the budget; only refill quality does.
    ASSERT_EQ(arranger.Validate(), "");
  }
  EXPECT_LE(arranger.stats().cursor_steps, 2 * 10);
  EXPECT_GT(arranger.stats().budget_exhausted, 0);
}

TEST(IncrementalArranger, ArrivalOnlyTraceMatchesOnlineArranger) {
  // The documented equivalence (algo/online_greedy_solver.h): feeding the
  // incremental engine an id-order arrival-only trace reproduces
  // OnlineArranger's arrangement exactly.
  for (const uint64_t seed : {5u, 6u, 7u}) {
    const Instance instance = SmallRandomInstance(7, 25, 0.3, 3, seed);

    DynamicInstance dynamic(instance.dim(), instance.similarity().Clone());
    IncrementalArranger arranger(&dynamic, PureRepair());
    // Stage the event side first (no users yet, so no assignments).
    for (EventId v = 0; v < instance.num_events(); ++v) {
      arranger.Apply(Mutation::AddEvent(RowOf(instance.event_attributes(), v),
                                        instance.event_capacity(v)));
    }
    for (EventId v = 0; v < instance.num_events(); ++v) {
      for (const EventId w : instance.conflicts().ConflictsOf(v)) {
        if (w > v) arranger.Apply(Mutation::AddConflict(v, w));
      }
    }
    ASSERT_EQ(arranger.arrangement().size(), 0);
    for (UserId u = 0; u < instance.num_users(); ++u) {
      arranger.Apply(Mutation::AddUser(RowOf(instance.user_attributes(), u),
                                       instance.user_capacity(u)));
    }

    OnlineArranger online(instance);
    for (UserId u = 0; u < instance.num_users(); ++u) online.ArriveUser(u);

    EXPECT_EQ(arranger.arrangement().SortedPairs(),
              online.arrangement().SortedPairs())
        << "seed " << seed;
    EXPECT_EQ(arranger.Validate(), "") << "seed " << seed;
  }
}

TEST(IncrementalArranger, InstallRejectsOverCapacityPairs) {
  // Seats are capacity minus load, not stored counts, so an installed or
  // restored pair set that overfills an event or a user must still be
  // refused by Validate().
  const Instance seed = MakeTableInstance({{0.9, 0.8}, {0.7, 0.6}}, {1, 2},
                                          {1, 2}, {});
  DynamicInstance dynamic(seed);
  IncrementalArranger arranger(&dynamic, PureRepair());
  const struct {
    std::vector<std::pair<EventId, UserId>> pairs;
    const char* error;
  } cases[] = {
      {{{0, 0}, {0, 1}}, "event 0 over capacity"},
      {{{0, 0}, {1, 0}}, "user 0 over capacity"},
  };
  for (const auto& bad : cases) {
    double sum = 0.0;
    for (const auto& [v, u] : bad.pairs) sum += seed.Similarity(v, u);
    uint64_t bits = 0;
    std::memcpy(&bits, &sum, sizeof(bits));
    const std::string error = arranger.InstallArrangement(bad.pairs, bits);
    EXPECT_NE(error.find(bad.error), std::string::npos) << error;
    EXPECT_EQ(arranger.arrangement().size(), 0);
    EXPECT_EQ(arranger.Validate(), "");
  }
}

TEST(IncrementalArranger, OutOfBandInstanceMutationDies) {
  const Instance seed = SmallRandomInstance(3, 5, 0.0, 2, 1);
  DynamicInstance dynamic(seed);
  IncrementalArranger arranger(&dynamic);
  dynamic.SetUserCapacity(0, 2);  // behind the arranger's back
  EXPECT_DEATH(arranger.Apply(Mutation::SetUserCapacity(0, 3)), "stale");
}

TEST(IncrementalArranger, RejectsUnknownFallback) {
  const Instance seed = SmallRandomInstance(3, 5, 0.0, 2, 2);
  EXPECT_DEATH(
      {
        DynamicInstance dynamic(seed);
        RepairOptions options;
        options.fallback_solver = "nope";
        IncrementalArranger arranger(&dynamic, options);
      },
      "unknown fallback_solver");
}

}  // namespace
}  // namespace geacc
