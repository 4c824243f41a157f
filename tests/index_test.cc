// Unit and property tests for the k-NN index substrate. All four backends
// (linear scan, kd-tree, VA-File, iDistance) must agree exactly: same
// similarity values, same deterministic tie-break, every point enumerated
// exactly once in non-increasing similarity order. The named factory's
// fallback to linear scan is pinned, and the seat-filtered linear cursor
// Greedy-GEACC runs is checked against the plain one.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/attributes.h"
#include "core/similarity.h"
#include "index/idistance_index.h"
#include "index/kd_tree_index.h"
#include "index/knn_index.h"
#include "index/linear_scan_index.h"
#include "index/va_file_index.h"
#include "obs/stats.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace geacc {
namespace {

constexpr const char* kAllIndexes[] = {"linear", "kdtree", "vafile",
                                       "idistance"};

AttributeMatrix RandomPoints(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  AttributeMatrix points(n, dim);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      points.Set(i, j, rng.UniformReal(0.0, 100.0));
    }
  }
  return points;
}

// Every remaining (id, similarity bits) of `cursor`, in order.
std::vector<std::pair<int, uint64_t>> Drain(NnCursor& cursor) {
  std::vector<std::pair<int, uint64_t>> out;
  while (const auto next = cursor.Next()) {
    out.emplace_back(next->id, std::bit_cast<uint64_t>(next->similarity));
  }
  return out;
}

TEST(MakeIndex, FactoryNamesAndFallback) {
  const AttributeMatrix points = RandomPoints(10, 2, 1);
  const EuclideanSimilarity euclid(100.0);
  const CosineSimilarity cosine;
  for (const char* name : kAllIndexes) {
    ASSERT_NE(MakeIndex(name, points, euclid), nullptr) << name;
    EXPECT_EQ(MakeIndex(name, points, euclid)->Name(), name);
    // Non-metric similarity: distance-ordered indexes degrade to linear.
    EXPECT_EQ(MakeIndex(name, points, cosine)->Name(), "linear") << name;
  }
  EXPECT_EQ(MakeIndex("nope", points, euclid), nullptr);
}

TEST(DistanceOrderedIndexes, RejectNonMonotoneSimilarity) {
  const AttributeMatrix points = RandomPoints(4, 2, 2);
  const CosineSimilarity cosine;
  EXPECT_DEATH(KdTreeIndex(points, cosine), "Euclidean-monotone");
  EXPECT_DEATH(VaFileIndex(points, cosine), "Euclidean-monotone");
  EXPECT_DEATH(IDistanceIndex(points, cosine), "Euclidean-monotone");
}

TEST(Index, EmptyIndexYieldsNothing) {
  const AttributeMatrix points(0, 2);
  const EuclideanSimilarity sim(100.0);
  const double query[] = {1.0, 2.0};
  for (const char* name : kAllIndexes) {
    const auto index = MakeIndex(name, points, sim);
    EXPECT_TRUE(index->Query(query, 3).empty()) << name;
    EXPECT_FALSE(index->CreateCursor(query)->Next().has_value()) << name;
  }
}

TEST(Index, QueryZeroKEmpty) {
  const AttributeMatrix points = RandomPoints(5, 2, 3);
  const EuclideanSimilarity sim(100.0);
  const double query[] = {0.0, 0.0};
  for (const char* name : kAllIndexes) {
    EXPECT_TRUE(MakeIndex(name, points, sim)->Query(query, 0).empty())
        << name;
  }
}

TEST(Index, DuplicatePointsTieBrokenById) {
  AttributeMatrix points(3, 1);
  points.Set(0, 0, 5.0);
  points.Set(1, 0, 5.0);
  points.Set(2, 0, 5.0);
  const EuclideanSimilarity sim(10.0);
  const double query[] = {5.0};
  for (const char* name : kAllIndexes) {
    const auto index = MakeIndex(name, points, sim);
    const auto result = index->Query(query, 3);
    ASSERT_EQ(result.size(), 3u) << name;
    EXPECT_EQ(result[0].id, 0) << name;
    EXPECT_EQ(result[1].id, 1) << name;
    EXPECT_EQ(result[2].id, 2) << name;
  }
}

TEST(Index, SinglePointIndex) {
  AttributeMatrix points(1, 2);
  points.Set(0, 0, 3.0);
  const EuclideanSimilarity sim(10.0);
  const double query[] = {1.0, 1.0};
  for (const char* name : kAllIndexes) {
    const auto index = MakeIndex(name, points, sim);  // must outlive cursor
    auto cursor = index->CreateCursor(query);
    const auto first = cursor->Next();
    ASSERT_TRUE(first.has_value()) << name;
    EXPECT_EQ(first->id, 0) << name;
    EXPECT_FALSE(cursor->Next().has_value()) << name;
  }
}

using AgreementParam = std::tuple<std::string, int, int, uint64_t>;

class IndexAgreementTest : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(IndexAgreementTest, CursorEnumeratesAllPointsOnceInOrder) {
  const auto& [name, n, dim, seed] = GetParam();
  const AttributeMatrix points = RandomPoints(n, dim, seed);
  const EuclideanSimilarity sim(100.0);
  const auto index = MakeIndex(name, points, sim);
  auto cursor = index->CreateCursor(points.Row(0));
  std::set<int> seen;
  double previous = 2.0;  // above any similarity
  while (const auto neighbor = cursor->Next()) {
    ASSERT_TRUE(seen.insert(neighbor->id).second)
        << name << " returned id " << neighbor->id << " twice";
    ASSERT_LE(neighbor->similarity, previous + 1e-12) << name;
    previous = neighbor->similarity;
  }
  EXPECT_EQ(static_cast<int>(seen.size()), n) << name;
  EXPECT_FALSE(cursor->Next().has_value()) << name << " after exhaustion";
}

TEST_P(IndexAgreementTest, MatchesLinearScanExactly) {
  const auto& [name, n, dim, seed] = GetParam();
  const AttributeMatrix points = RandomPoints(n, dim, seed);
  const AttributeMatrix queries = RandomPoints(3, dim, seed + 500);
  const EuclideanSimilarity sim(100.0);
  const LinearScanIndex linear(points, sim);
  const auto other = MakeIndex(name, points, sim);
  for (int q = 0; q < queries.rows(); ++q) {
    auto linear_cursor = linear.CreateCursor(queries.Row(q));
    auto other_cursor = other->CreateCursor(queries.Row(q));
    while (true) {
      const auto a = linear_cursor->Next();
      const auto b = other_cursor->Next();
      ASSERT_EQ(a.has_value(), b.has_value()) << name;
      if (!a) break;
      ASSERT_EQ(a->id, b->id) << name << " query " << q;
      ASSERT_NEAR(a->similarity, b->similarity, 1e-12) << name;
    }
    // Top-k queries agree as well (k straddling batch/partition sizes).
    for (const int k : {1, 5, n}) {
      const auto top_linear = linear.Query(queries.Row(q), k);
      const auto top_other = other->Query(queries.Row(q), k);
      ASSERT_EQ(top_linear.size(), top_other.size()) << name;
      for (size_t i = 0; i < top_linear.size(); ++i) {
        ASSERT_EQ(top_linear[i].id, top_other[i].id) << name << " k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexAgreementTest,
    ::testing::Combine(
        ::testing::Values("kdtree", "vafile", "idistance", "linear"),
        // Sizes straddle the linear cursor's initial batch (64), the
        // kd-tree leaf size (16), and the iDistance pivot count (16).
        ::testing::Values(1, 2, 16, 63, 64, 65, 200),
        ::testing::Values(1, 2, 3, 8), ::testing::Values(11, 12)),
    [](const ::testing::TestParamInfo<AgreementParam>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_d" +
             std::to_string(std::get<2>(info.param)) + "_s" +
             std::to_string(std::get<3>(info.param));
    });

TEST(Index, HighDimensionalAgreement) {
  // d = 20 (the paper's default) — tree/grid indexes degenerate but must
  // stay correct.
  const AttributeMatrix points = RandomPoints(150, 20, 77);
  const EuclideanSimilarity sim(100.0);
  const LinearScanIndex linear(points, sim);
  for (const char* name : {"kdtree", "vafile", "idistance"}) {
    const auto other = MakeIndex(name, points, sim);
    auto lc = linear.CreateCursor(points.Row(5));
    auto oc = other->CreateCursor(points.Row(5));
    for (int i = 0; i < 150; ++i) {
      const auto a = lc->Next();
      const auto b = oc->Next();
      ASSERT_TRUE(a && b) << name;
      ASSERT_EQ(a->id, b->id) << name << " rank " << i;
    }
  }
}

TEST(Index, CursorWorksWithRbfSimilarity) {
  // RBF is Euclidean-monotone, so all distance-ordered indexes accept it;
  // similarity values differ from Eq. (1) but the order must match.
  const AttributeMatrix points = RandomPoints(40, 3, 5);
  const RbfSimilarity sim(50.0);
  const LinearScanIndex linear(points, sim);
  for (const char* name : {"kdtree", "vafile", "idistance"}) {
    const auto other = MakeIndex(name, points, sim);
    auto lc = linear.CreateCursor(points.Row(0));
    auto oc = other->CreateCursor(points.Row(0));
    while (true) {
      const auto a = lc->Next();
      const auto b = oc->Next();
      ASSERT_EQ(a.has_value(), b.has_value()) << name;
      if (!a) break;
      ASSERT_EQ(a->id, b->id) << name;
      ASSERT_NEAR(a->similarity, b->similarity, 1e-12) << name;
    }
  }
}

TEST(VaFile, RefinementFractionBelowOneOnClusteredData) {
  // Clustered data: most points' lower bounds exceed the k-th nearest,
  // so the VA-file should skip a good share of exact computations.
  Rng rng(31);
  AttributeMatrix points(2000, 4);
  for (int i = 0; i < points.rows(); ++i) {
    const double center = (i % 10) * 100.0;
    for (int j = 0; j < 4; ++j) {
      points.Set(i, j, center + rng.UniformReal(0.0, 5.0));
    }
  }
  const EuclideanSimilarity sim(1000.0);
  const VaFileIndex index(points, sim, /*bits=*/6);
  const double query[] = {0.0, 0.0, 0.0, 0.0};
  const auto top = index.Query(query, 10);
  ASSERT_EQ(top.size(), 10u);
  EXPECT_LT(index.last_refinement_fraction(), 0.5);
}

TEST(VaFile, BitsBoundsChecked) {
  const AttributeMatrix points = RandomPoints(4, 2, 1);
  const EuclideanSimilarity sim(100.0);
  EXPECT_DEATH(VaFileIndex(points, sim, 0), "bits per dim");
  EXPECT_DEATH(VaFileIndex(points, sim, 9), "bits per dim");
}

TEST(IDistance, PivotCountClampedToDataSize) {
  const AttributeMatrix points = RandomPoints(3, 2, 1);
  const EuclideanSimilarity sim(100.0);
  const IDistanceIndex index(points, sim, /*num_pivots=*/64);
  EXPECT_LE(index.num_pivots(), 3);
  const auto top = index.Query(points.Row(0), 3);
  EXPECT_EQ(top.size(), 3u);
}

TEST(IDistance, AllIdenticalPoints) {
  AttributeMatrix points(5, 2);
  for (int i = 0; i < 5; ++i) {
    points.Set(i, 0, 7.0);
    points.Set(i, 1, 7.0);
  }
  const EuclideanSimilarity sim(10.0);
  const IDistanceIndex index(points, sim);
  const double query[] = {1.0, 1.0};
  auto cursor = index.CreateCursor(query);
  for (int i = 0; i < 5; ++i) {
    const auto next = cursor->Next();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->id, i);  // ties by ascending id
  }
  EXPECT_FALSE(cursor->Next().has_value());
}

TEST(Index, SimilarityTiesAtDistinctDistancesBrokenById) {
  // 1 − √d²/T rounds to 1.0 for every point within ~1e-16·T of the query:
  // distinct distances, one similarity. Every backend must then list the
  // tied points by id, not by distance.
  AttributeMatrix points(4, 1);
  points.Set(0, 0, 3e-17);
  points.Set(1, 0, 2e-17);
  points.Set(2, 0, 0.5);
  points.Set(3, 0, 1e-17);
  const EuclideanSimilarity sim(1.0);
  const double query[] = {0.0};
  ASSERT_EQ(sim.Compute(points.Row(0), query, 1), 1.0);
  ASSERT_EQ(sim.Compute(points.Row(3), query, 1), 1.0);
  for (const char* name : kAllIndexes) {
    const auto index = MakeIndex(name, points, sim);
    auto cursor = index->CreateCursor(query);
    for (const int expected : {0, 1, 3, 2}) {
      const auto next = cursor->Next();
      ASSERT_TRUE(next.has_value()) << name;
      EXPECT_EQ(next->id, expected) << name;
    }
    EXPECT_FALSE(cursor->Next().has_value()) << name;
    const auto top = index->Query(query, 2);
    ASSERT_EQ(top.size(), 2u) << name;
    EXPECT_EQ(top[0].id, 0) << name;
    EXPECT_EQ(top[1].id, 1) << name;
  }
}

TEST(Index, EqualDistancesAcrossLeavesBrokenById) {
  // Query at 0 with mirrored integer points: ids 16..31 sit at -3..-18 and
  // ids 0..15 at +3..+18, so each side fills one kd-tree leaf and ids 16
  // and 0 tie at distance 3. The left leaf is expanded first, yet id 0
  // must still come before id 16.
  AttributeMatrix points(32, 1);
  for (int i = 0; i < 16; ++i) {
    points.Set(i, 0, 3.0 + i);
    points.Set(16 + i, 0, -3.0 - i);
  }
  const EuclideanSimilarity sim(100.0);
  const double query[] = {0.0};
  const LinearScanIndex linear(points, sim);
  const KdTreeIndex kdtree(points, sim);
  auto lc = linear.CreateCursor(query);
  auto kc = kdtree.CreateCursor(query);
  for (int rank = 0; rank < 32; ++rank) {
    const auto a = lc->Next();
    const auto b = kc->Next();
    ASSERT_TRUE(a && b);
    ASSERT_EQ(a->id, b->id) << "rank " << rank;
  }
  EXPECT_FALSE(kc->Next().has_value());
}

// Every backend's full cursor enumeration — ids and similarity bits —
// equals linear scan's on the instances the greedy tests use, over the
// users (event queries) and over the events (user queries).
TEST(Index, GreedyIdenticalAcrossAllBackends) {
  const auto enumerate = [](const KnnIndex& index, const double* query) {
    return Drain(*index.CreateCursor(query));
  };
  for (uint64_t seed = 0; seed < 5; ++seed) {
    const Instance instance =
        testing::SmallRandomInstance(5, 15, 0.25, 4, seed);
    const SimilarityFunction& sim = instance.similarity();
    const AttributeMatrix& users = instance.user_attributes();
    const AttributeMatrix& events = instance.event_attributes();
    const LinearScanIndex linear_users(users, sim);
    const LinearScanIndex linear_events(events, sim);
    for (const char* name : kAllIndexes) {
      const auto user_index = MakeIndex(name, users, sim);
      const auto event_index = MakeIndex(name, events, sim);
      for (EventId v = 0; v < events.rows(); ++v) {
        EXPECT_EQ(enumerate(*user_index, events.Row(v)),
                  enumerate(linear_users, events.Row(v)))
            << "seed " << seed << " index " << name << " event " << v;
      }
      for (UserId u = 0; u < users.rows(); ++u) {
        EXPECT_EQ(enumerate(*event_index, users.Row(u)),
                  enumerate(linear_events, users.Row(u)))
            << "seed " << seed << " index " << name << " user " << u;
      }
    }
  }
}

// The seat-filtered cursor Greedy-GEACC runs. 3,000 points make the
// refills cross several batch sizes (64, 128, …, 1024); seats start at
// 0–2 and a random point loses a seat after every Next().
TEST(Index, SeatFilteredCursorSkipsSeatlessPoints) {
  const AttributeMatrix points = RandomPoints(3000, 4, 91);
  const EuclideanSimilarity sim(100.0);
  const LinearScanIndex index(points, sim);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const double* query = points.Row(static_cast<int>(seed) * 100);
    std::vector<int> seats(points.rows());
    for (int& seat : seats) seat = static_cast<int>(rng.UniformInt(0, 2));
    const std::vector<int> initial = seats;

    std::vector<int> plain;
    auto plain_cursor = index.CreateCursor(query);
    while (const auto next = plain_cursor->Next()) plain.push_back(next->id);

    std::vector<int> filtered;
    auto cursor = index.CreateCursor(query, seats);
    while (const auto next = cursor->Next()) {
      filtered.push_back(next->id);
      int& seat = seats[rng.UniformInt(0, points.rows() - 1)];
      if (seat > 0) --seat;
    }
    EXPECT_FALSE(cursor->Next().has_value()) << "seed " << seed;
    ASSERT_GT(filtered.size(), 1024u + 512u) << "seed " << seed;

    // A subsequence of the plain enumeration...
    size_t matched = 0;
    for (const int id : plain) {
      if (matched < filtered.size() && filtered[matched] == id) ++matched;
    }
    EXPECT_EQ(matched, filtered.size()) << "seed " << seed;
    // ...that holds every point still seated, and none seatless from the
    // start.
    const std::set<int> returned(filtered.begin(), filtered.end());
    for (int i = 0; i < points.rows(); ++i) {
      if (seats[i] > 0) {
        EXPECT_TRUE(returned.contains(i)) << "seed " << seed << " id " << i;
      }
      if (initial[i] <= 0) {
        EXPECT_FALSE(returned.contains(i)) << "seed " << seed << " id " << i;
      }
    }
  }
}

// With every seat positive the filter changes nothing: the same
// neighbors, refill for refill.
TEST(Index, SeatFilterWithPositiveSeatsIsThePlainCursor) {
  const AttributeMatrix points = RandomPoints(3000, 4, 92);
  const EuclideanSimilarity sim(100.0);
  const LinearScanIndex index(points, sim);
  std::vector<int> seats(points.rows());
  Rng rng(7);
  for (int& seat : seats) seat = static_cast<int>(rng.UniformInt(1, 2));
  const auto drain = [](std::unique_ptr<NnCursor> cursor,
                        obs::StatsSnapshot* delta) {
    const obs::StatsScope scope;
    const auto out = Drain(*cursor);
    *delta = scope.Harvest();
    return out;
  };
  obs::StatsSnapshot plain_stats;
  obs::StatsSnapshot filtered_stats;
  const auto plain = drain(index.CreateCursor(points.Row(0)), &plain_stats);
  const auto filtered =
      drain(index.CreateCursor(points.Row(0), seats), &filtered_stats);
  EXPECT_EQ(filtered, plain);
  EXPECT_EQ(plain.size(), 3000u);
#if !defined(GEACC_NO_STATS)
  for (const char* name :
       {"index.linear.refills", "index.linear.points_scanned"}) {
    ASSERT_TRUE(plain_stats.counters.contains(name)) << name;
    EXPECT_EQ(filtered_stats.counters[name], plain_stats.counters[name])
        << name;
  }
  EXPECT_GT(plain_stats.counters["index.linear.refills"], 4);
#endif
}

}  // namespace
}  // namespace geacc
