// The disk-backed iDistance must be indistinguishable from the in-memory
// one except in cost profile: identical enumeration (bit-identical
// similarities, same tie-break), identical solver results, and resident
// memory bounded by the pool budget even when the tree file is many times
// larger (ISSUE acceptance: 4× over budget).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/greedy_solver.h"
#include "core/attributes.h"
#include "core/similarity.h"
#include "index/idistance_index.h"
#include "index/idistance_paged.h"
#include "index/knn_index.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace geacc {
namespace {

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

StorageOptions TinyStorage() {
  StorageOptions storage;
  storage.page_size = 512;
  storage.budget_bytes = 2 * 512;  // two frames — the minimum pool
  return storage;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

// Drains both cursors fully and requires the exact same (id, similarity)
// sequence — similarity compared as doubles with ==, i.e. bit-identical
// up to signed-zero equivalence.
void ExpectIdenticalEnumeration(const KnnIndex& expected,
                                const KnnIndex& actual,
                                const double* query) {
  auto e = expected.CreateCursor(query);
  auto a = actual.CreateCursor(query);
  int position = 0;
  for (;;) {
    const std::optional<Neighbor> en = e->Next();
    const std::optional<Neighbor> an = a->Next();
    ASSERT_EQ(en.has_value(), an.has_value()) << "at position " << position;
    if (!en.has_value()) break;
    ASSERT_EQ(en->id, an->id) << "at position " << position;
    ASSERT_EQ(en->similarity, an->similarity) << "at position " << position;
    ++position;
  }
  // Exhausted cursors stay exhausted.
  EXPECT_FALSE(a->Next().has_value());
}

TEST(PagedIDistance, EnumerationMatchesInMemoryBackend) {
  const EuclideanSimilarity similarity(400.0);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const AttributeMatrix points = RandomPoints(300, 4, seed);
    const IDistanceIndex in_memory(points, similarity);
    const PagedIDistanceIndex paged(points, similarity, TinyStorage());
    ASSERT_EQ(paged.num_points(), in_memory.num_points());
    EXPECT_EQ(paged.num_pivots(), in_memory.num_pivots());

    const AttributeMatrix queries = RandomPoints(20, 4, seed + 100);
    for (int q = 0; q < queries.rows(); ++q) {
      ExpectIdenticalEnumeration(in_memory, paged, queries.Row(q));
    }
    // Query() is the cursor prefix; spot-check a few k values.
    for (const int k : {1, 7, 300}) {
      const auto expected = in_memory.Query(queries.Row(0), k);
      const auto actual = paged.Query(queries.Row(0), k);
      ASSERT_EQ(expected.size(), actual.size()) << "k=" << k;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].id, actual[i].id);
        EXPECT_EQ(expected[i].similarity, actual[i].similarity);
      }
    }
  }
}

TEST(PagedIDistance, FactoryNameAndNonMetricFallback) {
  const AttributeMatrix points = RandomPoints(20, 3, 7);
  const EuclideanSimilarity euclid(400.0);
  const CosineSimilarity cosine;
  auto paged = MakeIndex("idistance-paged", points, euclid, TinyStorage());
  ASSERT_NE(paged, nullptr);
  EXPECT_EQ(paged->Name(), "idistance-paged");
  // The 3-arg factory reaches the paged backend with default options.
  auto via_default = MakeIndex("idistance-paged", points, euclid);
  ASSERT_NE(via_default, nullptr);
  EXPECT_EQ(via_default->Name(), "idistance-paged");
  // Distance-keyed partitions are meaningless for non-metric similarity.
  auto fallback = MakeIndex("idistance-paged", points, cosine, TinyStorage());
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->Name(), "linear");
}

TEST(PagedIDistance, RemovesBackingFileOnDestruction) {
  const AttributeMatrix points = RandomPoints(50, 3, 9);
  const EuclideanSimilarity similarity(400.0);
  std::string path;
  {
    const PagedIDistanceIndex index(points, similarity, TinyStorage());
    path = index.file_path();
    EXPECT_TRUE(FileExists(path));
  }
  EXPECT_FALSE(FileExists(path));
}

TEST(PagedIDistance, OutOfCoreFourTimesOverBudget) {
  // 20k 6-d points → key-tree file far past 4× the 2-frame pool budget,
  // yet peak resident frame memory never exceeds the budget.
  const AttributeMatrix points = RandomPoints(20000, 6, 11);
  const EuclideanSimilarity similarity(1000.0);
  const StorageOptions storage = TinyStorage();
  const PagedIDistanceIndex index(points, similarity, storage);

  EXPECT_GE(index.file_bytes(), 4 * storage.budget_bytes)
      << "instance not actually out of core";
  // And it still answers correctly: top-1 of a stored point is itself.
  const auto top = index.Query(points.Row(123), 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 123);

  const storage::PoolStats stats = index.pool_stats();
  EXPECT_LE(stats.peak_resident_bytes, storage.budget_bytes);
  EXPECT_GT(stats.faults, 0) << "nothing streamed from disk?";

  // ByteEstimate reports resident memory, not the file.
  EXPECT_LT(index.ByteEstimate(), index.file_bytes());
}

TEST(GreedySolver, PagedBackendIsBitIdenticalToInMemory) {
  StorageOptions storage;
  storage.budget_bytes = 1024;  // force real paging
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const Instance instance =
        geacc::testing::SmallRandomInstance(8, 40, 0.2, 3, seed);
    const SimilarityFunction& similarity = instance.similarity();

    const IDistanceIndex users(instance.user_attributes(), similarity);
    const IDistanceIndex events(instance.event_attributes(), similarity);
    const PagedIDistanceIndex paged_users(instance.user_attributes(),
                                          similarity, storage);
    const PagedIDistanceIndex paged_events(instance.event_attributes(),
                                           similarity, storage);

    const GreedySolver solver;
    const SolveResult expected = solver.SolveOver(instance, users, events);
    const SolveResult actual =
        solver.SolveOver(instance, paged_users, paged_events);
    EXPECT_EQ(expected.arrangement.SortedPairs(),
              actual.arrangement.SortedPairs())
        << "seed " << seed;
    // Same pairs added in the same greedy order → identical MaxSum bits.
    EXPECT_EQ(expected.arrangement.MaxSum(instance),
              actual.arrangement.MaxSum(instance));
  }
}

}  // namespace
}  // namespace geacc
