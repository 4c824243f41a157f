#include "index/idistance_index.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace geacc {

IDistanceIndex::IDistanceIndex(const AttributeMatrix& points,
                               const SimilarityFunction& similarity,
                               int num_pivots)
    : KnnIndex(points.rows()), points_(points), similarity_(similarity) {
  GEACC_CHECK(similarity.IsEuclideanMonotone())
      << "iDistance ordering requires a Euclidean-monotone similarity; got "
      << similarity.Name();
  geometry_ = BuildIDistanceGeometry(points, num_pivots);
  tree_.BulkLoad(geometry_.entries);
  // The sorted key list only feeds the bulk load; drop it so the tree is
  // the single copy (and ByteEstimate stays honest).
  geometry_.entries.clear();
  geometry_.entries.shrink_to_fit();
}

std::vector<Neighbor> IDistanceIndex::Query(const double* query,
                                            int k) const {
  std::vector<Neighbor> result;
  if (k <= 0) return result;
  const std::unique_ptr<NnCursor> cursor = CreateCursor(query);
  result.reserve(std::min(k, num_points()));
  while (static_cast<int>(result.size()) < k) {
    const auto next = cursor->Next();
    if (!next) break;
    result.push_back(*next);
  }
  return result;
}

std::unique_ptr<NnCursor> IDistanceIndex::CreateCursor(
    const double* query) const {
  return OrderTiesById(std::make_unique<IDistanceScanCursor<KeyTree>>(
      points_, similarity_, geometry_.pivots, geometry_.stretch,
      geometry_.initial_radius, tree_, query));
}

uint64_t IDistanceIndex::ByteEstimate() const {
  return geometry_.pivots.ByteEstimate() + tree_.ByteEstimate();
}

}  // namespace geacc
