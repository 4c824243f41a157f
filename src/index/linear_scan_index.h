// Exhaustive-scan NN index: O(n·d) per Query; a cursor rescans all n
// points per refill and selects the batch of b by a sampled similarity
// floor, O(n·d + n + b log b) (DESIGN.md §15.5), with b doubling from 64
// to 16384. The baseline every other index is tested against, the
// fallback for non-metric similarities, and the only backend that can skip
// points by a seat count (the seat-filtered cursor Greedy-GEACC runs).

#ifndef GEACC_INDEX_LINEAR_SCAN_INDEX_H_
#define GEACC_INDEX_LINEAR_SCAN_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "index/knn_index.h"

namespace geacc {

class LinearScanIndex final : public KnnIndex {
 public:
  LinearScanIndex(const AttributeMatrix& points,
                  const SimilarityFunction& similarity);

  std::string Name() const override { return "linear"; }
  std::vector<Neighbor> Query(const double* query, int k) const override;
  std::unique_ptr<NnCursor> CreateCursor(const double* query) const override;

  // The plain cursor minus every point whose `seats` entry is <= 0 at the
  // refill that reaches it. `seats` has one entry per point and must
  // outlive the cursor, and its entries may only fall while the cursor
  // lives, so a point omitted once is never returned later: the output is
  // a subsequence of the plain enumeration that holds every point still
  // seated when the cursor is exhausted. With every entry positive it is
  // the plain cursor, refill for refill.
  std::unique_ptr<NnCursor> CreateCursor(const double* query,
                                         const std::vector<int>& seats) const;

  uint64_t ByteEstimate() const override;

 private:
  // Similarities of every indexed point to `query`, unsorted.
  std::vector<Neighbor> ScanAll(const double* query) const;

  const AttributeMatrix& points_;
  const SimilarityFunction& similarity_;
};

}  // namespace geacc

#endif  // GEACC_INDEX_LINEAR_SCAN_INDEX_H_
