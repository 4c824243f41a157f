// kd-tree NN index with best-first incremental search.
//
// Build: recursive median split on the widest dimension of each node's
// bounding box; leaves hold up to kLeafSize points. Search: a priority
// queue ordered by minimum possible squared distance interleaves tree nodes
// and exact points, yielding points in non-decreasing distance — which for
// Euclidean-monotone similarities is non-increasing similarity, the
// NnCursor order. Runs of equal similarity are re-ordered by id, so the
// enumeration matches LinearScanIndex exactly.
//
// In high dimensions (the paper's default d = 20) a kd-tree degenerates
// toward a scan; it still satisfies the cursor contract, but MakeIndex
// only picks it at d <= kKdTreeMaxDim (bench/micro_index and DESIGN.md §3
// quantify the crossover).

#ifndef GEACC_INDEX_KD_TREE_INDEX_H_
#define GEACC_INDEX_KD_TREE_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "index/knn_index.h"

namespace geacc {

class KdTreeIndex final : public KnnIndex {
 public:
  // `similarity` must be Euclidean-monotone (checked).
  KdTreeIndex(const AttributeMatrix& points,
              const SimilarityFunction& similarity);

  std::string Name() const override { return "kdtree"; }
  std::vector<Neighbor> Query(const double* query, int k) const override;
  std::unique_ptr<NnCursor> CreateCursor(const double* query) const override;
  uint64_t ByteEstimate() const override;

 private:
  friend class KdTreeCursor;

  static constexpr int kLeafSize = 16;

  struct Node {
    // Bounding box of the points under this node.
    std::vector<double> box_min;
    std::vector<double> box_max;
    // Children (internal nodes) or point range in point_ids_ (leaves).
    int left = -1;
    int right = -1;
    int begin = 0;
    int end = 0;
    bool IsLeaf() const { return left < 0; }
  };

  int BuildNode(int begin, int end);
  double MinSquaredDistance(const Node& node, const double* query) const;

  const AttributeMatrix& points_;
  const SimilarityFunction& similarity_;
  std::vector<Node> nodes_;
  std::vector<int> point_ids_;  // permuted ids, leaf ranges index into this
  int root_ = -1;
};

}  // namespace geacc

#endif  // GEACC_INDEX_KD_TREE_INDEX_H_
