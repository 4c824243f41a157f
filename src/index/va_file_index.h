// VA-File (vector-approximation file) NN index — Weber, Schek & Blott,
// VLDB'98, the paper's citation [8] for σ(S).
//
// Each dimension is quantized into 2^bits cells over the data's bounding
// box; every point stores only its cell signature. Search scans the
// compact signatures computing cheap lower bounds on the true distance and
// refines candidates lazily: a point's exact distance is computed only
// when its lower bound reaches the front of the refinement queue. In the
// original disk-resident setting this trades a sequential scan of a small
// approximation file for random reads of full vectors; in-memory it still
// skips most exact distance evaluations.
//
// The incremental cursor yields exactly the linear-scan order (ties by
// ascending id): a point is emitted only once its *exact* distance is no
// greater than every remaining lower bound, and runs of equal similarity
// are re-ordered by id (OrderTiesById). Query(k) is the cursor's first k.

#ifndef GEACC_INDEX_VA_FILE_INDEX_H_
#define GEACC_INDEX_VA_FILE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/knn_index.h"

namespace geacc {

class VaFileIndex final : public KnnIndex {
 public:
  // `bits` per dimension (1..8); 2^bits grid cells per dimension.
  VaFileIndex(const AttributeMatrix& points,
              const SimilarityFunction& similarity, int bits = 4);

  std::string Name() const override { return "vafile"; }
  std::vector<Neighbor> Query(const double* query, int k) const override;
  std::unique_ptr<NnCursor> CreateCursor(const double* query) const override;
  uint64_t ByteEstimate() const override;

  // Fraction of points whose exact distance was computed by the last
  // Query call (diagnostic for the micro benches).
  double last_refinement_fraction() const { return last_refinement_; }

 private:
  friend class VaFileCursor;

  // Squared lower-bound distance from `query` to point i's cell box.
  // O(dim); the per-pair reference for the batched scan below.
  double CellLowerBoundSq(const double* query, int i) const;

  // Batched signature scan: out[i] = CellLowerBoundSq(query, i) for all
  // points, bit-identical (simd/kernels.h §VA) but via one per-query
  // dim × 2^bits contribution table + the blocked signature mirror, so
  // the scan is O(n × dim) table loads instead of O(n × dim) branches.
  // `out` must hold num_points() doubles. O(dim × 2^bits) setup.
  void BatchedLowerBounds(const double* query, double* out) const;

  const AttributeMatrix& points_;
  const SimilarityFunction& similarity_;
  int bits_;
  int cells_;                     // 2^bits
  std::vector<double> box_min_;   // per dim
  std::vector<double> cell_width_;  // per dim (0 for degenerate dims)
  std::vector<uint8_t> signatures_;  // n × dim cell ids, row-major
  // Blocked mirror of signatures_ (simd::kBlockRows rows per block,
  // dimension-major within a block, padded lanes hold cell 0) for the
  // batched scan. Bytes, so no alignment requirement.
  std::vector<uint8_t> sig_blocked_;
  mutable double last_refinement_ = 0.0;
};

}  // namespace geacc

#endif  // GEACC_INDEX_VA_FILE_INDEX_H_
