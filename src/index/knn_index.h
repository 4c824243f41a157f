// Nearest-neighbor index abstraction (the paper's σ(S) oracle).
//
// Greedy-GEACC repeatedly asks each event for its *next* most similar
// user ("next feasible unvisited NN", Algorithm 2). That access pattern
// is an incremental NN enumeration, which NnCursor models: Next()
// yields points in non-increasing similarity order, each point exactly
// once. Four backends are provided:
//
//  * LinearScanIndex — batched incremental scan; works with any
//    similarity function.
//  * KdTreeIndex — best-first tree search; requires a similarity that
//    decreases with Euclidean distance (paper Eq. (1) qualifies).
//  * VaFileIndex — the paper's citation [8]: quantized signatures with
//    lazy exact refinement.
//  * IDistanceIndex — the paper's citation [7]: pivot-keyed partitions
//    with an expanding search radius.
//
// All four produce the identical enumeration (similarity desc, id asc);
// they differ only in cost profile. No solver goes through MakeIndex:
// Greedy-GEACC runs LinearScanIndex's seat-filtered cursors, and
// IncrementalArranger its plain linear cursors. The named factory below
// serves benches and tests.

#ifndef GEACC_INDEX_KNN_INDEX_H_
#define GEACC_INDEX_KNN_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/attributes.h"
#include "core/similarity.h"

namespace geacc {

struct Neighbor {
  int id = -1;
  double similarity = 0.0;
};

// Enumerates the indexed points in non-increasing similarity to a fixed
// query, ties broken by ascending id. Exhausted cursors return nullopt.
class NnCursor {
 public:
  virtual ~NnCursor() = default;
  virtual std::optional<Neighbor> Next() = 0;
};

class KnnIndex {
 public:
  virtual ~KnnIndex() = default;

  virtual std::string Name() const = 0;

  int num_points() const { return num_points_; }

  // The k most similar points to `query` (fewer if the index is smaller),
  // in non-increasing similarity order, ties by ascending id.
  virtual std::vector<Neighbor> Query(const double* query, int k) const = 0;

  // Incremental enumeration. Both `query` and the index itself must
  // outlive the cursor (cursors hold references into the index).
  virtual std::unique_ptr<NnCursor> CreateCursor(
      const double* query) const = 0;

  virtual uint64_t ByteEstimate() const = 0;

 protected:
  explicit KnnIndex(int num_points) : num_points_(num_points) {}

 private:
  int num_points_;
};

// Wraps a cursor that yields non-increasing similarity but may list a run
// of equal similarities out of id order — distance-ordered search emits
// by distance, and distinct distances can round to one similarity. Each
// run is buffered and re-emitted by ascending id, which restores the
// NnCursor contract at the cost of reading one point ahead.
std::unique_ptr<NnCursor> OrderTiesById(std::unique_ptr<NnCursor> inner);

// Builds the named backend over the rows of `points`. `name` ∈ {"linear",
// "kdtree", "vafile", "idistance", "idistance-paged"} — the paged variant
// takes default StorageOptions here; use the 4-arg overload in
// index/idistance_paged.h to set the budget. Distance-ordered indexes
// requested with a non-Euclidean-monotone similarity fall back to linear
// scan (their distance ordering would be meaningless). Returns nullptr for
// an unknown name. `points` and `similarity` must outlive the index.
std::unique_ptr<KnnIndex> MakeIndex(const std::string& name,
                                    const AttributeMatrix& points,
                                    const SimilarityFunction& similarity);

}  // namespace geacc

#endif  // GEACC_INDEX_KNN_INDEX_H_
