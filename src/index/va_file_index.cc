#include "index/va_file_index.h"

#include <algorithm>
#include <queue>

#include "obs/stats.h"
#include "simd/kernels.h"
#include "simd/simd.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/memory.h"

namespace geacc {
namespace {

// Refinement-queue entry: a point with either its cheap lower bound
// (approximate) or its exact distance. Ordered by (distance, exactness,
// id) — at equal key, exact entries come out first so emission is
// deterministic.
struct RefineEntry {
  double distance_sq;
  bool is_exact;
  int id;

  bool operator>(const RefineEntry& other) const {
    if (distance_sq != other.distance_sq) {
      return distance_sq > other.distance_sq;
    }
    if (is_exact != other.is_exact) return !is_exact;  // exact first
    return id > other.id;
  }
};

}  // namespace

class VaFileCursor final : public NnCursor {
 public:
  VaFileCursor(const VaFileIndex& index, const double* query)
      : index_(index), query_(query) {
    // Phase 1: one scan of the signatures seeds the queue with lower
    // bounds (this is the sequential approximation-file scan), batched
    // through the SIMD table scan into this worker's scratch arena.
    const int n = index_.num_points();
    Arena& arena = GetScratchArena();
    ScratchScope scratch(arena);
    double* bounds = arena.Alloc<double>(n);
    index_.BatchedLowerBounds(query_, bounds);
    for (int i = 0; i < n; ++i) {
      queue_.push({bounds[i], false, i});
    }
  }

  // Per-step counts are batched into members and flushed once here —
  // Next() is too hot for a registry touch per call (DESIGN.md §9.1).
  ~VaFileCursor() override {
    GEACC_STATS_ADD("index.vafile.cursor_steps", steps_);
    GEACC_STATS_ADD("index.vafile.refinements", refinements_);
  }

  int64_t refinements() const { return refinements_; }

  std::optional<Neighbor> Next() override {
    ++steps_;
    while (!queue_.empty()) {
      const RefineEntry top = queue_.top();
      queue_.pop();
      if (top.is_exact) {
        const double* point = index_.points_.Row(top.id);
        return Neighbor{top.id,
                        index_.similarity_.Compute(point, query_,
                                                   index_.points_.dim())};
      }
      // Phase 2 (lazy): replace the lower bound with the exact distance.
      ++refinements_;
      queue_.push({SquaredEuclideanDistance(index_.points_.Row(top.id),
                                            query_, index_.points_.dim()),
                   true, top.id});
    }
    return std::nullopt;
  }

 private:
  const VaFileIndex& index_;
  const double* query_;
  std::priority_queue<RefineEntry, std::vector<RefineEntry>,
                      std::greater<RefineEntry>>
      queue_;
  int64_t steps_ = 0;
  int64_t refinements_ = 0;
};

VaFileIndex::VaFileIndex(const AttributeMatrix& points,
                         const SimilarityFunction& similarity, int bits)
    : KnnIndex(points.rows()), points_(points), similarity_(similarity),
      bits_(bits) {
  GEACC_CHECK(similarity.IsEuclideanMonotone())
      << "VA-File ordering requires a Euclidean-monotone similarity; got "
      << similarity.Name();
  GEACC_CHECK(bits >= 1 && bits <= 8) << "bits per dim must be in [1,8]";
  cells_ = 1 << bits_;
  const int dim = points.dim();
  box_min_.assign(dim, 0.0);
  cell_width_.assign(dim, 0.0);
  if (points.rows() == 0) return;

  // Bounding box of the data, per dimension.
  std::vector<double> box_max(dim, 0.0);
  for (int j = 0; j < dim; ++j) {
    box_min_[j] = points.At(0, j);
    box_max[j] = points.At(0, j);
  }
  for (int i = 1; i < points.rows(); ++i) {
    const double* row = points.Row(i);
    for (int j = 0; j < dim; ++j) {
      box_min_[j] = std::min(box_min_[j], row[j]);
      box_max[j] = std::max(box_max[j], row[j]);
    }
  }
  for (int j = 0; j < dim; ++j) {
    cell_width_[j] = (box_max[j] - box_min_[j]) / cells_;
  }

  // Signatures: each coordinate's cell id, clamped to the last cell so the
  // maximum lands inside the grid.
  signatures_.resize(static_cast<size_t>(points.rows()) * dim);
  for (int i = 0; i < points.rows(); ++i) {
    const double* row = points.Row(i);
    uint8_t* signature = signatures_.data() + static_cast<size_t>(i) * dim;
    for (int j = 0; j < dim; ++j) {
      int cell = 0;
      if (cell_width_[j] > 0.0) {
        cell = static_cast<int>((row[j] - box_min_[j]) / cell_width_[j]);
        cell = std::clamp(cell, 0, cells_ - 1);
      }
      signature[j] = static_cast<uint8_t>(cell);
    }
  }

  // Blocked mirror for the batched scan; padded lanes stay cell 0 (always
  // a valid table index).
  const int64_t num_blocks = simd::NumBlocks(points.rows());
  sig_blocked_.assign(
      static_cast<size_t>(num_blocks) * dim * simd::kBlockRows, 0);
  for (int i = 0; i < points.rows(); ++i) {
    const uint8_t* signature = signatures_.data() + static_cast<size_t>(i) * dim;
    const int64_t block = i / simd::kBlockRows;
    const int64_t lane = i % simd::kBlockRows;
    uint8_t* dst =
        sig_blocked_.data() +
        (block * static_cast<int64_t>(dim)) * simd::kBlockRows + lane;
    for (int j = 0; j < dim; ++j) {
      dst[static_cast<int64_t>(j) * simd::kBlockRows] = signature[j];
    }
  }
}

double VaFileIndex::CellLowerBoundSq(const double* query, int i) const {
  const int dim = points_.dim();
  const uint8_t* signature = signatures_.data() + static_cast<size_t>(i) * dim;
  double sum = 0.0;
  for (int j = 0; j < dim; ++j) {
    if (cell_width_[j] <= 0.0) continue;  // degenerate dim: bound 0
    const double lo = box_min_[j] + signature[j] * cell_width_[j];
    const double hi = lo + cell_width_[j];
    double diff = 0.0;
    if (query[j] < lo) {
      diff = lo - query[j];
    } else if (query[j] > hi) {
      diff = query[j] - hi;
    }
    sum += diff * diff;
  }
  return sum;
}

// The table entry for (dimension j, cell c) is computed with exactly the
// arithmetic CellLowerBoundSq uses for a point sitting in that cell, and
// the batched kernel accumulates entries in the same ascending-j order
// (degenerate dims contribute +0.0, which cannot change a non-negative
// sum), so the batched bounds are bit-identical to the per-point loop.
void VaFileIndex::BatchedLowerBounds(const double* query, double* out) const {
  const int dim = points_.dim();
  const int64_t n = num_points();
  if (n == 0) return;
  Arena& arena = GetScratchArena();
  ScratchScope scratch(arena);
  double* table = arena.Alloc<double>(static_cast<size_t>(dim) * cells_);
  for (int j = 0; j < dim; ++j) {
    double* row = table + static_cast<size_t>(j) * cells_;
    if (cell_width_[j] <= 0.0) {
      std::fill(row, row + cells_, 0.0);
      continue;
    }
    for (int c = 0; c < cells_; ++c) {
      const double lo = box_min_[j] + c * cell_width_[j];
      const double hi = lo + cell_width_[j];
      double diff = 0.0;
      if (query[j] < lo) {
        diff = lo - query[j];
      } else if (query[j] > hi) {
        diff = query[j] - hi;
      }
      row[c] = diff * diff;
    }
  }
  GEACC_STATS_ADD("index.vafile.batched_bounds", n);
  simd::BatchVaLowerBound(simd::ActiveLevel(), table, cells_,
                          sig_blocked_.data(), dim, n, out);
}

std::vector<Neighbor> VaFileIndex::Query(const double* query, int k) const {
  std::vector<Neighbor> result;
  if (k <= 0 || num_points() == 0) {
    last_refinement_ = 0.0;
    return result;
  }
  // The first k of the cursor: bounds for every point, exact distances
  // only for those whose bound comes up before the k-th answer, and the
  // cursor's (similarity desc, id asc) order even where distinct distances
  // round to one similarity.
  auto scan = std::make_unique<VaFileCursor>(*this, query);
  const VaFileCursor& counts = *scan;
  const std::unique_ptr<NnCursor> cursor = OrderTiesById(std::move(scan));
  result.reserve(std::min(k, num_points()));
  while (static_cast<int>(result.size()) < k) {
    const auto next = cursor->Next();
    if (!next) break;
    result.push_back(*next);
  }
  last_refinement_ = static_cast<double>(counts.refinements()) / num_points();
  return result;
}

std::unique_ptr<NnCursor> VaFileIndex::CreateCursor(
    const double* query) const {
  return OrderTiesById(std::make_unique<VaFileCursor>(*this, query));
}

uint64_t VaFileIndex::ByteEstimate() const {
  return VectorBytes(signatures_) + VectorBytes(sig_blocked_) +
         VectorBytes(box_min_) + VectorBytes(cell_width_);
}

}  // namespace geacc
