#include "index/linear_scan_index.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/stats.h"
#include "util/arena.h"
#include "util/check.h"

namespace geacc {
namespace {

// Strict total order: non-increasing similarity, ties by ascending id.
bool MoreSimilar(const Neighbor& a, const Neighbor& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

// The points one refill may return: seated (when the cursor filters by
// seats) and strictly after the last neighbor returned so far. A value
// copy, so the selection loops keep it in registers; the test is
// branch-free past the loop-invariant null check.
struct Eligible {
  const int* seats;  // null for the plain cursor
  bool after_last;   // false until the first refill returns
  Neighbor last;

  bool operator()(int i, double similarity) const {
    const bool seated = seats == nullptr || seats[i] > 0;
    return seated & (!after_last | (similarity < last.similarity) |
                     ((similarity == last.similarity) & (i > last.id)));
  }
};

constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

// Sampled points at or above a refill's floor: the floor's rank in the
// sample. A floor at rank r of a 1-in-s sample is cleared by about r·s
// points (2·batch here), with a relative spread of about 1/√r. At 16,
// fewer than `batch` clear it in 2 of the 1,523 refills of a fig5
// default-point solve.
constexpr size_t kFloorRank = 16;

// A similarity that about 2 × `batch` eligible points reach, read off every
// stride-th point with stride = 2·batch / kFloorRank, so each sampled
// point stands for `stride` points: the kFloorRank-th most similar
// eligible sample. kNoFloor when a floor would cut too little to pay:
// 2·batch of the n points, or fewer than kFloorRank eligible samples.
double SampledFloor(const double* sims, int n, size_t batch,
                    const Eligible& eligible) {
  if (2 * batch >= static_cast<size_t>(n)) return kNoFloor;
  const size_t stride = 2 * batch / kFloorRank;
  double top[kFloorRank];  // the most similar eligible samples, descending
  size_t filled = 0;
  for (size_t i = 0; i < static_cast<size_t>(n); i += stride) {
    const double sim = sims[i];
    if (filled == kFloorRank && !(sim > top[kFloorRank - 1])) continue;
    if (!eligible(static_cast<int>(i), sim)) continue;
    size_t slot = filled < kFloorRank ? filled++ : kFloorRank - 1;
    for (; slot > 0 && top[slot - 1] < sim; --slot) top[slot] = top[slot - 1];
    top[slot] = sim;
  }
  return filled == kFloorRank ? top[kFloorRank - 1] : kNoFloor;
}

// Writes the id of every eligible point whose similarity is at or above
// `floor` to `out`, in id order, and returns how many there are. The
// floor pass is branch-free (every id is written, and the count advances
// only past those that clear); the eligibility test then runs on those
// alone.
size_t CompactAtOrAbove(const double* sims, int n, double floor,
                        const Eligible& eligible, int32_t* out) {
  size_t cleared = 0;
  for (int i = 0; i < n; ++i) {
    out[cleared] = i;
    cleared += sims[i] >= floor;
  }
  size_t count = 0;
  for (size_t k = 0; k < cleared; ++k) {
    const int32_t i = out[k];
    out[count] = i;
    count += eligible(i, sims[i]);
  }
  return count;
}

// Incremental enumeration with bounded memory: each refill rescans the
// points and collects the next batch of items that follow the last
// returned neighbor in the MoreSimilar order. Greedy-GEACC keeps one
// cursor per event alive at once and typically consumes only a short
// prefix of each, so the rescan trade beats a full per-cursor sort
// (O(n log n) time, O(n) space). The batch doubles after every refill
// (64, 128, …, 16384): cursors that do run deep — e.g. events hunting for
// scarce user capacity — pay O(n·log n) total instead of O(n²/64), without
// inflating the memory of the many shallow cursors. With `seats` set, a
// refill leaves out every point whose entry is <= 0 (see the header).
class BatchedLinearCursor final : public NnCursor {
 public:
  static constexpr size_t kInitialBatch = 64;
  static constexpr size_t kMaxBatch = 16384;

  // `seats` is null for the plain cursor.
  BatchedLinearCursor(const AttributeMatrix& points,
                      const SimilarityFunction& similarity,
                      const double* query, const int* seats)
      : points_(points),
        similarity_(similarity),
        query_(query),
        seats_(seats) {}

  // Per-step counts are batched into members and flushed once here: a
  // registry touch per Next() would be the hottest stats site in the
  // codebase (see DESIGN.md §9.1).
  ~BatchedLinearCursor() override {
    GEACC_STATS_ADD("index.linear.cursor_steps", steps_);
  }

  std::optional<Neighbor> Next() override {
    ++steps_;
    if (position_ >= buffer_.size()) {
      if (exhausted_ || !Refill()) return std::nullopt;
    }
    return buffer_[position_++];
  }

 private:
  // Scores all points and keeps the top-batch eligible ones in the
  // MoreSimilar order. Returns false when none remain.
  //
  // Selection by floor: a strided sample of the eligible points gives a
  // similarity that about 2 × batch of them reach (SampledFloor); one pass
  // compacts the eligible points at or above it, and nth_element plus a
  // sort order those alone. Every eligible point below the floor ranks
  // after every compacted one, so when at least `batch` clear the floor
  // the compacted top-batch is the exact top-batch. When fewer clear it,
  // one more pass with no floor compacts every eligible point.
  bool Refill() {
    GEACC_STATS_ADD("index.linear.refills", 1);
    GEACC_STATS_ADD("index.linear.points_scanned", points_.rows());
    const size_t batch = batch_;
    batch_ = std::min(batch_ * 2, kMaxBatch);
    buffer_.clear();
    position_ = 0;
    // Score the whole scan in one batched-kernel call (strict mode: bit-
    // identical to the per-pair path — similarity args are symmetric),
    // into this worker's scratch arena, with the ids of the points kept.
    const int n = points_.rows();
    Arena& arena = GetScratchArena();
    ScratchScope scratch(arena);
    int32_t* ids = arena.Alloc<int32_t>(n);
    double* sims = arena.Alloc<double>(n);
    similarity_.ComputeBatch(query_, points_.Blocked(), simd::FpMode::kStrict,
                             sims);
    const Eligible eligible{seats_, have_threshold_, last_returned_};
    const double floor = SampledFloor(sims, n, batch, eligible);
    size_t count = CompactAtOrAbove(sims, n, floor, eligible, ids);
    if (count < batch && floor != kNoFloor) {
      GEACC_STATS_ADD("index.linear.floor_reruns", 1);
      count = CompactAtOrAbove(sims, n, kNoFloor, eligible, ids);
    }
    if (count == 0) {
      exhausted_ = true;
      return false;
    }
    const size_t take = std::min(count, batch);
    if (take < count) {
      std::nth_element(ids, ids + take, ids + count,
                       [sims](int32_t a, int32_t b) {
                         return MoreSimilar({a, sims[a]}, {b, sims[b]});
                       });
    }
    buffer_.resize(take);
    for (size_t k = 0; k < take; ++k) buffer_[k] = {ids[k], sims[ids[k]]};
    std::sort(buffer_.begin(), buffer_.end(), MoreSimilar);
    last_returned_ = buffer_.back();
    have_threshold_ = true;
    // Final partial batch: seats only fall, so no later refill finds more.
    if (take < batch) exhausted_ = true;
    return true;
  }

  const AttributeMatrix& points_;
  const SimilarityFunction& similarity_;
  const double* query_;
  const int* seats_;
  std::vector<Neighbor> buffer_;
  size_t batch_ = kInitialBatch;
  size_t position_ = 0;
  Neighbor last_returned_;
  bool have_threshold_ = false;
  bool exhausted_ = false;
  int64_t steps_ = 0;
};

}  // namespace

LinearScanIndex::LinearScanIndex(const AttributeMatrix& points,
                                 const SimilarityFunction& similarity)
    : KnnIndex(points.rows()), points_(points), similarity_(similarity) {}

std::vector<Neighbor> LinearScanIndex::ScanAll(const double* query) const {
  std::vector<Neighbor> all;
  all.reserve(points_.rows());
  Arena& arena = GetScratchArena();
  ScratchScope scratch(arena);
  double* sims = arena.Alloc<double>(points_.rows());
  similarity_.ComputeBatch(query, points_.Blocked(), simd::FpMode::kStrict,
                           sims);
  for (int i = 0; i < points_.rows(); ++i) all.push_back({i, sims[i]});
  return all;
}

std::vector<Neighbor> LinearScanIndex::Query(const double* query,
                                             int k) const {
  std::vector<Neighbor> all = ScanAll(query);
  const size_t take = std::min<size_t>(std::max(k, 0), all.size());
  std::partial_sort(all.begin(), all.begin() + take, all.end(), MoreSimilar);
  all.resize(take);
  return all;
}

std::unique_ptr<NnCursor> LinearScanIndex::CreateCursor(
    const double* query) const {
  return std::make_unique<BatchedLinearCursor>(points_, similarity_, query,
                                               nullptr);
}

std::unique_ptr<NnCursor> LinearScanIndex::CreateCursor(
    const double* query, const std::vector<int>& seats) const {
  GEACC_CHECK_EQ(static_cast<int>(seats.size()), points_.rows());
  return std::make_unique<BatchedLinearCursor>(points_, similarity_, query,
                                               seats.data());
}

uint64_t LinearScanIndex::ByteEstimate() const {
  return sizeof(*this);  // references only; no owned storage
}

}  // namespace geacc
