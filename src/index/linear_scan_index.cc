#include "index/linear_scan_index.h"

#include <algorithm>

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
  // Scans all points for the top-batch neighbors strictly after
  // `last_returned_` in the MoreSimilar order. Returns false when none
  // remain.
  bool Refill() {
    GEACC_STATS_ADD("index.linear.refills", 1);
    GEACC_STATS_ADD("index.linear.points_scanned", points_.rows());
    const size_t batch = batch_;
    batch_ = std::min(batch_ * 2, kMaxBatch);
    buffer_.clear();
    position_ = 0;
    // Bounded top-k selection: with "less = more similar", a std::*_heap
    // max-heap keeps its *worst* kept neighbor at the front, which is the
    // eviction candidate.
    const auto best_first = [](const Neighbor& a, const Neighbor& b) {
      return MoreSimilar(a, b);
    };
    // Score the whole scan in one batched-kernel call (strict mode: bit-
    // identical to the old per-pair loop — similarity args are symmetric),
    // into this worker's scratch arena instead of a per-refill vector.
    Arena& arena = GetScratchArena();
    ScratchScope scratch(arena);
    double* sims = arena.Alloc<double>(points_.rows());
    similarity_.ComputeBatch(query_, points_.Blocked(), simd::FpMode::kStrict,
                             sims);
    for (int i = 0; i < points_.rows(); ++i) {
      if (seats_ != nullptr && seats_[i] <= 0) continue;  // no seat left
      const Neighbor candidate{i, sims[i]};
      if (have_threshold_ && !MoreSimilar(last_returned_, candidate)) {
        continue;  // already emitted in an earlier batch
      }
      if (buffer_.size() < batch) {
        buffer_.push_back(candidate);
        std::push_heap(buffer_.begin(), buffer_.end(), best_first);
      } else if (MoreSimilar(candidate, buffer_.front())) {
        std::pop_heap(buffer_.begin(), buffer_.end(), best_first);
        buffer_.back() = candidate;
        std::push_heap(buffer_.begin(), buffer_.end(), best_first);
      }
    }
    if (buffer_.empty()) {
      exhausted_ = true;
      return false;
    }
    // sort_heap yields ascending under best_first: most similar first.
    std::sort_heap(buffer_.begin(), buffer_.end(), best_first);
    last_returned_ = buffer_.back();
    have_threshold_ = true;
    // Final partial batch: seats only fall, so no later refill finds more.
    if (buffer_.size() < batch) exhausted_ = true;
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
