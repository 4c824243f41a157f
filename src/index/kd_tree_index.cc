#include "index/kd_tree_index.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "obs/stats.h"
#include "util/check.h"
#include "util/memory.h"

namespace geacc {
namespace {

// Best-first queue entry: a tree node (lower bound) or a concrete point
// (exact distance). Ordered by (distance, kind, id) so the enumeration is
// deterministic under ties; points sort before nodes at equal distance so
// that an exact answer is emitted before expanding an equally-far subtree.
struct QueueEntry {
  double distance_sq;
  bool is_point;
  int id;  // point id or node index

  bool operator>(const QueueEntry& other) const {
    if (distance_sq != other.distance_sq) {
      return distance_sq > other.distance_sq;
    }
    if (is_point != other.is_point) return !is_point;  // points first
    return id > other.id;
  }
};

// Queue key of points re-queued to come out next, in id order.
constexpr double kOrderedRunKey = -1.0;

}  // namespace

class KdTreeCursor final : public NnCursor {
 public:
  KdTreeCursor(const KdTreeIndex& index, const double* query)
      : index_(index), query_(query) {
    if (index_.root_ >= 0) {
      queue_.push({index_.MinSquaredDistance(index_.nodes_[index_.root_],
                                             query_),
                   false, index_.root_});
    }
  }

  // Per-step counts are batched into members and flushed once here —
  // Next() is too hot for a registry touch per call (DESIGN.md §9.1).
  ~KdTreeCursor() override {
    GEACC_STATS_ADD("index.kdtree.cursor_steps", steps_);
    GEACC_STATS_ADD("index.kdtree.node_expansions", expansions_);
  }

  // Distance order is similarity order only up to ties: distinct
  // distances can round to one similarity (1 − √d²/T drops the low bits
  // of small distances), and a point can pop before an equally far
  // subtree holding a smaller id. So every answer waits for the next point
  // by distance; when the two tie on similarity, the whole tied run is
  // re-queued to come out by id. The enumeration is then (similarity desc,
  // id asc), exactly LinearScanIndex's.
  std::optional<Neighbor> Next() override {
    ++steps_;
    std::optional<Candidate> next =
        lookahead_ ? std::exchange(lookahead_, std::nullopt) : PopPoint();
    if (!next) return std::nullopt;
    lookahead_ = PopPoint();
    if (lookahead_ &&
        lookahead_->neighbor.similarity == next->neighbor.similarity &&
        next->distance_sq != kOrderedRunKey) {
      RequeueTiedRun(*next);
      next = PopPoint();
      lookahead_ = PopPoint();
    }
    return next->neighbor;
  }

 private:
  struct Candidate {
    Neighbor neighbor;
    double distance_sq;  // its queue key
  };

  // Pops `first`, the lookahead and every further point of the same
  // similarity, then queues them all under kOrderedRunKey (so they pop
  // next, by id) and the first point past the run under its own key.
  void RequeueTiedRun(const Candidate& first) {
    std::vector<Candidate> run = {first, *lookahead_};
    std::optional<Candidate> after;
    while ((after = PopPoint()) &&
           after->neighbor.similarity == first.neighbor.similarity) {
      run.push_back(*after);
    }
    for (const Candidate& c : run) {
      queue_.push({kOrderedRunKey, true, c.neighbor.id});
    }
    if (after) queue_.push({after->distance_sq, true, after->neighbor.id});
    lookahead_.reset();
  }

  // The next point in (distance, id) order, expanding nodes on the way.
  std::optional<Candidate> PopPoint() {
    while (!queue_.empty()) {
      const QueueEntry top = queue_.top();
      queue_.pop();
      if (top.is_point) {
        const double* point = index_.points_.Row(top.id);
        return Candidate{{top.id, index_.similarity_.Compute(
                                      point, query_, index_.points_.dim())},
                         top.distance_sq};
      }
      ++expansions_;
      const KdTreeIndex::Node& node = index_.nodes_[top.id];
      if (node.IsLeaf()) {
        for (int i = node.begin; i < node.end; ++i) {
          const int point_id = index_.point_ids_[i];
          queue_.push({SquaredEuclideanDistance(index_.points_.Row(point_id),
                                                query_, index_.points_.dim()),
                       true, point_id});
        }
      } else {
        for (const int child : {node.left, node.right}) {
          queue_.push({index_.MinSquaredDistance(index_.nodes_[child], query_),
                       false, child});
        }
      }
    }
    return std::nullopt;
  }

  const KdTreeIndex& index_;
  const double* query_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue_;
  std::optional<Candidate> lookahead_;  // next point by distance
  int64_t steps_ = 0;
  int64_t expansions_ = 0;
};

KdTreeIndex::KdTreeIndex(const AttributeMatrix& points,
                         const SimilarityFunction& similarity)
    : KnnIndex(points.rows()), points_(points), similarity_(similarity) {
  GEACC_CHECK(similarity.IsEuclideanMonotone())
      << "kd-tree ordering requires a Euclidean-monotone similarity; got "
      << similarity.Name();
  point_ids_.resize(points.rows());
  for (int i = 0; i < points.rows(); ++i) point_ids_[i] = i;
  if (!point_ids_.empty()) {
    nodes_.reserve(2 * point_ids_.size() / kLeafSize + 2);
    root_ = BuildNode(0, static_cast<int>(point_ids_.size()));
  }
}

int KdTreeIndex::BuildNode(int begin, int end) {
  const int dim = points_.dim();
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_.back();
    node.begin = begin;
    node.end = end;
    node.box_min.assign(dim, 0.0);
    node.box_max.assign(dim, 0.0);
    for (int j = 0; j < dim; ++j) {
      double lo = points_.At(point_ids_[begin], j);
      double hi = lo;
      for (int i = begin + 1; i < end; ++i) {
        const double x = points_.At(point_ids_[i], j);
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      node.box_min[j] = lo;
      node.box_max[j] = hi;
    }
  }
  if (end - begin <= kLeafSize) return node_index;

  // Split on the widest box dimension at the median.
  int split_dim = 0;
  {
    const Node& node = nodes_[node_index];
    double widest = -1.0;
    for (int j = 0; j < dim; ++j) {
      const double extent = node.box_max[j] - node.box_min[j];
      if (extent > widest) {
        widest = extent;
        split_dim = j;
      }
    }
    if (widest <= 0.0) return node_index;  // all points identical: leaf
  }
  const int mid = begin + (end - begin) / 2;
  std::nth_element(point_ids_.begin() + begin, point_ids_.begin() + mid,
                   point_ids_.begin() + end, [&](int a, int b) {
                     const double xa = points_.At(a, split_dim);
                     const double xb = points_.At(b, split_dim);
                     if (xa != xb) return xa < xb;
                     return a < b;  // deterministic tie-break
                   });
  // Recursion may reallocate nodes_, so assign children afterwards.
  const int left = BuildNode(begin, mid);
  const int right = BuildNode(mid, end);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

double KdTreeIndex::MinSquaredDistance(const Node& node,
                                       const double* query) const {
  double sum = 0.0;
  for (int j = 0; j < points_.dim(); ++j) {
    double diff = 0.0;
    if (query[j] < node.box_min[j]) {
      diff = node.box_min[j] - query[j];
    } else if (query[j] > node.box_max[j]) {
      diff = query[j] - node.box_max[j];
    }
    sum += diff * diff;
  }
  return sum;
}

std::vector<Neighbor> KdTreeIndex::Query(const double* query, int k) const {
  std::vector<Neighbor> result;
  if (k <= 0) return result;
  KdTreeCursor cursor(*this, query);
  result.reserve(std::min(k, num_points()));
  while (static_cast<int>(result.size()) < k) {
    const auto next = cursor.Next();
    if (!next) break;
    result.push_back(*next);
  }
  return result;
}

std::unique_ptr<NnCursor> KdTreeIndex::CreateCursor(
    const double* query) const {
  return std::make_unique<KdTreeCursor>(*this, query);
}

uint64_t KdTreeIndex::ByteEstimate() const {
  uint64_t bytes = VectorBytes(point_ids_) + VectorBytes(nodes_);
  for (const Node& node : nodes_) {
    bytes += VectorBytes(node.box_min) + VectorBytes(node.box_max);
  }
  return bytes;
}

}  // namespace geacc
