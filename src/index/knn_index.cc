#include "index/knn_index.h"

#include <algorithm>
#include <utility>

#include "index/idistance_index.h"
#include "index/idistance_paged.h"
#include "index/kd_tree_index.h"
#include "index/linear_scan_index.h"
#include "index/va_file_index.h"
#include "util/logging.h"

namespace geacc {
namespace {

// Distance-ordered indexes need a Euclidean-monotone similarity; warn and
// degrade to the order-agnostic linear scan otherwise.
bool RequireMonotone(const std::string& name,
                     const SimilarityFunction& similarity) {
  if (similarity.IsEuclideanMonotone()) return true;
  GEACC_LOG(WARNING) << name << " index requested with non-metric "
                     << "similarity '" << similarity.Name()
                     << "'; falling back to linear scan";
  return false;
}

class TieOrderingCursor final : public NnCursor {
 public:
  explicit TieOrderingCursor(std::unique_ptr<NnCursor> inner)
      : inner_(std::move(inner)) {}

  std::optional<Neighbor> Next() override {
    if (next_in_run_ == run_.size()) {
      run_.clear();
      next_in_run_ = 0;
      const std::optional<Neighbor> first =
          lookahead_ ? std::exchange(lookahead_, std::nullopt)
                     : inner_->Next();
      if (!first) return std::nullopt;
      run_.push_back(*first);
      while ((lookahead_ = inner_->Next()) &&
             lookahead_->similarity == first->similarity) {
        run_.push_back(*lookahead_);
      }
      if (run_.size() > 1) {
        std::sort(run_.begin(), run_.end(),
                  [](const Neighbor& a, const Neighbor& b) {
                    return a.id < b.id;
                  });
      }
    }
    return run_[next_in_run_++];
  }

 private:
  std::unique_ptr<NnCursor> inner_;
  std::vector<Neighbor> run_;  // current equal-similarity run, by id
  size_t next_in_run_ = 0;
  std::optional<Neighbor> lookahead_;  // first point past the run
};

}  // namespace

std::unique_ptr<NnCursor> OrderTiesById(std::unique_ptr<NnCursor> inner) {
  return std::make_unique<TieOrderingCursor>(std::move(inner));
}

std::unique_ptr<KnnIndex> MakeIndex(const std::string& name,
                                    const AttributeMatrix& points,
                                    const SimilarityFunction& similarity) {
  if (name == "kdtree" && RequireMonotone(name, similarity)) {
    return std::make_unique<KdTreeIndex>(points, similarity);
  }
  if (name == "vafile" && RequireMonotone(name, similarity)) {
    return std::make_unique<VaFileIndex>(points, similarity);
  }
  if (name == "idistance" && RequireMonotone(name, similarity)) {
    return std::make_unique<IDistanceIndex>(points, similarity);
  }
  if (name == "idistance-paged") {
    return MakeIndex(name, points, similarity, StorageOptions());
  }
  if (name == "linear" || name == "kdtree" || name == "vafile" ||
      name == "idistance") {
    return std::make_unique<LinearScanIndex>(points, similarity);
  }
  return nullptr;
}

}  // namespace geacc
