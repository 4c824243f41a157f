#include "index/idistance_paged.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "index/idistance_index.h"
#include "index/kd_tree_index.h"
#include "index/linear_scan_index.h"
#include "index/va_file_index.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace geacc {
namespace {

std::string BackingFilePath(const std::string& dir) {
  static std::atomic<uint64_t> counter{0};
  std::string base = dir;
  if (base.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    base = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  }
  while (!base.empty() && base.back() == '/') base.pop_back();
  return StrFormat("%s/geacc-idistance-%d-%llu.pages", base.c_str(),
                   static_cast<int>(::getpid()),
                   static_cast<unsigned long long>(
                       counter.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

PagedIDistanceIndex::PagedIDistanceIndex(const AttributeMatrix& points,
                                         const SimilarityFunction& similarity,
                                         const StorageOptions& storage,
                                         int num_pivots)
    : KnnIndex(points.rows()),
      points_(points),
      similarity_(similarity),
      keep_files_(storage.keep_files) {
  GEACC_CHECK(similarity.IsEuclideanMonotone())
      << "iDistance ordering requires a Euclidean-monotone similarity; got "
      << similarity.Name();
  geometry_ = BuildIDistanceGeometry(points, num_pivots);

  path_ = BackingFilePath(storage.dir);
  std::string error;
  file_ = storage::PageFile::Create(path_, storage.page_size, &error);
  GEACC_CHECK(file_ != nullptr)
      << "cannot create index page file " << path_ << ": " << error;
  pool_ = std::make_unique<storage::BufferPool>(file_.get(),
                                                storage.budget_bytes);
  tree_ = std::make_unique<KeyTree>(file_.get(), pool_.get());
  GEACC_CHECK(tree_->Build(geometry_.entries, &error))
      << "paged key tree build failed: " << error;
  // As in the in-memory backend: the sorted list only feeds the load.
  geometry_.entries.clear();
  geometry_.entries.shrink_to_fit();
}

PagedIDistanceIndex::~PagedIDistanceIndex() {
  // Release the pool/tree (flushing nothing — the tree is immutable after
  // Build) before unlinking the backing file.
  tree_.reset();
  pool_.reset();
  file_.reset();
  if (!keep_files_ && !path_.empty()) std::remove(path_.c_str());
}

std::vector<Neighbor> PagedIDistanceIndex::Query(const double* query,
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

std::unique_ptr<NnCursor> PagedIDistanceIndex::CreateCursor(
    const double* query) const {
  return OrderTiesById(std::make_unique<IDistanceScanCursor<KeyTree>>(
      points_, similarity_, geometry_.pivots, geometry_.stretch,
      geometry_.initial_radius, *tree_, query));
}

uint64_t PagedIDistanceIndex::ByteEstimate() const {
  return geometry_.pivots.ByteEstimate() + pool_->stats().peak_resident_bytes;
}

std::unique_ptr<KnnIndex> MakeIndex(const std::string& name,
                                    const AttributeMatrix& points,
                                    const SimilarityFunction& similarity,
                                    const StorageOptions& storage) {
  if (name == "idistance-paged") {
    if (similarity.IsEuclideanMonotone()) {
      return std::make_unique<PagedIDistanceIndex>(points, similarity,
                                                   storage);
    }
    GEACC_LOG(WARNING) << name << " index requested with non-metric "
                       << "similarity '" << similarity.Name()
                       << "'; falling back to linear scan";
    return std::make_unique<LinearScanIndex>(points, similarity);
  }
  return MakeIndex(name, points, similarity);
}

}  // namespace geacc
