// Page-based service checkpoints (DESIGN.md §14).
//
// The WAL (svc/wal.h) stays the source of truth, but full replay makes
// recovery O(history). A paged checkpoint makes it O(dirty pages) +
// O(suffix): the service periodically serializes its *slot-level* state —
// instance slots with tombstones, both arranger adjacency views in
// insertion order, and the accumulated sums as IEEE-754 bit patterns —
// and writes it into a storage::PageFile, rewriting only the pages whose
// content actually changed (checksum diff against the page headers).
// Recovery decodes the newest committed checkpoint, rebuilds the
// DynamicInstance + IncrementalArranger bit-identically, and replays only
// the WAL mutations past the checkpoint's applied_seq.
//
// Torn checkpoints are expected, not fatal: dirty-page diffing overwrites
// committed pages in place, so a crash mid-Write can leave a mix of old
// and new pages behind an old superblock. The superblock's whole-state
// checksum (PageFile::Meta::state_checksum) detects any such Frankenstein
// state, and every decode failure — torn page, truncated file, stale
// format — degrades to full WAL replay (tests/storage_crash_test.cc).
//
// Thread-safety: single-owner, driven by the service writer thread.

#ifndef GEACC_SVC_PAGED_CHECKPOINT_H_
#define GEACC_SVC_PAGED_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "storage/page_file.h"

namespace geacc::svc {

// The full recoverable state of an ArrangementService writer: everything
// needed to continue bit-identically from applied_seq.
struct ServiceState {
  std::string similarity_name;
  double similarity_param = 0.0;
  DynamicInstance::SlotState slot;
  IncrementalArranger::ArrangerState arranger;
};

// Text serialization with the number codec of src/io (AppendDouble /
// ParseDouble in util/string_util.h, the bytes of "%.17g") plus hex bit
// patterns for the sums, so the round trip is exact, subnormals included.
// Deliberately separate from the page layer: the encoding is testable
// without a file, and the store treats it as bytes.
std::string EncodeServiceState(const ServiceState& state);
bool DecodeServiceState(const std::string& text, ServiceState* state,
                        std::string* error);

class PagedCheckpointStore {
 public:
  // Opens `path` if it holds a valid page file with this page size, else
  // creates/truncates it. Returns nullptr only on hard IO failures —
  // a corrupt existing file is recreated (the WAL has the data).
  static std::unique_ptr<PagedCheckpointStore> Open(const std::string& path,
                                                    uint32_t page_size,
                                                    std::string* error);

  struct WriteStats {
    int pages_total = 0;    // pages the encoded state spans
    int pages_written = 0;  // pages whose content actually changed
  };

  // Encodes `state`, diffs it page-by-page against the stored generation,
  // writes only changed pages, and commits a superblock covering
  // `applied_mutations` WAL entries. On failure the previous committed
  // checkpoint stays recoverable (or detectably torn — see header).
  bool Write(const ServiceState& state, int64_t applied_mutations,
             WriteStats* stats, std::string* error);

  // Decodes the newest committed checkpoint. Fails (soft) on an empty
  // store, a state-checksum mismatch, or a malformed encoding — callers
  // fall back to full WAL replay.
  bool Read(ServiceState* state, int64_t* applied_mutations,
            std::string* error);

  uint64_t file_bytes() const {
    return (2ull + file_->allocated_pages()) * file_->page_size();
  }
  const storage::PageFile& file() const { return *file_; }

 private:
  explicit PagedCheckpointStore(std::unique_ptr<storage::PageFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<storage::PageFile> file_;
};

}  // namespace geacc::svc

#endif  // GEACC_SVC_PAGED_CHECKPOINT_H_
