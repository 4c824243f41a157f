// Durability for the arrangement service: a write-ahead mutation log
// (DESIGN.md §11). Checkpoints are paged (svc/paged_checkpoint.h).
//
// The WAL is the service's replayable history: a header naming the format,
// the epoch-0 instance (instance_io block), a `wal-mutations` sentinel,
// then one trace_io mutation line per *applied* mutation, appended and
// flushed batch-by-batch by the writer thread. Because repair is
// deterministic (tests/parallel_determinism_test), replaying the WAL
// through a fresh IncrementalArranger with the same RepairOptions
// reproduces the crashed service's arrangement bit-for-bit — MaxSum and
// pair set included.
//
//   geacc-svc-wal v1
//   geacc-instance v1
//   ...                      (instance_io block)
//   wal-mutations
//   add_user 3 0.5 1.25 ...  (applied mutations, streamed)
//
// Crash discipline: a final line without its newline is a torn append
// (the process died mid-append) and is dropped during recovery, even when
// the fragment parses; so is a malformed final line. Recovery cuts the
// file back to the replayed prefix (WalContents::valid_bytes) before
// appending again. Any earlier malformed line, and any cut in the header
// region, is a hard error.
//
// Thread-safety: WalWriter is single-writer (the service writer thread);
// ReadWal touches only its arguments.

#ifndef GEACC_SVC_WAL_H_
#define GEACC_SVC_WAL_H_

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "dyn/mutation.h"

namespace geacc::svc {

class WalWriter {
 public:
  // Creates/truncates `path` and writes the header + `initial` instance.
  bool Open(const std::string& path, const Instance& initial,
            std::string* error = nullptr);

  // Reopens an existing WAL for appending (recovery resume); the header
  // must already be present — nothing is validated here, pair with
  // ReadWal().
  bool OpenForAppend(const std::string& path, std::string* error = nullptr);

  // Appends one mutation line (buffered; call Sync() to flush).
  bool Append(const Mutation& mutation);

  // Flushes buffered appends to the OS. Called once per applied batch.
  bool Sync();

  bool is_open() const { return out_.is_open(); }
  void Close();

 private:
  std::ofstream out_;
  std::string line_;  // Append's reused encode buffer
};

// A decoded WAL: the epoch-0 instance plus every durably applied mutation.
struct WalContents {
  Instance initial;
  std::vector<Mutation> mutations;
  // 1 when a torn final line was dropped (crash mid-append), else 0:
  // a final line with no newline, or a malformed final line.
  int dropped_tail_lines = 0;
  // Length of the prefix that replayed: everything but the dropped line.
  uint64_t valid_bytes = 0;
};

// Parses a WAL file. Returns nullopt with a diagnostic on a missing file,
// bad header, malformed embedded instance, or a malformed mutation line
// that is not the final line of the file.
std::optional<WalContents> ReadWal(const std::string& path,
                                   std::string* error = nullptr);

}  // namespace geacc::svc

#endif  // GEACC_SVC_WAL_H_
