// Embeddable arrangement service: lock-free snapshot reads over a
// single-writer, batched mutation pipeline (DESIGN.md §11).
//
// Architecture: the service owns a DynamicInstance + IncrementalArranger
// that only its writer thread touches. Mutations from any thread enter a
// bounded MPSC queue via Submit(); the writer drains up to batch_size of
// them at a time, validates each against the live instance (untrusted
// input never CHECK-fails the process), applies the valid ones through the
// incremental repair engine, appends them to the WAL (when configured),
// and then publishes one immutable ServiceSnapshot for the whole batch —
// so snapshot construction amortizes across the batch, and readers always
// observe a consistent post-batch state.
//
// Backpressure: a full queue fails Submit() with kOverloaded immediately —
// admission control instead of unbounded growth; callers retry or shed.
// Every accepted mutation gets a monotonically increasing ticket;
// WaitForTicket() blocks until its batch is applied *and* published, and
// reports whether validation rejected it. Reads are wait-free with respect
// to the writer: snapshot() is one atomic shared_ptr load.
//
// Consistency contract (tested in tests/service_test.cc): the published
// arrangement always equals a single-threaded IncrementalArranger replay
// of the applied-mutation sequence (the WAL order) — bit-identical MaxSum
// and pair set — regardless of how Submit() calls interleave. Recovery
// replays the WAL through Recover() and lands on the same state.
//
// Thread-safety: Submit/WaitForTicket/Flush/snapshot/read helpers are safe
// from any thread. Stop() (and the destructor) drains the queue, joins the
// writer, and closes the WAL.

#ifndef GEACC_SVC_SERVICE_H_
#define GEACC_SVC_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/instance.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "dyn/mutation.h"
#include "svc/paged_checkpoint.h"
#include "svc/snapshot.h"
#include "svc/wal.h"

namespace geacc::svc {

enum class SvcStatus {
  kOk = 0,
  kOverloaded,       // queue full — retry later or shed load
  kRejected,         // mutation failed validation against the live state
  kInvalidArgument,  // malformed id / k / ticket
  kShuttingDown,
};

const char* SvcStatusName(SvcStatus status);

struct ServiceOptions {
  // Mutations applied (and snapshots published) per writer wakeup; larger
  // batches amortize snapshot builds at the cost of staleness.
  int batch_size = 64;

  // Bound on queued-but-unapplied mutations; Submit() past this returns
  // kOverloaded.
  int queue_depth = 1024;

  // Repair engine configuration (index backend, budget, drift fallback).
  RepairOptions repair;

  // Solve the initial instance with the fallback solver before serving
  // (otherwise the service starts with an empty arrangement).
  bool bootstrap_full_resolve = true;

  // Append applied mutations to this WAL for crash recovery; empty
  // disables durability.
  std::string wal_path;

  // Page-based checkpoint file (svc/paged_checkpoint.h): written every
  // `checkpoint_interval_batches` applied batches and at Stop(), read by
  // Recover() to skip replaying the WAL prefix it covers. Empty disables
  // checkpointing (recovery then replays the full WAL). Only meaningful
  // together with wal_path — the WAL remains the source of truth.
  std::string paged_checkpoint_path;
  int checkpoint_interval_batches = 64;
  uint32_t checkpoint_page_size = 8192;

  // Test-only fault injection: stall the writer this long per batch, to
  // make backpressure observable on fast machines.
  int writer_stall_ms_for_test = 0;
};

struct SubmitResult {
  SvcStatus status = SvcStatus::kOk;
  int64_t ticket = -1;  // valid when status == kOk
};

// Point-in-time service counters for Stats() and the wire kStatsReply.
struct ServiceStatsView {
  int64_t epoch = 0;
  int64_t applied_seq = 0;
  int64_t pairs = 0;
  int32_t active_events = 0;
  int32_t active_users = 0;
  int32_t event_slots = 0;
  int32_t user_slots = 0;
  double max_sum = 0.0;
  int32_t queued = 0;      // mutations waiting in the MPSC queue
  int64_t overloads = 0;   // cumulative Submit() rejections
};

// Empty string when `mutation` is applicable to `instance` right now:
// ids in range and active, capacities ≥ 1, attribute arity == dim, finite
// attributes. The service runs this before every apply so wire-delivered
// garbage degrades to kRejected instead of aborting the process.
std::string ValidateMutation(const DynamicInstance& instance,
                             const Mutation& mutation);

// Same checks against a published snapshot. Best-effort admission control
// for front-ends (the server runs it at dispatch so a wire client gets a
// synchronous error for obvious garbage); the writer-side check above
// stays authoritative — a mutation can still lose a race and be rejected
// at apply time.
std::string ValidateMutation(const ServiceSnapshot& snapshot,
                             const Mutation& mutation);

class ArrangementService {
 public:
  // Copies `initial` as the epoch-0 state. When options.wal_path is set,
  // the WAL is created (truncated) and seeded with the initial instance.
  ArrangementService(const Instance& initial, ServiceOptions options);

  // Rebuilds a service from its WAL: replays every logged mutation through
  // a fresh repair engine (same options ⇒ bit-identical state), then
  // resumes appending to the same WAL. Returns nullptr with a diagnostic
  // if the WAL is unreadable. `options.wal_path` must name the WAL.
  //
  // When options.paged_checkpoint_path holds a readable checkpoint,
  // recovery restores the checkpointed state directly and replays only
  // the WAL suffix past it — O(dirty state + suffix) instead of
  // O(history) — landing on the identical bits either way. Any checkpoint
  // problem (torn write, truncation, stale format) silently degrades to
  // the full replay.
  static std::unique_ptr<ArrangementService> Recover(
      ServiceOptions options, std::string* error = nullptr);

  ~ArrangementService();

  ArrangementService(const ArrangementService&) = delete;
  ArrangementService& operator=(const ArrangementService&) = delete;

  // ----- write path -----

  // Enqueues `mutation` for the writer thread. O(1); never blocks on the
  // writer.
  SubmitResult Submit(Mutation mutation);

  // Enqueues a whole-arrangement replacement (shard coordinator install,
  // DESIGN.md §16): the writer swaps the maintained arrangement for
  // exactly `pairs` (slot ids, admission order) and adopts
  // `max_sum_bits` as the maintained sum. Serialized with mutations via
  // the same queue and ticket space; infeasible installs reject their
  // ticket and leave the arrangement empty. Installs are NOT WAL-logged —
  // after recovery the coordinator's next repair pass re-installs.
  SubmitResult SubmitInstall(std::vector<std::pair<EventId, UserId>> pairs,
                             uint64_t max_sum_bits);

  // Blocks until `ticket`'s batch is applied and its snapshot published.
  // Returns kOk, kRejected (failed validation), or kInvalidArgument for a
  // ticket never issued.
  SvcStatus WaitForTicket(int64_t ticket);

  // Blocks until every mutation accepted so far is applied and published.
  void Flush();

  // Drains the queue, stops the writer thread, closes the WAL. Subsequent
  // Submit() calls return kShuttingDown; reads keep working against the
  // final snapshot.
  void Stop();

  // ----- read path (all lock-free against the writer) -----

  // The current published snapshot; never null.
  std::shared_ptr<const ServiceSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  // Events assigned to `user`. kInvalidArgument for out-of-range ids;
  // tombstoned users yield an empty list.
  SvcStatus GetAssignments(UserId user, std::vector<EventId>* out) const;

  // Users attending `event`, sorted ascending for deterministic output.
  SvcStatus GetAttendees(EventId event, std::vector<UserId>* out) const;

  // Top-k candidate events for `user` (see ServiceSnapshot::TopKEvents).
  SvcStatus TopKEvents(UserId user, int k, std::vector<ScoredEvent>* out) const;

  // Unfiltered scoring edges for users in [first_user, first_user +
  // user_count) (see ServiceSnapshot::Candidates). kInvalidArgument on
  // negative arguments; the range itself is clamped to the slot space.
  SvcStatus Candidates(UserId first_user, int user_count,
                       std::vector<ScoredCandidate>* out) const;

  ServiceStatsView Stats() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct PendingMutation {
    Mutation mutation;
    int64_t ticket = 0;
    // Arrangement install op (SubmitInstall): when set, `mutation` is
    // ignored and the writer replaces the arrangement wholesale.
    bool is_install = false;
    std::vector<std::pair<EventId, UserId>> install_pairs;
    uint64_t install_max_sum_bits = 0;
  };

  // Builds instance_/arranger_ (and, when `fresh_wal`, creates the WAL);
  // does not publish or start the writer — the public ctor and Recover()
  // finish that themselves.
  ArrangementService(const Instance& initial, ServiceOptions options,
                     bool fresh_wal);

  // Checkpoint-recovery path: adopts an already-restored instance; the
  // arranger starts empty (the caller restores its state next). Never
  // bootstraps or touches the WAL/checkpoint files.
  ArrangementService(std::unique_ptr<DynamicInstance> instance,
                     ServiceOptions options);

  // Attempts the checkpoint fast path; returns nullptr when the
  // checkpoint is unusable (caller falls back to full replay).
  static std::unique_ptr<ArrangementService> TryRecoverFromPagedCheckpoint(
      const ServiceOptions& options, const WalContents& contents);

  // Opens options_.paged_checkpoint_path (no-op when unset); a failed
  // open logs and disables checkpointing rather than failing the service.
  void OpenPagedCheckpointStore();

  // Writer-thread only: serialize the live state into the store. Failures
  // are logged and swallowed — the WAL still covers everything.
  void WritePagedCheckpoint();

  void PublishInitial();
  void StartWriter();
  void WriterLoop();
  void ApplyBatch(std::vector<PendingMutation> batch);
  void PublishLocked(int64_t last_ticket,
                     const std::vector<int64_t>& rejected_now);

  ServiceOptions options_;
  std::unique_ptr<DynamicInstance> instance_;     // writer thread only
  std::unique_ptr<IncrementalArranger> arranger_;  // writer thread only
  WalWriter wal_;                                  // writer thread only
  std::unique_ptr<PagedCheckpointStore> paged_checkpoint_;  // writer only
  int64_t wal_mutations_ = 0;           // applied mutations in the WAL
  int batches_since_checkpoint_ = 0;    // writer thread only

  std::atomic<std::shared_ptr<const ServiceSnapshot>> snapshot_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;    // writer waits for work
  std::condition_variable applied_cv_;  // WaitForTicket/Flush wait here
  std::deque<PendingMutation> queue_;
  int64_t next_ticket_ = 0;       // last issued ticket
  int64_t applied_seq_ = 0;       // last ticket applied AND published
  int64_t overloads_ = 0;
  std::unordered_set<int64_t> rejected_;   // recent rejected tickets...
  std::deque<int64_t> rejected_order_;     // ...pruned FIFO past 4096
  bool stopping_ = false;

  std::thread writer_;
};

}  // namespace geacc::svc

#endif  // GEACC_SVC_SERVICE_H_
