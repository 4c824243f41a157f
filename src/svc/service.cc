#include "svc/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <utility>

#include "core/similarity.h"
#include "obs/stats.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace geacc::svc {
namespace {

// Rejected tickets are only interesting to the submitter that waits on
// them; keep a bounded recent window instead of growing forever.
constexpr size_t kRejectedWindow = 4096;

}  // namespace

const char* SvcStatusName(SvcStatus status) {
  switch (status) {
    case SvcStatus::kOk:
      return "ok";
    case SvcStatus::kOverloaded:
      return "overloaded";
    case SvcStatus::kRejected:
      return "rejected";
    case SvcStatus::kInvalidArgument:
      return "invalid_argument";
    case SvcStatus::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

std::string ValidateMutation(const DynamicInstance& instance,
                             const Mutation& mutation) {
  const auto event_ok = [&](int32_t v) {
    return v >= 0 && v < instance.event_slots() && instance.event_active(v);
  };
  const auto user_ok = [&](int32_t u) {
    return u >= 0 && u < instance.user_slots() && instance.user_active(u);
  };
  switch (mutation.kind) {
    case Mutation::Kind::kAddUser:
    case Mutation::Kind::kAddEvent: {
      if (static_cast<int>(mutation.attributes.size()) != instance.dim()) {
        return StrFormat("expected %d attributes, got %d", instance.dim(),
                         static_cast<int>(mutation.attributes.size()));
      }
      for (const double a : mutation.attributes) {
        if (!std::isfinite(a)) return "non-finite attribute";
      }
      if (mutation.capacity < 1) {
        return StrFormat("capacity must be >= 1, got %d", mutation.capacity);
      }
      return "";
    }
    case Mutation::Kind::kRemoveUser:
      if (!user_ok(mutation.id)) {
        return StrFormat("no active user %d", mutation.id);
      }
      return "";
    case Mutation::Kind::kRemoveEvent:
      if (!event_ok(mutation.id)) {
        return StrFormat("no active event %d", mutation.id);
      }
      return "";
    case Mutation::Kind::kAddConflict:
      if (!event_ok(mutation.id) || !event_ok(mutation.other)) {
        return StrFormat("no active event pair (%d, %d)", mutation.id,
                         mutation.other);
      }
      if (mutation.id == mutation.other) {
        return StrFormat("self-conflict on event %d", mutation.id);
      }
      return "";
    case Mutation::Kind::kSetEventCapacity:
      if (!event_ok(mutation.id)) {
        return StrFormat("no active event %d", mutation.id);
      }
      if (mutation.capacity < 1) {
        return StrFormat("capacity must be >= 1, got %d", mutation.capacity);
      }
      return "";
    case Mutation::Kind::kSetUserCapacity:
      if (!user_ok(mutation.id)) {
        return StrFormat("no active user %d", mutation.id);
      }
      if (mutation.capacity < 1) {
        return StrFormat("capacity must be >= 1, got %d", mutation.capacity);
      }
      return "";
    case Mutation::Kind::kSetEventSlot:
      if (!event_ok(mutation.id)) {
        return StrFormat("no active event %d", mutation.id);
      }
      if (mutation.other < 0 || mutation.other >= kMaxTimeSlots) {
        return StrFormat("slot must be in [0, %d), got %d", kMaxTimeSlots,
                         mutation.other);
      }
      return "";
    case Mutation::Kind::kSetUserAvailability:
      if (!user_ok(mutation.id)) {
        return StrFormat("no active user %d", mutation.id);
      }
      if (mutation.mask < 0 || mutation.mask > kFullSlotAvailability) {
        return StrFormat("availability mask out of range: %lld",
                         static_cast<long long>(mutation.mask));
      }
      return "";
  }
  return "unknown mutation kind";
}

ArrangementService::ArrangementService(const Instance& initial,
                                       ServiceOptions options, bool fresh_wal)
    : options_(std::move(options)) {
  GEACC_CHECK(options_.batch_size >= 1) << "batch_size must be >= 1";
  GEACC_CHECK(options_.queue_depth >= 1) << "queue_depth must be >= 1";
  instance_ = std::make_unique<DynamicInstance>(initial);
  arranger_ =
      std::make_unique<IncrementalArranger>(instance_.get(), options_.repair);
  if (options_.bootstrap_full_resolve) arranger_->FullResolve();
  if (fresh_wal && !options_.wal_path.empty()) {
    std::string error;
    GEACC_CHECK(wal_.Open(options_.wal_path, initial, &error))
        << "wal: " << error;
  }
  OpenPagedCheckpointStore();
}

ArrangementService::ArrangementService(
    std::unique_ptr<DynamicInstance> instance, ServiceOptions options)
    : options_(std::move(options)), instance_(std::move(instance)) {
  GEACC_CHECK(options_.batch_size >= 1) << "batch_size must be >= 1";
  GEACC_CHECK(options_.queue_depth >= 1) << "queue_depth must be >= 1";
  arranger_ =
      std::make_unique<IncrementalArranger>(instance_.get(), options_.repair);
}

void ArrangementService::OpenPagedCheckpointStore() {
  if (options_.paged_checkpoint_path.empty()) return;
  GEACC_CHECK(options_.checkpoint_interval_batches >= 1)
      << "checkpoint_interval_batches must be >= 1";
  std::string error;
  paged_checkpoint_ = PagedCheckpointStore::Open(
      options_.paged_checkpoint_path, options_.checkpoint_page_size, &error);
  if (paged_checkpoint_ == nullptr) {
    GEACC_LOG(WARNING) << "paged checkpoint disabled: " << error;
  }
}

void ArrangementService::WritePagedCheckpoint() {
  if (paged_checkpoint_ == nullptr) return;
  ServiceState state;
  state.similarity_name = instance_->similarity().Name();
  state.similarity_param = instance_->similarity().Param();
  state.slot = instance_->ExportSlotState();
  state.arranger = arranger_->ExportState();
  PagedCheckpointStore::WriteStats write_stats;
  std::string error;
  if (!paged_checkpoint_->Write(state, wal_mutations_, &write_stats,
                                &error)) {
    GEACC_LOG(WARNING) << "paged checkpoint write failed (WAL still "
                       << "authoritative): " << error;
    return;
  }
  batches_since_checkpoint_ = 0;
}

ArrangementService::ArrangementService(const Instance& initial,
                                       ServiceOptions options)
    : ArrangementService(initial, std::move(options), /*fresh_wal=*/true) {
  PublishInitial();
  StartWriter();
}

std::unique_ptr<ArrangementService>
ArrangementService::TryRecoverFromPagedCheckpoint(
    const ServiceOptions& options, const WalContents& contents) {
  std::string error;
  std::unique_ptr<PagedCheckpointStore> store = PagedCheckpointStore::Open(
      options.paged_checkpoint_path, options.checkpoint_page_size, &error);
  if (store == nullptr) return nullptr;
  ServiceState state;
  int64_t applied = 0;
  if (!store->Read(&state, &applied, &error)) {
    GEACC_LOG(INFO) << "paged checkpoint unusable (" << error
                    << "); recovering by full WAL replay";
    return nullptr;
  }
  if (applied < 0 ||
      applied > static_cast<int64_t>(contents.mutations.size())) {
    // The checkpoint is ahead of this WAL — wrong file pairing.
    GEACC_LOG(WARNING) << "paged checkpoint covers " << applied
                       << " mutations but the WAL holds "
                       << contents.mutations.size()
                       << "; recovering by full WAL replay";
    return nullptr;
  }
  std::unique_ptr<SimilarityFunction> similarity =
      MakeSimilarity(state.similarity_name, state.similarity_param);
  if (similarity == nullptr ||
      similarity->Name() != contents.initial.similarity().Name()) {
    return nullptr;
  }
  std::optional<DynamicInstance> instance = DynamicInstance::FromSlotState(
      std::move(state.slot), std::move(similarity), &error);
  if (!instance) {
    GEACC_LOG(WARNING) << "paged checkpoint instance rejected: " << error;
    return nullptr;
  }
  auto service = std::unique_ptr<ArrangementService>(new ArrangementService(
      std::make_unique<DynamicInstance>(*std::move(instance)), options));
  error = service->arranger_->RestoreState(state.arranger);
  if (!error.empty()) {
    GEACC_LOG(WARNING) << "paged checkpoint arrangement rejected: " << error;
    return nullptr;
  }
  // Replay only the suffix the checkpoint does not cover.
  for (size_t i = static_cast<size_t>(applied); i < contents.mutations.size();
       ++i) {
    service->arranger_->Apply(contents.mutations[i]);
  }
  service->paged_checkpoint_ = std::move(store);
  if (static_cast<size_t>(applied) < contents.mutations.size()) {
    // The store is behind the WAL; make sure Stop() (or the next batch)
    // freshens it even if no further batches arrive.
    service->batches_since_checkpoint_ = 1;
  }
  GEACC_STATS_ADD("svc.ckpt.recoveries", 1);
  GEACC_LOG(INFO) << "recovered from paged checkpoint: " << applied
                  << " mutations skipped, "
                  << contents.mutations.size() - static_cast<size_t>(applied)
                  << " replayed";
  return service;
}

std::unique_ptr<ArrangementService> ArrangementService::Recover(
    ServiceOptions options, std::string* error) {
  if (options.wal_path.empty()) {
    if (error != nullptr) *error = "recover requires options.wal_path";
    return nullptr;
  }
  std::optional<WalContents> contents = ReadWal(options.wal_path, error);
  if (!contents) return nullptr;
  if (contents->dropped_tail_lines > 0) {
    // Appending after a torn final line would fuse the next mutation onto
    // it, so cut it off. Shrinking a file writes nothing: a crash here
    // leaves the old file or the trimmed one, and both replay alike.
    std::error_code trim_error;
    std::filesystem::resize_file(options.wal_path, contents->valid_bytes,
                                 trim_error);
    if (trim_error) {
      if (error != nullptr) {
        *error = "cannot trim the torn WAL tail: " + trim_error.message();
      }
      return nullptr;
    }
  }

  const std::string wal_path = options.wal_path;
  std::unique_ptr<ArrangementService> service;
  if (!options.paged_checkpoint_path.empty()) {
    service = TryRecoverFromPagedCheckpoint(options, *contents);
  }
  if (service == nullptr) {
    service = std::unique_ptr<ArrangementService>(new ArrangementService(
        contents->initial, std::move(options), /*fresh_wal=*/false));
    // The WAL holds exactly the applied sequence; repair is deterministic,
    // so replaying it lands on the crashed process's arrangement
    // bit-for-bit.
    for (const Mutation& mutation : contents->mutations) {
      service->arranger_->Apply(mutation);
    }
  }
  service->wal_mutations_ =
      static_cast<int64_t>(contents->mutations.size());
  if (!service->wal_.OpenForAppend(wal_path, error)) return nullptr;
  service->PublishInitial();
  service->StartWriter();
  return service;
}

ArrangementService::~ArrangementService() { Stop(); }

void ArrangementService::Publish(
    std::shared_ptr<const ServiceSnapshot> next) {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.swap(next);
  }
  // `next` now holds the previous snapshot: unless a reader still holds
  // it, it is freed here, after the unlock.
}

void ArrangementService::PublishInitial() {
  Publish(BuildSnapshot(*instance_, *arranger_, /*applied_seq=*/0));
}

void ArrangementService::StartWriter() {
  writer_ = std::thread([this] { WriterLoop(); });
}

SubmitResult ArrangementService::Submit(Mutation mutation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return {SvcStatus::kShuttingDown, -1};
  if (static_cast<int>(queue_.size()) >= options_.queue_depth) {
    ++overloads_;
    GEACC_STATS_ADD("svc.overloads", 1);
    return {SvcStatus::kOverloaded, -1};
  }
  const int64_t ticket = ++next_ticket_;
  PendingMutation pending;
  pending.mutation = std::move(mutation);
  pending.ticket = ticket;
  queue_.push_back(std::move(pending));
  GEACC_STATS_ADD("svc.submits", 1);
  queue_cv_.notify_one();
  return {SvcStatus::kOk, ticket};
}

SubmitResult ArrangementService::SubmitInstall(
    std::vector<std::pair<EventId, UserId>> pairs, uint64_t max_sum_bits) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return {SvcStatus::kShuttingDown, -1};
  if (static_cast<int>(queue_.size()) >= options_.queue_depth) {
    ++overloads_;
    GEACC_STATS_ADD("svc.overloads", 1);
    return {SvcStatus::kOverloaded, -1};
  }
  const int64_t ticket = ++next_ticket_;
  PendingMutation pending;
  pending.ticket = ticket;
  pending.is_install = true;
  pending.install_pairs = std::move(pairs);
  pending.install_max_sum_bits = max_sum_bits;
  queue_.push_back(std::move(pending));
  GEACC_STATS_ADD("svc.installs", 1);
  queue_cv_.notify_one();
  return {SvcStatus::kOk, ticket};
}

SvcStatus ArrangementService::WaitForTicket(int64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  if (ticket < 1 || ticket > next_ticket_) return SvcStatus::kInvalidArgument;
  applied_cv_.wait(lock, [&] { return applied_seq_ >= ticket; });
  return rejected_.count(ticket) != 0 ? SvcStatus::kRejected : SvcStatus::kOk;
}

void ArrangementService::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const int64_t target = next_ticket_;
  applied_cv_.wait(lock, [&] { return applied_seq_ >= target; });
}

void ArrangementService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  // The writer is gone, so touching its state is safe. A final checkpoint
  // makes the next Recover() suffix empty (clean shutdown = O(dirty
  // pages) restart).
  if (paged_checkpoint_ != nullptr && batches_since_checkpoint_ > 0) {
    WritePagedCheckpoint();
  }
  wal_.Close();
}

void ArrangementService::WriterLoop() {
  for (;;) {
    std::vector<PendingMutation> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, fully drained
      const int take =
          std::min<int>(options_.batch_size, static_cast<int>(queue_.size()));
      batch.reserve(take);
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (options_.writer_stall_ms_for_test > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.writer_stall_ms_for_test));
    }
    ApplyBatch(std::move(batch));
  }
}

void ArrangementService::ApplyBatch(std::vector<PendingMutation> batch) {
  GEACC_DCHECK(!batch.empty());
  std::vector<int64_t> rejected_now;
  {
    GEACC_PHASE_TIMER("svc.batch_apply");
    for (PendingMutation& pending : batch) {
      if (pending.is_install) {
        // Whole-arrangement swap. Not an instance mutation (epoch and WAL
        // untouched): the coordinator re-derives and re-installs after
        // any recovery, so durability rides on the mutation log alone.
        const std::string problem = arranger_->InstallArrangement(
            pending.install_pairs, pending.install_max_sum_bits);
        if (!problem.empty()) {
          rejected_now.push_back(pending.ticket);
          GEACC_STATS_ADD("svc.installs_rejected", 1);
          GEACC_LOG(WARNING) << "arrangement install rejected: " << problem;
        } else {
          GEACC_STATS_ADD("svc.installs_applied", 1);
        }
        continue;
      }
      const std::string problem =
          ValidateMutation(*instance_, pending.mutation);
      if (!problem.empty()) {
        rejected_now.push_back(pending.ticket);
        GEACC_STATS_ADD("svc.rejected", 1);
        continue;
      }
      arranger_->Apply(pending.mutation);
      if (wal_.is_open()) {
        wal_.Append(pending.mutation);
        ++wal_mutations_;
      }
      GEACC_STATS_ADD("svc.mutations_applied", 1);
    }
    if (wal_.is_open()) wal_.Sync();
  }

  std::shared_ptr<const ServiceSnapshot> next;
  {
    GEACC_PHASE_TIMER("svc.snapshot_build");
    next = BuildSnapshot(*instance_, *arranger_, batch.back().ticket);
  }
  Publish(std::move(next));
  GEACC_STATS_ADD("svc.batches", 1);
  GEACC_STATS_ADD("svc.snapshots_published", 1);

  {
    std::lock_guard<std::mutex> lock(mu_);
    applied_seq_ = batch.back().ticket;
    for (const int64_t ticket : rejected_now) {
      rejected_.insert(ticket);
      rejected_order_.push_back(ticket);
    }
    while (rejected_order_.size() > kRejectedWindow) {
      rejected_.erase(rejected_order_.front());
      rejected_order_.pop_front();
    }
  }
  applied_cv_.notify_all();

  // Checkpoint after publishing so readers never wait on checkpoint IO.
  // The WAL batch above is already flushed to the OS, so a process crash
  // mid-checkpoint loses nothing. It is not fsync'd (WalWriter::Sync), so
  // a power loss still can.
  if (paged_checkpoint_ != nullptr &&
      ++batches_since_checkpoint_ >= options_.checkpoint_interval_batches) {
    WritePagedCheckpoint();
  }
}

SvcStatus ArrangementService::GetAssignments(UserId user,
                                             std::vector<EventId>* out) const {
  const std::shared_ptr<const ServiceSnapshot> snap = snapshot();
  if (!snap->user_in_range(user)) return SvcStatus::kInvalidArgument;
  *out = snap->AssignmentsOf(user);
  return SvcStatus::kOk;
}

SvcStatus ArrangementService::GetAttendees(EventId event,
                                           std::vector<UserId>* out) const {
  const std::shared_ptr<const ServiceSnapshot> snap = snapshot();
  if (!snap->event_in_range(event)) return SvcStatus::kInvalidArgument;
  *out = snap->AttendeesOf(event);
  std::sort(out->begin(), out->end());
  return SvcStatus::kOk;
}

SvcStatus ArrangementService::TopKEvents(UserId user, int k,
                                         std::vector<ScoredEvent>* out) const {
  const std::shared_ptr<const ServiceSnapshot> snap = snapshot();
  if (!snap->user_in_range(user) || k < 0) return SvcStatus::kInvalidArgument;
  *out = snap->TopKEvents(user, k);
  return SvcStatus::kOk;
}

SvcStatus ArrangementService::Candidates(
    UserId first_user, int user_count, int max_edges,
    std::vector<ScoredCandidate>* out) const {
  if (first_user < 0 || user_count < 0 || max_edges < 0) {
    return SvcStatus::kInvalidArgument;
  }
  const std::shared_ptr<const ServiceSnapshot> snap = snapshot();
  *out = snap->Candidates(first_user, user_count, max_edges);
  return SvcStatus::kOk;
}

ServiceStatsView ArrangementService::Stats() const {
  const std::shared_ptr<const ServiceSnapshot> snap = snapshot();
  ServiceStatsView view;
  view.epoch = snap->epoch();
  view.applied_seq = snap->applied_seq();
  view.pairs = snap->num_pairs();
  view.active_events = snap->num_active_events();
  view.active_users = snap->num_active_users();
  view.event_slots = snap->event_slots();
  view.user_slots = snap->user_slots();
  view.max_sum = snap->max_sum();
  {
    std::lock_guard<std::mutex> lock(mu_);
    view.queued = static_cast<int32_t>(queue_.size());
    view.overloads = overloads_;
  }
  return view;
}

}  // namespace geacc::svc
