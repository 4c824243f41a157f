#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_set>

#include "algo/admission.h"
#include "core/arrangement.h"
#include "io/instance_io.h"
#include "io/trace_io.h"
#include "obs/stats.h"
#include "svc/service.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace geacc::shard {
namespace {

using svc::RpcStatus;
using svc::ServiceStatsView;

constexpr auto kPollInterval = std::chrono::milliseconds(1);
constexpr auto kReconnectInterval = std::chrono::milliseconds(100);

bool IsTransportFailure(RpcStatus status) {
  return status == RpcStatus::kProtocolError ||
         status == RpcStatus::kNetworkError;
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

ShardCoordinator::ShardCoordinator(
    std::vector<svc::ServiceClient*> clients, int dim,
    std::unique_ptr<SimilarityFunction> similarity, CoordinatorOptions options)
    : clients_(std::move(clients)),
      options_(options),
      mirror_(dim, std::move(similarity)),
      map_(static_cast<int>(clients_.size())),
      sent_log_(clients_.size()),
      sent_count_(clients_.size(), 0),
      rpc_(clients_.size()) {
  GEACC_CHECK(!clients_.empty());
}

RpcStatus ShardCoordinator::Timed(
    int shard, const std::function<RpcStatus()>& op) {
  WallTimer timer;
  const RpcStatus status = op();
  rpc_[shard].latency.Record(timer.Seconds());
  ++rpc_[shard].requests;
  if (status != RpcStatus::kOk && status != RpcStatus::kOverloaded) {
    ++rpc_[shard].errors;
  }
  return status;
}

RpcStatus ShardCoordinator::DeliverLogged(int shard, size_t index,
                                          std::string* error) {
  const Mutation& mutation = sent_log_[shard][index];
  int64_t ticket = -1;
  const RpcStatus status = Timed(
      shard, [&] { return clients_[shard]->Mutate(mutation, &ticket); });
  if (status != RpcStatus::kOk && error != nullptr) {
    *error = clients_[shard]->last_error();
  }
  return status;
}

std::string ShardCoordinator::SendMutation(int shard,
                                           const Mutation& local_mutation) {
  if (!options_.track_mutation_log) {
    // No resend log: deliver once, absorbing only backpressure.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.overload_retry_ms);
    for (;;) {
      int64_t ticket = -1;
      const RpcStatus status = Timed(shard, [&] {
        return clients_[shard]->Mutate(local_mutation, &ticket);
      });
      ++sent_count_[shard];
      if (status == RpcStatus::kOk) return "";
      --sent_count_[shard];
      if (status == RpcStatus::kOverloaded &&
          std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(kPollInterval);
        continue;
      }
      return StrFormat("shard %d: mutate failed (%s): %s", shard,
                       RpcStatusName(status),
                       clients_[shard]->last_error().c_str());
    }
  }

  // Log-first so an unknown-outcome transport failure is recoverable: the
  // resync path resends exactly the suffix the shard's recovered epoch
  // says it is missing — this mutation included iff its apply was lost.
  sent_log_[shard].push_back(local_mutation);
  ++sent_count_[shard];
  const size_t index = sent_log_[shard].size() - 1;

  const auto overload_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.overload_retry_ms);
  bool barriered = false;
  for (;;) {
    std::string deliver_error;
    const RpcStatus status = DeliverLogged(shard, index, &deliver_error);
    switch (status) {
      case RpcStatus::kOk:
        return "";
      case RpcStatus::kOverloaded:
        if (std::chrono::steady_clock::now() >= overload_deadline) {
          return StrFormat("shard %d: still overloaded after %d ms", shard,
                           options_.overload_retry_ms);
        }
        std::this_thread::sleep_for(kPollInterval);
        continue;
      case RpcStatus::kServerError: {
        // The wire server validates against its latest *published*
        // snapshot, which can trail a mutation we sent a moment ago (e.g.
        // set_user_capacity right after the add_user that created the
        // slot). Once the shard's epoch covers everything before this
        // mutation the validation state is current — a second rejection
        // is then a real desync.
        if (barriered) {
          return StrFormat("shard %d: rejected mutation %zu: %s", shard,
                           index, deliver_error.c_str());
        }
        barriered = true;
        const std::string barrier_error =
            BarrierShard(shard, static_cast<int64_t>(index));
        if (!barrier_error.empty()) return barrier_error;
        continue;
      }
      default:  // transport — outcome unknown; resync decides
        return RecoverShard(shard);
    }
  }
}

std::string ShardCoordinator::RecoverShard(int shard) {
  if (!reconnect_fn_) {
    return StrFormat("shard %d: connection lost and no reconnect function "
                     "installed", shard);
  }
  if (!options_.track_mutation_log) {
    return StrFormat("shard %d: connection lost and the mutation log is "
                     "disabled — cannot resync", shard);
  }
  GEACC_LOG(WARNING) << "shard " << shard
                     << ": connection lost, reconnecting";
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.reconnect_timeout_ms);
  for (;;) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return StrFormat("shard %d: reconnect timed out after %d ms", shard,
                       options_.reconnect_timeout_ms);
    }
    if (!reconnect_fn_(shard)) {
      std::this_thread::sleep_for(kReconnectInterval);
      continue;
    }

    // The shard's epoch is its applied-mutation count, replayed from its
    // WAL on restart — the durable high-water mark of what survived.
    ServiceStatsView stats;
    if (Timed(shard, [&] { return clients_[shard]->GetStats(&stats); }) !=
        RpcStatus::kOk) {
      std::this_thread::sleep_for(kReconnectInterval);
      continue;
    }
    const int64_t recovered = stats.epoch;
    const int64_t logged = static_cast<int64_t>(sent_log_[shard].size());
    if (recovered > logged) {
      return StrFormat("shard %d recovered epoch %lld past the coordinator "
                       "log (%lld entries) — topology mismatch", shard,
                       static_cast<long long>(recovered),
                       static_cast<long long>(logged));
    }
    GEACC_LOG(WARNING) << "shard " << shard << ": resending mutations ["
                       << recovered << ", " << logged << ")";
    GEACC_STATS_ADD("shard.coord.resyncs", 1);

    bool resync_ok = true;
    for (int64_t i = recovered; i < logged && resync_ok; ++i) {
      bool barriered = false;
      for (;;) {
        std::string deliver_error;
        const RpcStatus status =
            DeliverLogged(shard, static_cast<size_t>(i), &deliver_error);
        if (status == RpcStatus::kOk) break;
        if (status == RpcStatus::kOverloaded) {
          std::this_thread::sleep_for(kPollInterval);
          continue;
        }
        if (status == RpcStatus::kServerError && !barriered) {
          // Same stale-snapshot race as SendMutation: wait for the shard
          // to catch up to everything before entry i, then retry once.
          barriered = true;
          bool caught_up = false;
          while (std::chrono::steady_clock::now() < deadline) {
            ServiceStatsView probe;
            if (Timed(shard, [&] {
                  return clients_[shard]->GetStats(&probe);
                }) != RpcStatus::kOk) {
              break;  // transport again — reconnect from scratch
            }
            if (probe.epoch >= i) {
              caught_up = true;
              break;
            }
            std::this_thread::sleep_for(kPollInterval);
          }
          if (caught_up) continue;
          resync_ok = false;
          break;
        }
        if (status == RpcStatus::kServerError) {
          return StrFormat("shard %d: rejected resent mutation %lld: %s",
                           shard, static_cast<long long>(i),
                           deliver_error.c_str());
        }
        resync_ok = false;  // transport died mid-resync; reconnect again
        break;
      }
    }
    if (resync_ok) {
      GEACC_STATS_ADD("shard.coord.reconnects", 1);
      return "";
    }
  }
}

std::string ShardCoordinator::BarrierShard(int shard, int64_t target_epoch) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.barrier_timeout_ms);
  for (;;) {
    ServiceStatsView stats;
    const RpcStatus status =
        Timed(shard, [&] { return clients_[shard]->GetStats(&stats); });
    if (status == RpcStatus::kOk) {
      if (stats.epoch >= target_epoch) return "";
    } else if (IsTransportFailure(status)) {
      const std::string error = RecoverShard(shard);
      if (!error.empty()) return error;
      continue;
    } else {
      return StrFormat("shard %d: stats failed during barrier: %s", shard,
                       clients_[shard]->last_error().c_str());
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return StrFormat("shard %d: barrier to epoch %lld timed out at %lld",
                       shard, static_cast<long long>(target_epoch),
                       static_cast<long long>(stats.epoch));
    }
    std::this_thread::sleep_for(kPollInterval);
  }
}

std::string ShardCoordinator::BarrierLocked() {
  for (int shard = 0; shard < num_shards(); ++shard) {
    const std::string error = BarrierShard(shard, sent_count_[shard]);
    if (!error.empty()) return error;
  }
  return "";
}

std::string ShardCoordinator::Barrier() {
  std::lock_guard<std::mutex> lock(mu_);
  return BarrierLocked();
}

std::string ShardCoordinator::ApplyLocked(const Mutation& mutation,
                                          int32_t* assigned) {
  if (assigned != nullptr) *assigned = -1;
  const std::string problem = svc::ValidateMutation(mirror_, mutation);
  if (!problem.empty()) return "bad mutation: " + problem;

  int32_t assigned_id = -1;
  std::string error;
  switch (mutation.kind) {
    case Mutation::Kind::kAddUser: {
      const ShardMap::Placement placement = map_.PlaceUser();
      assigned_id = mirror_.Apply(mutation);
      GEACC_CHECK_EQ(assigned_id, map_.global_users() - 1);
      error = SendMutation(placement.shard, mutation);
      break;
    }
    case Mutation::Kind::kRemoveUser:
    case Mutation::Kind::kSetUserCapacity:
    case Mutation::Kind::kSetUserAvailability: {
      const ShardMap::Placement placement = map_.UserHome(mutation.id);
      mirror_.Apply(mutation);
      Mutation local = mutation;
      local.id = placement.local;
      error = SendMutation(placement.shard, local);
      break;
    }
    case Mutation::Kind::kAddEvent:
      assigned_id = mirror_.Apply(mutation);
      for (int shard = 0; shard < num_shards() && error.empty(); ++shard) {
        error = SendMutation(shard, mutation);
      }
      break;
    default:  // remove_event, add_conflict, set_event_capacity,
              // set_event_slot: event-side state is replicated
      mirror_.Apply(mutation);
      for (int shard = 0; shard < num_shards() && error.empty(); ++shard) {
        error = SendMutation(shard, mutation);
      }
      break;
  }
  if (!error.empty()) return error;
  ++ops_;
  GEACC_STATS_ADD("shard.coord.mutations", 1);
  if (assigned != nullptr) *assigned = assigned_id;
  return "";
}

std::string ShardCoordinator::Apply(const Mutation& mutation,
                                    int32_t* assigned) {
  std::lock_guard<std::mutex> lock(mu_);
  return ApplyLocked(mutation, assigned);
}

std::string ShardCoordinator::ApplyInstance(const Instance& instance) {
  std::lock_guard<std::mutex> lock(mu_);
  if (instance.dim() != mirror_.dim()) {
    return StrFormat("instance dim %d != coordinator dim %d", instance.dim(),
                     mirror_.dim());
  }
  if (mirror_.epoch() != 0 || map_.global_users() > 0) {
    return "cannot seed a non-empty topology";
  }
  const int dim = instance.dim();
  for (EventId v = 0; v < instance.num_events(); ++v) {
    const double* row = instance.event_attributes().Row(v);
    const std::string error = ApplyLocked(
        Mutation::AddEvent(std::vector<double>(row, row + dim),
                           instance.event_capacity(v)),
        nullptr);
    if (!error.empty()) return error;
  }
  for (UserId u = 0; u < instance.num_users(); ++u) {
    const double* row = instance.user_attributes().Row(u);
    const std::string error = ApplyLocked(
        Mutation::AddUser(std::vector<double>(row, row + dim),
                          instance.user_capacity(u)),
        nullptr);
    if (!error.empty()) return error;
  }
  for (EventId v = 0; v < instance.num_events(); ++v) {
    for (const EventId w : instance.conflicts().ConflictsOf(v)) {
      if (w <= v) continue;
      const std::string error =
          ApplyLocked(Mutation::AddConflict(v, w), nullptr);
      if (!error.empty()) return error;
    }
  }
  return "";
}

std::string ShardCoordinator::GetAssignmentsLocked(UserId user,
                                                   std::vector<EventId>* out) {
  out->clear();
  if (user < 0 || user >= mirror_.user_slots()) {
    return StrFormat("user id %d out of range", user);
  }
  if (!mirror_.user_active(user)) return "";
  const ShardMap::Placement placement = map_.UserHome(user);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const RpcStatus status = Timed(placement.shard, [&] {
      return clients_[placement.shard]->GetAssignments(placement.local, out);
    });
    if (status == RpcStatus::kOk) return "";  // event ids are global already
    if (IsTransportFailure(status) && attempt == 0) {
      const std::string error = RecoverShard(placement.shard);
      if (!error.empty()) return error;
      continue;
    }
    return StrFormat("shard %d: get_assignments failed: %s", placement.shard,
                     clients_[placement.shard]->last_error().c_str());
  }
  return "unreachable";
}

std::string ShardCoordinator::GetAttendeesLocked(EventId event,
                                                 std::vector<UserId>* out) {
  out->clear();
  if (event < 0 || event >= mirror_.event_slots()) {
    return StrFormat("event id %d out of range", event);
  }
  if (!mirror_.event_active(event)) return "";
  for (int shard = 0; shard < num_shards(); ++shard) {
    std::vector<UserId> locals;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const RpcStatus status = Timed(shard, [&] {
        return clients_[shard]->GetAttendees(event, &locals);
      });
      if (status == RpcStatus::kOk) break;
      if (IsTransportFailure(status) && attempt == 0) {
        const std::string error = RecoverShard(shard);
        if (!error.empty()) return error;
        continue;
      }
      return StrFormat("shard %d: get_attendees failed: %s", shard,
                       clients_[shard]->last_error().c_str());
    }
    for (const UserId local : locals) {
      const int32_t global = map_.ToGlobalUser(shard, local);
      if (global < 0) {
        return StrFormat("shard %d reported unknown local user %d", shard,
                         local);
      }
      out->push_back(global);
    }
  }
  // Deterministic merge: ascending global ids, independent of shard count
  // and reply order.
  std::sort(out->begin(), out->end());
  return "";
}

std::vector<svc::ScoredEvent> ShardCoordinator::MergeScoredLists(
    const std::vector<std::vector<svc::ScoredEvent>>& lists, int k) {
  std::vector<svc::ScoredEvent> merged;
  if (k <= 0) return merged;
  for (const auto& list : lists) {
    merged.insert(merged.end(), list.begin(), list.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const svc::ScoredEvent& a, const svc::ScoredEvent& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.event < b.event;
            });
  // Replicas can answer with the same event; the first (best-ranked)
  // occurrence wins.
  std::unordered_set<EventId> seen;
  std::vector<svc::ScoredEvent> result;
  for (const svc::ScoredEvent& entry : merged) {
    if (!seen.insert(entry.event).second) continue;
    result.push_back(entry);
    if (static_cast<int>(result.size()) >= k) break;
  }
  return result;
}

std::string ShardCoordinator::TopKEventsLocked(
    UserId user, int k, std::vector<svc::ScoredEvent>* out) {
  out->clear();
  if (user < 0 || user >= mirror_.user_slots() || k < 0) {
    return StrFormat("bad top-k query (user %d, k %d)", user, k);
  }
  if (!mirror_.user_active(user) || k == 0) return "";
  // Fan out to every shard that holds the user (with hash partitioning
  // that is exactly its home shard — replicated-user topologies would
  // contribute more lists) and merge deterministically.
  const ShardMap::Placement placement = map_.UserHome(user);
  std::vector<std::vector<svc::ScoredEvent>> lists;
  for (int shard = 0; shard < num_shards(); ++shard) {
    const int32_t local = shard == placement.shard ? placement.local : -1;
    if (local < 0) continue;
    std::vector<svc::ScoredEvent> list;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const RpcStatus status = Timed(shard, [&] {
        return clients_[shard]->TopKEvents(local, k, &list);
      });
      if (status == RpcStatus::kOk) break;
      if (IsTransportFailure(status) && attempt == 0) {
        const std::string error = RecoverShard(shard);
        if (!error.empty()) return error;
        continue;
      }
      return StrFormat("shard %d: top_k failed: %s", shard,
                       clients_[shard]->last_error().c_str());
    }
    lists.push_back(std::move(list));
  }
  *out = MergeScoredLists(lists, k);
  return "";
}

std::string ShardCoordinator::GetAssignments(UserId user,
                                             std::vector<EventId>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetAssignmentsLocked(user, out);
}

std::string ShardCoordinator::GetAttendees(EventId event,
                                           std::vector<UserId>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetAttendeesLocked(event, out);
}

std::string ShardCoordinator::TopKEvents(UserId user, int k,
                                         std::vector<svc::ScoredEvent>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  return TopKEventsLocked(user, k, out);
}

std::string ShardCoordinator::RepairPassLocked() {
  WallTimer timer;
  std::string error = BarrierLocked();
  if (!error.empty()) return error;

  // Stream every shard's unfiltered candidate edges, translated into the
  // global user id space. Shard replies are outside input: a malformed
  // edge fails the pass before anything is installed.
  std::vector<Candidate> candidates;
  std::unordered_set<uint64_t> seen;
  for (int shard = 0; shard < num_shards(); ++shard) {
    const int32_t local_slots = map_.LocalUserCount(shard);
    for (int32_t first = 0; first < local_slots;
         first += options_.candidate_page) {
      std::vector<svc::ScoredCandidate> page;
      for (;;) {
        const RpcStatus status = Timed(shard, [&] {
          return clients_[shard]->Candidates(first, options_.candidate_page,
                                             &page);
        });
        if (status == RpcStatus::kOk) break;
        if (IsTransportFailure(status)) {
          error = RecoverShard(shard);
          if (error.empty()) error = BarrierShard(shard, sent_count_[shard]);
          if (!error.empty()) return error;
          continue;
        }
        return StrFormat("shard %d: candidates failed: %s", shard,
                         clients_[shard]->last_error().c_str());
      }
      for (const svc::ScoredCandidate& candidate : page) {
        const int32_t global = map_.ToGlobalUser(shard, candidate.user);
        if (global < 0) {
          return StrFormat("shard %d reported unknown local user %d", shard,
                           candidate.user);
        }
        if (candidate.event < 0 || candidate.event >= mirror_.event_slots()) {
          return StrFormat("shard %d reported unknown event %d", shard,
                           candidate.event);
        }
        if (!std::isfinite(candidate.similarity) ||
            candidate.similarity <= 0.0) {
          return StrFormat("shard %d reported similarity %g for {%d,%d}",
                           shard, candidate.similarity, candidate.event,
                           candidate.user);
        }
        if (!seen.insert(PairKey(candidate.event, global)).second) {
          return StrFormat("shard %d reported {%d,%d} twice", shard,
                           candidate.event, candidate.user);
        }
        // Slot-availability gate: a pair forbidden by the mirror's
        // time-slot annotations must never reach admission — the shard's
        // arranger would reject the install as infeasible.
        if (!mirror_.PairAllowed(candidate.event, global)) continue;
        candidates.push_back({candidate.similarity, candidate.event, global});
      }
    }
  }

  // Global admission — SortAllGreedySolver's AdmitInOrder pass over
  // global ids and the mirror's seats and conflict graph. Global user ids
  // equal single-node slot ids and the shard-computed similarities are
  // bit-identical to local recomputation, so the admitted set and the
  // running sum match the single-node solve.
  std::vector<int> event_seats(mirror_.event_slots(), 0);
  std::vector<int> user_seats(mirror_.user_slots(), 0);
  for (EventId v = 0; v < mirror_.event_slots(); ++v) {
    if (mirror_.event_active(v)) event_seats[v] = mirror_.event_capacity(v);
  }
  for (UserId u = 0; u < mirror_.user_slots(); ++u) {
    if (mirror_.user_active(u)) user_seats[u] = mirror_.user_capacity(u);
  }
  Admission admission(std::move(event_seats), std::move(user_seats),
                      mirror_.conflicts());

  std::vector<std::vector<std::pair<int32_t, int32_t>>> installs(num_shards());
  std::vector<double> shard_sums(num_shards(), 0.0);
  std::vector<std::pair<EventId, UserId>> admitted;
  double global_sum = 0.0;
  int64_t rejected_capacity = 0;
  int64_t rejected_conflict = 0;
  int64_t cross_edge = 0;
  AdmitInOrder(candidates, admission, [&](const Candidate& candidate,
                                          AdmitResult result) {
    const ShardMap::Placement placement = map_.UserHome(candidate.user);
    switch (result.verdict) {
      case Verdict::kNoSeat:
        ++rejected_capacity;
        return;
      case Verdict::kConflict:
        ++rejected_conflict;
        // A rejection is charged to the blocking edge's owner; it counts
        // as cross-edge when that owner is not the user's home shard.
        if (EdgeOwnerShard(candidate.event, result.blocking, num_shards()) !=
            placement.shard) {
          ++cross_edge;
        }
        return;
      case Verdict::kAdmitted:
        admitted.emplace_back(candidate.event, candidate.user);
        global_sum += candidate.similarity;
        installs[placement.shard].emplace_back(candidate.event,
                                               placement.local);
        shard_sums[placement.shard] += candidate.similarity;
        return;
    }
  });

  // Install each shard's slice (admission order preserved), then wait for
  // the shard to apply and publish it.
  for (int shard = 0; shard < num_shards(); ++shard) {
    std::vector<std::pair<EventId, UserId>> pairs;
    pairs.reserve(installs[shard].size());
    for (const auto& [event, local] : installs[shard]) {
      pairs.emplace_back(event, local);
    }
    for (;;) {
      int64_t ticket = -1;
      const RpcStatus status = Timed(shard, [&] {
        return clients_[shard]->InstallArrangement(
            pairs, DoubleBits(shard_sums[shard]), &ticket);
      });
      if (status == RpcStatus::kOverloaded) {
        std::this_thread::sleep_for(kPollInterval);
        continue;
      }
      if (IsTransportFailure(status)) {
        error = RecoverShard(shard);
        if (error.empty()) error = BarrierShard(shard, sent_count_[shard]);
        if (!error.empty()) return error;
        continue;  // re-send the install against the recovered shard
      }
      if (status != RpcStatus::kOk) {
        return StrFormat("shard %d: install failed: %s", shard,
                         clients_[shard]->last_error().c_str());
      }
      // Wait until the install's snapshot is published, then verify the
      // shard adopted the slice (a rejected install fails silently at the
      // writer — surface it here instead of serving a stale slice).
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.barrier_timeout_ms);
      ServiceStatsView stats;
      bool applied = false;
      bool transport_lost = false;
      while (std::chrono::steady_clock::now() < deadline) {
        const RpcStatus poll_status =
            Timed(shard, [&] { return clients_[shard]->GetStats(&stats); });
        if (poll_status != RpcStatus::kOk) {
          if (!IsTransportFailure(poll_status)) {
            return StrFormat("shard %d: stats failed after install: %s",
                             shard, clients_[shard]->last_error().c_str());
          }
          transport_lost = true;
          break;
        }
        if (stats.applied_seq >= ticket) {
          applied = true;
          break;
        }
        std::this_thread::sleep_for(kPollInterval);
      }
      if (transport_lost) {
        error = RecoverShard(shard);
        if (error.empty()) error = BarrierShard(shard, sent_count_[shard]);
        if (!error.empty()) return error;
        continue;  // the install died with the old incarnation; re-send
      }
      if (!applied) {
        return StrFormat("shard %d: install not applied within %d ms", shard,
                         options_.barrier_timeout_ms);
      }
      if (stats.pairs != static_cast<int64_t>(pairs.size())) {
        return StrFormat("shard %d rejected install: holds %lld pairs, "
                         "expected %zu", shard,
                         static_cast<long long>(stats.pairs), pairs.size());
      }
      break;
    }
  }

  last_pairs_ = std::move(admitted);
  global_max_sum_ = global_sum;
  ++repair_epoch_;
  repair_candidates_ = static_cast<int64_t>(candidates.size());
  repair_admitted_ = static_cast<int64_t>(last_pairs_.size());
  repair_rejected_capacity_ = rejected_capacity;
  repair_rejected_conflict_ = rejected_conflict;
  cross_edge_rejects_ = cross_edge;
  GEACC_STATS_ADD("shard.coord.repair_passes", 1);
  GEACC_STATS_ADD("shard.coord.repair_candidates", repair_candidates_);
  GEACC_STATS_ADD("shard.coord.repair_admitted", repair_admitted_);
  GEACC_LOG(INFO) << "repair pass " << repair_epoch_ << ": "
                  << repair_admitted_ << "/" << repair_candidates_
                  << " candidates admitted, MaxSum " << global_max_sum_
                  << " (" << timer.Seconds() << "s)";
  return "";
}

std::string ShardCoordinator::RepairPass() {
  std::lock_guard<std::mutex> lock(mu_);
  return RepairPassLocked();
}

std::string ShardCoordinator::DumpMerged(const std::string& instance_path,
                                         const std::string& arrangement_path) {
  std::lock_guard<std::mutex> lock(mu_);
  DynamicInstance::SnapshotMap map;
  const Instance dense = mirror_.Snapshot(&map);
  if (!instance_path.empty() && !WriteInstanceToFile(dense, instance_path)) {
    return "cannot write " + instance_path;
  }
  if (arrangement_path.empty()) return "";
  Arrangement arrangement(dense.num_events(), dense.num_users());
  for (const auto& [event, user] : last_pairs_) {
    const int dense_event = map.event_to_dense[event];
    const int dense_user = map.user_to_dense[user];
    // Entities removed since the last pass drop out of the dense view —
    // and their pairs drop with them, same as the single-node snapshot.
    if (dense_event < 0 || dense_user < 0) continue;
    arrangement.Add(dense_event, dense_user);
  }
  if (!WriteArrangementToFile(arrangement, arrangement_path)) {
    return "cannot write " + arrangement_path;
  }
  return "";
}

svc::ShardTopologyStats ShardCoordinator::StatsLocked() {
  svc::ShardTopologyStats topology;
  topology.shard_count = num_shards();
  topology.repair_epoch = repair_epoch_;
  topology.global_max_sum = global_max_sum_;
  topology.repair_candidates = repair_candidates_;
  topology.repair_admitted = repair_admitted_;
  topology.repair_rejected_capacity = repair_rejected_capacity_;
  topology.repair_rejected_conflict = repair_rejected_conflict_;
  topology.cross_edge_rejects = cross_edge_rejects_;
  for (int shard = 0; shard < num_shards(); ++shard) {
    svc::ShardStatsEntry entry;
    entry.shard = shard;
    Timed(shard, [&] { return clients_[shard]->GetStats(&entry.stats); });
    entry.rpc_requests = rpc_[shard].requests;
    entry.rpc_errors = rpc_[shard].errors;
    entry.rpc_p50_ms = rpc_[shard].latency.Percentile(50.0) * 1e3;
    entry.rpc_p95_ms = rpc_[shard].latency.Percentile(95.0) * 1e3;
    entry.rpc_p99_ms = rpc_[shard].latency.Percentile(99.0) * 1e3;
    topology.shards.push_back(std::move(entry));
  }
  return topology;
}

svc::ShardTopologyStats ShardCoordinator::Stats() {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

svc::WireResponse ShardCoordinator::Dispatch(const svc::WireRequest& request) {
  using svc::MsgType;
  svc::WireResponse response;
  const auto error_response = [](std::string message) {
    svc::WireResponse error;
    error.type = MsgType::kError;
    error.message = std::move(message);
    return error;
  };
  switch (request.type) {
    case MsgType::kPing:
      response.type = MsgType::kPong;
      return response;
    case MsgType::kGetAssignments: {
      const std::string error = GetAssignments(request.id, &response.ids);
      if (!error.empty()) return error_response(error);
      response.type = MsgType::kIdList;
      return response;
    }
    case MsgType::kGetAttendees: {
      const std::string error = GetAttendees(request.id, &response.ids);
      if (!error.empty()) return error_response(error);
      response.type = MsgType::kIdList;
      return response;
    }
    case MsgType::kTopK: {
      const std::string error =
          TopKEvents(request.id, request.k, &response.scored);
      if (!error.empty()) return error_response(error);
      response.type = MsgType::kScoredList;
      return response;
    }
    case MsgType::kStats: {
      std::lock_guard<std::mutex> lock(mu_);
      response.type = MsgType::kStatsReply;
      response.stats.epoch = mirror_.epoch();
      response.stats.applied_seq = ops_;
      response.stats.pairs = static_cast<int64_t>(last_pairs_.size());
      response.stats.active_events = mirror_.num_active_events();
      response.stats.active_users = mirror_.num_active_users();
      response.stats.event_slots = mirror_.event_slots();
      response.stats.user_slots = mirror_.user_slots();
      response.stats.max_sum = global_max_sum_;
      return response;
    }
    case MsgType::kMutate: {
      std::string parse_error;
      std::optional<Mutation> mutation =
          ParseMutationLine(request.payload, mirror_.dim(), &parse_error);
      if (!mutation) return error_response("bad mutation: " + parse_error);
      std::lock_guard<std::mutex> lock(mu_);
      const std::string error = ApplyLocked(*mutation, nullptr);
      if (!error.empty()) return error_response(error);
      response.type = MsgType::kMutateAck;
      response.ticket = ops_;
      return response;
    }
    case MsgType::kShardStats:
      response.type = MsgType::kShardStatsReply;
      response.shard_stats = Stats();
      return response;
    case MsgType::kCandidates:
    case MsgType::kInstallArrangement:
      return error_response("shard-only operation sent to the coordinator");
    default:
      return error_response("unexpected message type");
  }
}

}  // namespace geacc::shard
