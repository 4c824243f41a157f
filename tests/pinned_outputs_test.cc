// Pins the exact outputs of every solver that admits pairs greedily —
// greedy, greedy-sortall, online-greedy, mincostflow (its conflict
// resolution step), random-v and random-u — and of an IncrementalArranger
// replaying a seeded mutation trace. The expected pair sets, MaxSum bit
// patterns and repair counters were recorded from the code before these
// paths shared one admission implementation; any refactor of the
// admission rule must reproduce them bit for bit.
//
// It also pins the bytes of the persistence formats (instance file, WAL,
// paged-checkpoint encoding) for one seeded trace, recorded from the
// printf-based writers: a change to the number codec must not change a
// byte that is already on disk.
//
// Last, it pins every read an ArrangementService answers from its
// published snapshot over one seeded trace, recorded from the snapshot
// that copied the writer's state field by field: however a snapshot is
// built, it must answer every query with the same bytes. The same trace
// pins what a 3-shard coordinator answers after each repair pass.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/solvers.h"
#include "core/attributes.h"
#include "core/conflict_graph.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "gen/synthetic.h"
#include "gen/trace_gen.h"
#include "io/instance_io.h"
#include "shard/coordinator.h"
#include "storage/page.h"
#include "svc/client.h"
#include "svc/paged_checkpoint.h"
#include "svc/service.h"
#include "svc/wal.h"
#include "svc/wire.h"

namespace geacc {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// "v:u v:u ..." over SortedPairs().
std::string PairString(const Arrangement& arrangement) {
  std::string out;
  for (const auto& [v, u] : arrangement.SortedPairs()) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v) + ":" + std::to_string(u);
  }
  return out;
}

Instance SeededInstance(int index) {
  SyntheticConfig config;
  config.max_attribute = 100.0;
  config.event_attribute = DistributionSpec::Uniform(0.0, 100.0);
  config.user_attribute = DistributionSpec::Uniform(0.0, 100.0);
  config.user_capacity = DistributionSpec::Uniform(1.0, 3.0);
  switch (index) {
    case 0:
      config.num_events = 6;
      config.num_users = 20;
      config.dim = 3;
      config.conflict_density = 0.3;
      config.event_capacity = DistributionSpec::Uniform(1.0, 6.0);
      config.seed = 101;
      break;
    case 1:
      config.num_events = 8;
      config.num_users = 24;
      config.dim = 4;
      config.conflict_density = 0.5;
      config.event_capacity = DistributionSpec::Uniform(1.0, 5.0);
      config.seed = 202;
      break;
    default:
      config.num_events = 5;
      config.num_users = 30;
      config.dim = 2;
      config.conflict_density = 0.8;
      config.event_capacity = DistributionSpec::Uniform(2.0, 8.0);
      config.seed = 303;
      break;
  }
  return GenerateSynthetic(config);
}

struct PinnedSolve {
  int instance;
  const char* solver;
  const char* pairs;
  uint64_t max_sum_bits;
};

const PinnedSolve kPinnedSolves[] = {
    {0, "greedy",
     "0:2 0:3 0:10 0:16 0:18 1:3 1:8 1:16 1:18 2:5 2:13 2:17 3:4 3:9 "
     "3:12 3:19 4:7 4:11 5:6 5:19",
     0x402fe388bfe94bacULL},
    {0, "greedy-sortall",
     "0:2 0:3 0:10 0:16 0:18 1:3 1:8 1:16 1:18 2:5 2:13 2:17 3:4 3:9 "
     "3:12 3:19 4:7 4:11 5:6 5:19",
     0x402fe388bfe94bacULL},
    {0, "online-greedy",
     "0:2 0:3 0:8 0:10 0:12 1:2 1:3 1:6 1:8 2:7 2:9 2:11 3:0 3:1 3:4 "
     "3:5 4:0 4:5 5:0 5:1",
     0x402ad3448f866567ULL},
    {0, "mincostflow",
     "0:2 0:3 0:10 0:16 0:18 1:6 1:8 1:16 1:18 2:5 2:13 2:17 3:4 3:9 "
     "3:12 3:19 4:7 4:11 5:19",
     0x402e712c56a2fb1bULL},
    {0, "random-v",
     "0:0 1:0 1:1 1:17 2:5 2:14 3:4 3:6 3:9 3:18 4:8 4:19 5:0 5:3",
     0x40207f5f8303b96dULL},
    {0, "random-u",
     "0:0 0:9 0:11 0:13 0:15 1:0 1:2 1:6 1:17 2:3 3:7 3:8 3:11 3:15 "
     "4:8 4:10 5:1 5:12",
     0x4023a4fff904205fULL},
    {1, "greedy",
     "0:11 0:23 1:7 1:14 2:0 2:9 2:17 2:22 2:23 3:0 3:9 3:16 3:22 "
     "4:2 4:19 5:17 6:3 6:6 7:4 7:5 7:10 7:11 7:13",
     0x4030e95a5be45819ULL},
    {1, "greedy-sortall",
     "0:11 0:23 1:7 1:14 2:0 2:9 2:17 2:22 2:23 3:0 3:9 3:16 3:22 "
     "4:2 4:19 5:17 6:3 6:6 7:4 7:5 7:10 7:11 7:13",
     0x4030e95a5be45819ULL},
    {1, "online-greedy",
     "0:6 0:10 1:7 1:9 2:0 2:6 2:8 2:10 2:11 3:0 3:5 3:6 3:8 4:1 4:2 "
     "5:4 6:1 6:3 7:1 7:10 7:11 7:12 7:13",
     0x402ded64d122424fULL},
    {1, "mincostflow",
     "0:11 0:23 1:7 1:14 2:0 2:9 2:17 2:22 2:23 3:9 3:16 3:22 4:2 "
     "4:19 5:17 6:3 6:6 7:0 7:10 7:11 7:13",
     0x402f81742bc54c93ULL},
    {1, "random-v",
     "1:13 2:4 2:6 2:16 2:17 2:18 3:5 3:6 3:16 4:3 4:7 5:22 6:10 "
     "6:22 7:10 7:12 7:19 7:21",
     0x402552b596303faaULL},
    {1, "random-u",
     "0:0 0:8 1:12 1:17 2:8 2:11 2:13 2:19 2:20 3:1 3:6 3:15 3:16 "
     "4:2 4:9 5:4 6:9 7:21",
     0x4025c96e9ba19a65ULL},
    {2, "greedy",
     "0:2 0:5 0:14 0:22 1:10 1:13 1:21 2:3 2:16 2:17 3:8 3:11 3:15 "
     "3:20 3:29 4:0 4:9 4:18 4:19 4:27",
     0x40310f35254901c6ULL},
    {2, "greedy-sortall",
     "0:2 0:5 0:14 0:22 1:10 1:13 1:21 2:3 2:16 2:17 3:8 3:11 3:15 "
     "3:20 3:29 4:0 4:9 4:18 4:19 4:27",
     0x40310f35254901c6ULL},
    {2, "online-greedy",
     "0:2 0:14 0:15 0:16 1:0 1:2 1:4 2:3 2:7 2:10 3:1 3:5 3:6 3:8 "
     "3:11 4:0 4:4 4:9 4:12 4:13",
     0x402cc0cb6e1be3e3ULL},
    {2, "mincostflow",
     "0:2 0:5 0:14 1:10 1:13 1:21 2:3 2:17 3:8 3:11 3:15 3:20 3:29 "
     "4:0 4:9 4:18 4:19 4:27",
     0x402f6485a97643d2ULL},
    {2, "random-v",
     "0:0 0:20 1:7 1:24 2:4 2:17 2:18 3:9 3:10 3:13 3:14 3:19 4:3 "
     "4:5 4:6 4:22 4:29",
     0x40240bfc170c9c6cULL},
    {2, "random-u",
     "0:0 0:4 0:9 0:10 1:0 1:2 1:4 2:7 2:15 2:18 3:11 3:14 3:17 3:20 "
     "3:21 4:5 4:12 4:13 4:19 4:22",
     0x4028463af800973dULL},
};

TEST(PinnedOutputs, RegistrySolversOnSeededInstances) {
  for (const PinnedSolve& pin : kPinnedSolves) {
    const Instance instance = SeededInstance(pin.instance);
    const SolveResult result = CreateSolver(pin.solver)->Solve(instance);
    EXPECT_EQ(PairString(result.arrangement), pin.pairs)
        << pin.solver << " on instance " << pin.instance;
    EXPECT_EQ(Bits(result.arrangement.MaxSum(instance)), pin.max_sum_bits)
        << pin.solver << " on instance " << pin.instance;
  }
}

struct PinnedReplay {
  RepairOptions options;
  const char* pairs;
  uint64_t max_sum_bits;
  int64_t assignments_added;
  int64_t assignments_removed;
  int64_t cursor_steps;
  int64_t budget_exhausted;
  int64_t full_resolves;
};

RepairOptions Budgeted() {
  RepairOptions options;
  options.repair_budget = 4;
  options.drift_threshold = 0.0;
  return options;
}

TEST(PinnedOutputs, IncrementalArrangerTraceReplay) {
  TraceGenConfig config;
  config.initial_events = 8;
  config.initial_users = 40;
  config.dim = 4;
  config.num_mutations = 200;
  config.seed = 77;
  const MutationTrace trace = GenerateTrace(config);

  const PinnedReplay pins[] = {
      {RepairOptions{},
       "4:79 4:107 7:29 7:64 7:79 7:89 7:107 9:29 9:42 9:71 9:72 9:79 "
       "9:103 9:107 9:108 11:13 11:24 11:34 11:59 11:91 11:102 12:84 "
       "12:92 13:12 13:34 13:36 13:66 13:82 13:90 13:100 13:103 13:109 "
       "14:5 14:45 14:83 14:86 14:87 14:92 14:97 14:98 14:105 16:0 "
       "16:23 16:88 18:27 18:29 18:37 18:60 18:61 18:64 18:72 18:80 "
       "18:84 18:90 18:92 18:97 18:98 18:104 18:105 18:108 19:17 19:24 "
       "19:34 19:41 19:42 19:54 19:59 19:66 19:86 19:91 19:96 19:106 "
       "20:14 20:21 20:24 20:26 20:41 20:48 20:54 20:57 20:58 20:59 "
       "20:67 20:75 20:86 20:99 20:110 20:111",
       0x4050c716fb3577e9ULL, 865, 232, 5507, 0, 9},
      {Budgeted(),
       "4:58 4:107 7:29 7:37 7:89 7:107 9:29 9:42 9:64 9:71 9:72 9:96 "
       "11:13 11:24 11:34 11:91 11:102 11:110 12:84 12:92 13:12 13:36 "
       "13:74 14:5 14:80 14:83 14:84 14:86 14:90 14:92 14:98 16:0 "
       "16:23 16:88 18:72 18:84 18:105 18:108 18:109 19:34 20:48 20:58 "
       "20:111",
       0x404183c781997d2dULL, 171, 128, 549, 198, 1},
  };
  for (const PinnedReplay& pin : pins) {
    DynamicInstance dynamic(trace.initial);
    IncrementalArranger arranger(&dynamic, pin.options);
    arranger.FullResolve();
    for (const Mutation& mutation : trace.mutations) arranger.Apply(mutation);
    ASSERT_EQ(arranger.Validate(), "");
    const RepairStats& stats = arranger.stats();
    const std::string label =
        "budget " + std::to_string(pin.options.repair_budget);
    EXPECT_EQ(PairString(arranger.arrangement()), pin.pairs) << label;
    EXPECT_EQ(Bits(arranger.max_sum()), pin.max_sum_bits) << label;
    EXPECT_EQ(stats.assignments_added, pin.assignments_added) << label;
    EXPECT_EQ(stats.assignments_removed, pin.assignments_removed) << label;
    EXPECT_EQ(stats.cursor_steps, pin.cursor_steps) << label;
    EXPECT_EQ(stats.budget_exhausted, pin.budget_exhausted) << label;
    EXPECT_EQ(stats.full_resolves, pin.full_resolves) << label;
  }
}

// Byte count and FNV-1a 64 of one persisted output.
struct PinnedBytes {
  size_t bytes;
  uint64_t fnv;
};

PinnedBytes Fingerprint(const std::string& text) {
  return {text.size(), storage::Fnv1a64(text.data(), text.size())};
}

TEST(PinnedOutputs, PersistenceBytes) {
  TraceGenConfig config;
  config.initial_events = 8;
  config.initial_users = 40;
  config.dim = 4;
  config.num_mutations = 200;
  config.seed = 77;
  MutationTrace trace = GenerateTrace(config);

  DynamicInstance dynamic(trace.initial);
  IncrementalArranger arranger(&dynamic, RepairOptions{});
  arranger.FullResolve();
  for (const Mutation& mutation : trace.mutations) arranger.Apply(mutation);
  // Two slot mutations on live ids, so the checkpoint carries its
  // time-slot lines too.
  EventId event = 0;
  while (!dynamic.event_active(event)) ++event;
  UserId user = 0;
  while (!dynamic.user_active(user)) ++user;
  for (const Mutation& mutation : {Mutation::SetEventSlot(event, 3),
                                   Mutation::SetUserAvailability(user, 5)}) {
    arranger.Apply(mutation);
    trace.mutations.push_back(mutation);
  }

  std::ostringstream instance_text;
  WriteInstance(trace.initial, instance_text);

  const std::string wal_path = testing::TempDir() + "/pinned_bytes.wal";
  {
    svc::WalWriter wal;
    std::string error;
    ASSERT_TRUE(wal.Open(wal_path, trace.initial, &error)) << error;
    for (const Mutation& mutation : trace.mutations) {
      ASSERT_TRUE(wal.Append(mutation));
    }
    wal.Close();
  }
  std::ifstream wal_file(wal_path, std::ios::binary);
  const std::string wal_text((std::istreambuf_iterator<char>(wal_file)),
                             std::istreambuf_iterator<char>());
  std::remove(wal_path.c_str());

  svc::ServiceState state;
  state.similarity_name = dynamic.similarity().Name();
  state.similarity_param = dynamic.similarity().Param();
  state.slot = dynamic.ExportSlotState();
  state.arranger = arranger.ExportState();

  const std::string encoded = svc::EncodeServiceState(state);
  ASSERT_NE(encoded.find("\nevent_time_slots "), std::string::npos);

  const struct {
    const char* what;
    PinnedBytes actual;
    PinnedBytes expected;
  } pins[] = {
      {"WriteInstance", Fingerprint(instance_text.str()),
       {4091, 0xcbe576f2a3e0ada7ULL}},
      {"WAL", Fingerprint(wal_text), {13624, 0xe5e087a93253735fULL}},
      {"EncodeServiceState", Fingerprint(encoded),
       {14248, 0xe652ddaab2fda6e1ULL}},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(pin.actual.bytes, pin.expected.bytes) << pin.what;
    EXPECT_EQ(pin.actual.fnv, pin.expected.fnv) << pin.what;
  }
}

// Folds `value`'s bytes into a running FNV-1a 64.
template <typename T>
void Fold(uint64_t* hash, const T& value) {
  *hash = storage::Fnv1a64(&value, sizeof(value), *hash);
}

template <typename Id>
void FoldIds(uint64_t* hash, const std::vector<Id>& ids) {
  Fold(hash, ids.size());
  for (const Id id : ids) Fold(hash, id);
}

// Every read of the published state: identity, per-slot assignments,
// attendees and top-3 candidates, one candidate page over all users, and
// the Stats() fields that do not depend on queue timing.
void FoldServiceReads(const svc::ArrangementService& service,
                      uint64_t* hash) {
  const std::shared_ptr<const svc::ServiceSnapshot> snap = service.snapshot();
  Fold(hash, snap->epoch());
  Fold(hash, snap->applied_seq());
  Fold(hash, snap->num_pairs());
  Fold(hash, Bits(snap->max_sum()));
  for (UserId u = 0; u < snap->user_slots(); ++u) {
    FoldIds(hash, snap->AssignmentsOf(u));
    const std::vector<svc::ScoredEvent> top = snap->TopKEvents(u, 3);
    Fold(hash, top.size());
    for (const svc::ScoredEvent& scored : top) {
      Fold(hash, scored.event);
      Fold(hash, Bits(scored.similarity));
    }
  }
  for (EventId v = 0; v < snap->event_slots(); ++v) {
    std::vector<UserId> attendees;
    EXPECT_EQ(service.GetAttendees(v, &attendees), svc::SvcStatus::kOk);
    FoldIds(hash, attendees);
  }
  const std::vector<svc::ScoredCandidate> page =
      snap->Candidates(0, snap->user_slots(), /*max_edges=*/1 << 20);
  Fold(hash, page.size());
  for (const svc::ScoredCandidate& edge : page) {
    Fold(hash, edge.user);
    Fold(hash, edge.event);
    Fold(hash, Bits(edge.similarity));
  }
  const svc::ServiceStatsView stats = service.Stats();
  Fold(hash, stats.epoch);
  Fold(hash, stats.applied_seq);
  Fold(hash, stats.pairs);
  Fold(hash, stats.active_events);
  Fold(hash, stats.active_users);
  Fold(hash, stats.event_slots);
  Fold(hash, stats.user_slots);
  Fold(hash, Bits(stats.max_sum));
}

// The seeded trace the read pins replay: 8 x 40, d = 4, 200 mutations,
// then slot, removal and capacity edits on ids still live after them.
MutationTrace PinnedReadTrace() {
  TraceGenConfig config;
  config.initial_events = 8;
  config.initial_users = 40;
  config.dim = 4;
  config.num_mutations = 200;
  config.seed = 77;
  MutationTrace trace = GenerateTrace(config);

  DynamicInstance replay(trace.initial);
  for (const Mutation& mutation : trace.mutations) replay.Apply(mutation);
  std::vector<EventId> events;
  for (EventId v = 0; v < replay.event_slots() && events.size() < 2; ++v) {
    if (replay.event_active(v)) events.push_back(v);
  }
  std::vector<UserId> users;
  for (UserId u = 0; u < replay.user_slots() && users.size() < 3; ++u) {
    if (replay.user_active(u)) users.push_back(u);
  }
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(users.size(), 3u);
  if (events.size() < 2 || users.size() < 3) return trace;
  for (const Mutation& mutation :
       {Mutation::SetEventSlot(events[0], 3),
        Mutation::SetEventSlot(events[1], 5),
        Mutation::SetUserAvailability(users[0], 0),
        Mutation::SetUserAvailability(users[1], int64_t{1} << 3),
        Mutation::SetUserAvailability(users[2], int64_t{1} << 5),
        Mutation::RemoveUser(users[1]),
        Mutation::SetEventCapacity(events[0], 1)}) {
    trace.mutations.push_back(mutation);
  }
  return trace;
}

TEST(PinnedOutputs, ServiceSnapshotReads) {
  const MutationTrace trace = PinnedReadTrace();

  svc::ServiceOptions options;
  options.batch_size = 1;
  svc::ArrangementService service(trace.initial, options);
  uint64_t hash = storage::kFnvOffsetBasis;
  FoldServiceReads(service, &hash);
  for (const Mutation& mutation : trace.mutations) {
    const svc::SubmitResult submitted = service.Submit(mutation);
    ASSERT_EQ(submitted.status, svc::SvcStatus::kOk);
    ASSERT_EQ(service.WaitForTicket(submitted.ticket), svc::SvcStatus::kOk);
    FoldServiceReads(service, &hash);
  }
  const std::shared_ptr<const svc::ServiceSnapshot> snap = service.snapshot();
  std::ostringstream dense;
  WriteInstance(snap->ToDenseInstance(), dense);
  WriteArrangement(snap->ToDenseArrangement(), dense);
  const std::string bytes = dense.str();
  hash = storage::Fnv1a64(bytes.data(), bytes.size(), hash);
  EXPECT_EQ(hash, 0x81f7993f3f4db991ULL);
}

// Every read a 3-shard fleet answers after each repair pass over the same
// trace, a pass every 20 mutations and one at the end: each user's
// assignments and top-3 events, each event's attendees, and the kStats
// fields that do not depend on queue timing. Recorded from the
// coordinator that answered reads by asking its shards.
TEST(PinnedOutputs, CoordinatorReadsAfterRepair) {
  const MutationTrace trace = PinnedReadTrace();
  const Instance& initial = trace.initial;
  constexpr int kShards = 3;
  svc::ServiceOptions shard_options;
  shard_options.bootstrap_full_resolve = false;
  shard_options.repair.refill = false;
  std::vector<std::unique_ptr<svc::ArrangementService>> shards;
  std::vector<std::unique_ptr<svc::InProcessClient>> owned_clients;
  std::vector<svc::ServiceClient*> clients;
  for (int s = 0; s < kShards; ++s) {
    Instance empty(AttributeMatrix(0, initial.dim()), {},
                   AttributeMatrix(0, initial.dim()), {}, ConflictGraph(0),
                   initial.similarity().Clone());
    shards.push_back(std::make_unique<svc::ArrangementService>(
        std::move(empty), shard_options));
    owned_clients.push_back(
        std::make_unique<svc::InProcessClient>(shards.back().get()));
    clients.push_back(owned_clients.back().get());
  }
  shard::ShardCoordinator coordinator(clients, initial.dim(),
                                      initial.similarity().Clone());
  ASSERT_EQ(coordinator.ApplyInstance(initial), "");

  uint64_t hash = storage::kFnvOffsetBasis;
  const auto repair_and_fold = [&] {
    ASSERT_EQ(coordinator.RepairPass(), "");
    svc::WireRequest request;
    request.type = svc::MsgType::kStats;
    const svc::WireResponse reply = coordinator.Dispatch(request);
    ASSERT_EQ(reply.type, svc::MsgType::kStatsReply);
    const svc::ServiceStatsView& stats = reply.stats;
    Fold(&hash, stats.epoch);
    Fold(&hash, stats.pairs);
    Fold(&hash, stats.active_events);
    Fold(&hash, stats.active_users);
    Fold(&hash, stats.event_slots);
    Fold(&hash, stats.user_slots);
    Fold(&hash, Bits(stats.max_sum));
    for (UserId u = 0; u < stats.user_slots; ++u) {
      std::vector<EventId> events;
      ASSERT_EQ(coordinator.GetAssignments(u, &events), "");
      FoldIds(&hash, events);
      std::vector<svc::ScoredEvent> top;
      ASSERT_EQ(coordinator.TopKEvents(u, 3, &top), "");
      Fold(&hash, top.size());
      for (const svc::ScoredEvent& scored : top) {
        Fold(&hash, scored.event);
        Fold(&hash, Bits(scored.similarity));
      }
    }
    for (EventId v = 0; v < stats.event_slots; ++v) {
      std::vector<UserId> attendees;
      ASSERT_EQ(coordinator.GetAttendees(v, &attendees), "");
      FoldIds(&hash, attendees);
    }
  };
  for (size_t i = 0; i < trace.mutations.size(); ++i) {
    ASSERT_EQ(coordinator.Apply(trace.mutations[i]), "") << "mutation " << i;
    if ((i + 1) % 20 == 0) repair_and_fold();
  }
  repair_and_fold();
  for (auto& service : shards) service->Stop();
  EXPECT_EQ(hash, 0x26f54bf396212879ULL);
}

}  // namespace
}  // namespace geacc
