// Tests for the shard coordinator (shard/coordinator.h): top-k tie-breaks
// at every shard count, routing determinism across coordinator
// incarnations, cross-shard conflict admission/rejection accounting,
// rejection of malformed shard candidates, candidate pages that fit the
// wire cap, reads served from the coordinator's read view (they never
// wait for a repair pass, and a capacity cut between passes trims the
// global roster), and the headline contract — a sharded repair pass is
// bit-identical to the single-node greedy-sortall solve of the same
// instance (DESIGN.md §16).

#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/solvers.h"
#include "core/arrangement.h"
#include "core/attributes.h"
#include "core/conflict_graph.h"
#include "core/instance.h"
#include "dyn/mutation.h"
#include "core/similarity.h"
#include "gen/synthetic.h"
#include "io/instance_io.h"
#include "shard/partition.h"
#include "svc/client.h"
#include "svc/service.h"
#include "svc/wire.h"
#include "verify/audit.h"

namespace geacc::shard {
namespace {

using svc::ScoredCandidate;
using svc::ScoredEvent;

// An in-process shard client whose kCandidateList replies pass through
// `corrupt` when it is set, so tests can feed the coordinator malformed
// shard output in well-formed frames.
class CorruptibleClient : public svc::InProcessClient {
 public:
  using svc::InProcessClient::InProcessClient;

  std::function<void(std::vector<ScoredCandidate>*)> corrupt;

 protected:
  svc::RpcStatus Exchange(const std::string& request_frame,
                          std::string* reply_body) override {
    const svc::RpcStatus status =
        svc::InProcessClient::Exchange(request_frame, reply_body);
    svc::WireResponse reply;
    if (status != svc::RpcStatus::kOk || !corrupt ||
        !svc::DecodeResponse(
            reinterpret_cast<const uint8_t*>(reply_body->data()),
            reply_body->size(), &reply) ||
        reply.type != svc::MsgType::kCandidateList) {
      return status;
    }
    corrupt(&reply.candidates);
    *reply_body = svc::EncodeResponseFrame(reply).substr(4);
    return status;
  }
};

// An in-process N-shard topology: empty score-only shard services behind
// InProcessClients, plus a coordinator over them. The same construction
// the verify campaign's sharded differential uses.
class Topology {
 public:
  Topology(int num_shards, const Instance& instance) {
    svc::ServiceOptions shard_options;
    shard_options.bootstrap_full_resolve = false;
    shard_options.repair.refill = false;
    for (int s = 0; s < num_shards; ++s) {
      Instance empty(AttributeMatrix(0, instance.dim()), {},
                     AttributeMatrix(0, instance.dim()), {}, ConflictGraph(0),
                     instance.similarity().Clone());
      services_.push_back(std::make_unique<svc::ArrangementService>(
          std::move(empty), shard_options));
      clients_.push_back(
          std::make_unique<CorruptibleClient>(services_.back().get()));
      raw_clients_.push_back(clients_.back().get());
    }
    coordinator_ = std::make_unique<ShardCoordinator>(
        raw_clients_, instance.dim(), instance.similarity().Clone());
  }

  ~Topology() {
    for (auto& service : services_) service->Stop();
  }

  ShardCoordinator& coordinator() { return *coordinator_; }
  CorruptibleClient& client(int shard) { return *clients_[shard]; }

 private:
  std::vector<std::unique_ptr<svc::ArrangementService>> services_;
  std::vector<std::unique_ptr<CorruptibleClient>> clients_;
  std::vector<svc::ServiceClient*> raw_clients_;
  std::unique_ptr<ShardCoordinator> coordinator_;
};

Instance SmallInstance(uint64_t seed, int events, int users) {
  SyntheticConfig config;
  config.num_events = events;
  config.num_users = users;
  config.dim = 4;
  config.conflict_density = 0.3;
  config.event_capacity = DistributionSpec::Uniform(1.0, 4.0);
  config.user_capacity = DistributionSpec::Uniform(1.0, 3.0);
  config.seed = seed;
  return GenerateSynthetic(config);
}

// Six events at three distances from the origin, two users there: every
// event ties exactly with another, and the top-k answers must break each
// tie on the event id.
Instance TiedInstance() {
  InstanceBuilder builder;
  for (const std::vector<double>& row :
       {std::vector<double>{3.0, 0.0}, {1.0, 0.0}, {0.0, 3.0},
        {0.0, 1.0}, {2.0, 0.0}, {0.0, 2.0}}) {
    builder.AddEvent(row, 1);
  }
  builder.AddUser({0.0, 0.0}, 1);
  builder.AddUser({0.0, 0.0}, 1);
  builder.SetSimilarity(MakeSimilarity("euclidean", 10.0));
  return builder.Build();
}

// Every active event with positive similarity to `user` that `user` does
// not hold, ranked (similarity desc, event asc).
std::vector<ScoredEvent> RankedEvents(const Instance& instance, UserId user,
                                      const std::vector<EventId>& held) {
  std::vector<ScoredEvent> ranked;
  for (EventId v = 0; v < instance.num_events(); ++v) {
    if (std::find(held.begin(), held.end(), v) != held.end()) continue;
    const double sim = instance.Similarity(v, user);
    if (sim > 0.0) ranked.push_back({v, sim});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ScoredEvent& a, const ScoredEvent& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.event < b.event;
            });
  return ranked;
}

// The MergeScoredLists cases hold the coordinator's TopKEvents to the
// contract its per-shard merge once had: (similarity desc, event asc),
// at most k entries, each event once, whatever the shard count.
TEST(MergeScoredLists, OrdersBySimilarityThenEventId) {
  const Instance instance = TiedInstance();
  Topology topology(3, instance);
  ShardCoordinator& coordinator = topology.coordinator();
  ASSERT_EQ(coordinator.ApplyInstance(instance), "");
  ASSERT_EQ(coordinator.Barrier(), "");
  const double near = instance.Similarity(1, 0);
  const double middle = instance.Similarity(4, 0);
  const double far = instance.Similarity(0, 0);
  ASSERT_GT(far, 0.0);
  const std::vector<ScoredEvent> expected = {
      {1, near}, {3, near}, {4, middle}, {5, middle}, {0, far}, {2, far}};
  for (UserId user = 0; user < instance.num_users(); ++user) {
    std::vector<ScoredEvent> ranked;
    ASSERT_EQ(coordinator.TopKEvents(user, 10, &ranked), "");
    EXPECT_EQ(ranked, expected) << "user " << user;
  }
}

TEST(MergeScoredLists, HonorsKAndDropsDuplicateEvents) {
  const Instance instance = TiedInstance();
  Topology topology(3, instance);
  ShardCoordinator& coordinator = topology.coordinator();
  ASSERT_EQ(coordinator.ApplyInstance(instance), "");
  ASSERT_EQ(coordinator.RepairPass(), "");
  for (UserId user = 0; user < instance.num_users(); ++user) {
    SCOPED_TRACE("user " + std::to_string(user));
    std::vector<EventId> held;
    ASSERT_EQ(coordinator.GetAssignments(user, &held), "");
    // Each user holds one event after the pass, and the ranking skips it.
    ASSERT_EQ(held.size(), 1u);
    const std::vector<ScoredEvent> all = RankedEvents(instance, user, held);
    for (const int k : {0, 1, 2, 3, 5, 10}) {
      std::vector<ScoredEvent> ranked;
      ASSERT_EQ(coordinator.TopKEvents(user, k, &ranked), "");
      const size_t keep = std::min<size_t>(all.size(), k);
      EXPECT_EQ(ranked, std::vector<ScoredEvent>(all.begin(),
                                                 all.begin() + keep))
          << "k " << k;
      std::vector<EventId> events;
      for (const ScoredEvent& entry : ranked) events.push_back(entry.event);
      std::sort(events.begin(), events.end());
      EXPECT_EQ(std::adjacent_find(events.begin(), events.end()),
                events.end())
          << "k " << k;
    }
    std::vector<ScoredEvent> ranked;
    EXPECT_NE(coordinator.TopKEvents(user, -1, &ranked), "");
  }
}

TEST(MergeScoredLists, StableUnderListPermutation) {
  for (const uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance instance = SmallInstance(seed, /*events=*/8,
                                            /*users=*/30);
    std::vector<std::vector<std::vector<ScoredEvent>>> answers;
    for (const int shards : {2, 3, 4}) {
      Topology topology(shards, instance);
      ShardCoordinator& coordinator = topology.coordinator();
      ASSERT_EQ(coordinator.ApplyInstance(instance), "");
      ASSERT_EQ(coordinator.RepairPass(), "");
      std::vector<std::vector<ScoredEvent>> answer;
      for (UserId user = 0; user < instance.num_users(); ++user) {
        std::vector<EventId> held;
        ASSERT_EQ(coordinator.GetAssignments(user, &held), "");
        std::vector<ScoredEvent> ranked;
        ASSERT_EQ(coordinator.TopKEvents(user, 4, &ranked), "");
        std::vector<ScoredEvent> expected =
            RankedEvents(instance, user, held);
        expected.resize(std::min<size_t>(expected.size(), 4));
        EXPECT_EQ(ranked, expected)
            << "shards " << shards << " user " << user;
        answer.push_back(std::move(ranked));
      }
      answers.push_back(std::move(answer));
    }
    EXPECT_EQ(answers[0], answers[1]);
    EXPECT_EQ(answers[0], answers[2]);
  }
}

TEST(ShardCoordinator, RoutingIsDeterministicAcrossIncarnations) {
  const Instance instance = SmallInstance(/*seed=*/7, /*events=*/8,
                                          /*users=*/30);
  Topology first(3, instance);
  Topology second(3, instance);
  for (ShardCoordinator* coordinator :
       {&first.coordinator(), &second.coordinator()}) {
    ASSERT_EQ(coordinator->ApplyInstance(instance), "");
    ASSERT_EQ(coordinator->RepairPass(), "");
  }
  // Identical admission order, not merely identical pair sets — routing,
  // candidate collection, and the global sort are all deterministic.
  EXPECT_EQ(first.coordinator().arrangement(),
            second.coordinator().arrangement());
  EXPECT_EQ(first.coordinator().global_max_sum(),
            second.coordinator().global_max_sum());
}

TEST(ShardCoordinator, CrossShardConflictRejectionIsChargedToEdgeOwner) {
  // Two conflicting events, both wanted by user 0 (capacity 2): greedy
  // admits the better-scored event, then rejects the other on the
  // conflict edge. User 1 sits close to event 1, so the edge still
  // admits a different user — conflicts are per-user, not global.
  InstanceBuilder builder;
  const EventId a = builder.AddEvent({0.0, 0.0}, 1);
  const EventId b = builder.AddEvent({10.0, 10.0}, 2);
  const UserId contested = builder.AddUser({1.0, 1.0}, 2);
  const UserId other = builder.AddUser({9.0, 9.0}, 1);
  builder.AddConflict(a, b);
  const Instance instance = builder.Build();
  ASSERT_GT(instance.Similarity(a, contested),
            instance.Similarity(b, contested));

  int64_t charged = 0;
  for (const int shards : {2, 3, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Topology topology(shards, instance);
    ShardCoordinator& coordinator = topology.coordinator();
    ASSERT_EQ(coordinator.ApplyInstance(instance), "");
    ASSERT_EQ(coordinator.RepairPass(), "");

    Arrangement merged(instance.num_events(), instance.num_users());
    for (const auto& [event, user] : coordinator.arrangement()) {
      merged.Add(event, user);
    }
    const auto pairs = merged.SortedPairs();
    const std::vector<std::pair<EventId, UserId>> expected = {
        {a, contested}, {b, other}};
    EXPECT_EQ(pairs, expected);

    const svc::ShardTopologyStats stats = coordinator.Stats();
    EXPECT_EQ(stats.shard_count, shards);
    EXPECT_EQ(stats.repair_admitted, 2);
    // (a, other) dies on event a's capacity; (b, contested) survives the
    // capacity checks (b has a free slot) and dies on the conflict edge.
    EXPECT_EQ(stats.repair_rejected_capacity, 1);
    EXPECT_EQ(stats.repair_rejected_conflict, 1);
    // The (b, contested) rejection is charged to the edge's owner shard;
    // it counts as a cross-edge reject exactly when that owner differs
    // from the contested user's home shard.
    const int64_t expected_cross =
        EdgeOwnerShard(a, b, shards) != HomeShard(contested, shards) ? 1 : 0;
    EXPECT_EQ(stats.cross_edge_rejects, expected_cross);
    charged += stats.cross_edge_rejects;
  }
  // Some shard count must charge the rejection, or the loop would only
  // ever check zeros.
  EXPECT_GT(charged, 0);
}

TEST(ShardCoordinator, RepairPassRejectsMalformedCandidatesBeforeInstalling) {
  using Page = std::vector<ScoredCandidate>;
  const Instance instance = SmallInstance(/*seed=*/5, /*events=*/6,
                                          /*users=*/24);
  constexpr int kShards = 3;
  constexpr int kBadShard = kShards - 1;
  // Each case appends one bad edge to every page the last shard returns.
  auto append = [](EventId event, double similarity) {
    return [=](Page* page) {
      if (!page->empty()) page->push_back({page->front().user, event,
                                           similarity});
    };
  };
  const struct {
    const char* name;
    std::function<void(Page*)> corrupt;
  } cases[] = {
      {"event id INT32_MAX",
       append(std::numeric_limits<int32_t>::max(), 0.5)},
      {"event id == event slots", append(instance.num_events(), 0.5)},
      {"negative event id", append(-1, 0.5)},
      {"NaN similarity",
       append(0, std::numeric_limits<double>::quiet_NaN())},
      {"infinite similarity",
       append(0, std::numeric_limits<double>::infinity())},
      {"zero similarity", append(0, 0.0)},
      {"negative similarity", append(0, -0.5)},
      {"repeated pair",
       [](Page* page) {
         if (!page->empty()) page->push_back(page->front());
       }},
  };
  for (const auto& bad : cases) {
    SCOPED_TRACE(bad.name);
    Topology topology(kShards, instance);
    ShardCoordinator& coordinator = topology.coordinator();
    ASSERT_EQ(coordinator.ApplyInstance(instance), "");
    ASSERT_EQ(coordinator.RepairPass(), "");
    const auto previous = coordinator.arrangement();
    std::vector<int64_t> previous_pairs(kShards);
    for (int shard = 0; shard < kShards; ++shard) {
      svc::ServiceStatsView stats;
      ASSERT_EQ(topology.client(shard).GetStats(&stats), svc::RpcStatus::kOk);
      previous_pairs[shard] = stats.pairs;
    }
    ASSERT_GT(previous.size(), 0u);
    // More seats everywhere: a pass that installed anything would change
    // what the shards hold.
    for (EventId v = 0; v < instance.num_events(); ++v) {
      ASSERT_EQ(coordinator.Apply(Mutation::SetEventCapacity(
                    v, instance.event_capacity(v) + 10)),
                "");
    }

    topology.client(kBadShard).corrupt = bad.corrupt;
    const std::string error = coordinator.RepairPass();
    EXPECT_NE(error.find("shard " + std::to_string(kBadShard)),
              std::string::npos)
        << error;
    topology.client(kBadShard).corrupt = nullptr;

    EXPECT_EQ(coordinator.arrangement(), previous);
    for (int shard = 0; shard < kShards; ++shard) {
      svc::ServiceStatsView stats;
      ASSERT_EQ(topology.client(shard).GetStats(&stats), svc::RpcStatus::kOk);
      EXPECT_EQ(stats.pairs, previous_pairs[shard]) << "shard " << shard;
    }
    Arrangement merged(instance.num_events(), instance.num_users());
    for (const auto& [event, user] : previous) merged.Add(event, user);
    for (UserId user = 0; user < instance.num_users(); ++user) {
      std::vector<EventId> events;
      ASSERT_EQ(coordinator.GetAssignments(user, &events), "");
      std::vector<EventId> expected = merged.EventsOf(user);
      std::sort(events.begin(), events.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(events, expected) << "user " << user;
    }
    // The same pass over clean pages does change the arrangement.
    ASSERT_EQ(coordinator.RepairPass(), "");
    EXPECT_NE(coordinator.arrangement(), previous);
  }
}

// 100 events and ~1,200 users per shard: a page of 1,024 users with an
// edge to every event would be a ~1.6 MB reply, over the 1 MiB wire cap
// that the in-process transport enforces as a socket does. The
// coordinator must page by the event slot count, so no reply is refused
// and the pass still equals greedy-sortall bit for bit.
TEST(ShardCoordinator, CandidatePagesFitTheWireCap) {
  const Instance instance = SmallInstance(/*seed=*/7, /*events=*/100,
                                          /*users=*/2400);
  const SolveResult reference =
      CreateSolver("greedy-sortall")->Solve(instance);
  Topology topology(/*num_shards=*/2, instance);
  ShardCoordinator& coordinator = topology.coordinator();
  ASSERT_EQ(coordinator.ApplyInstance(instance), "");
  ASSERT_EQ(coordinator.RepairPass(), "");

  Arrangement merged(instance.num_events(), instance.num_users());
  double admission_order_sum = 0.0;
  for (const auto& [event, user] : coordinator.arrangement()) {
    merged.Add(event, user);
    admission_order_sum += instance.Similarity(event, user);
  }
  EXPECT_EQ(merged.SortedPairs(), reference.arrangement.SortedPairs());
  // Bit-identical: the coordinator admits in the single-node order.
  EXPECT_EQ(coordinator.global_max_sum(), admission_order_sum);
}

TEST(ShardCoordinator, ReadsMatchTheRepairedArrangement) {
  const Instance instance = SmallInstance(/*seed=*/11, /*events=*/6,
                                          /*users=*/20);
  Topology topology(3, instance);
  ShardCoordinator& coordinator = topology.coordinator();
  ASSERT_EQ(coordinator.ApplyInstance(instance), "");
  ASSERT_EQ(coordinator.RepairPass(), "");

  Arrangement merged(instance.num_events(), instance.num_users());
  std::vector<std::vector<UserId>> attendees(instance.num_events());
  for (const auto& [event, user] : coordinator.arrangement()) {
    merged.Add(event, user);
    attendees[event].push_back(user);
  }
  for (auto& users : attendees) std::sort(users.begin(), users.end());
  for (UserId user = 0; user < instance.num_users(); ++user) {
    std::vector<EventId> events;
    ASSERT_EQ(coordinator.GetAssignments(user, &events), "");
    EXPECT_EQ(events, merged.EventsOf(user)) << "user " << user;
  }
  for (EventId event = 0; event < instance.num_events(); ++event) {
    std::vector<UserId> users;
    ASSERT_EQ(coordinator.GetAttendees(event, &users), "");
    EXPECT_EQ(users, attendees[event]) << "event " << event;
  }
  // TopKEvents ranks by descending similarity with an event-id
  // tie-break, no duplicates, at most k entries.
  for (UserId user = 0; user < instance.num_users(); ++user) {
    std::vector<ScoredEvent> ranked;
    ASSERT_EQ(coordinator.TopKEvents(user, 4, &ranked), "");
    EXPECT_LE(ranked.size(), 4u);
    for (size_t i = 1; i < ranked.size(); ++i) {
      const bool ordered =
          ranked[i - 1].similarity > ranked[i].similarity ||
          (ranked[i - 1].similarity == ranked[i].similarity &&
           ranked[i - 1].event < ranked[i].event);
      EXPECT_TRUE(ordered) << "user " << user << " position " << i;
    }
  }
}

// Between passes an event's capacity cut must trim its global roster,
// not each shard's slice of it: cut an event whose roster spans shards to
// its largest per-shard slice, and the fleet must keep exactly that many
// attendees, the most similar ones (IncrementalArranger's rule: ties
// evict the larger id).
TEST(ShardCoordinator, CapacityCutBetweenPassesEvictsAcrossShards) {
  constexpr int kShards = 3;
  int cuts = 0;
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance instance = SmallInstance(seed, /*events=*/6,
                                            /*users=*/60);
    Topology topology(kShards, instance);
    ShardCoordinator& coordinator = topology.coordinator();
    ASSERT_EQ(coordinator.ApplyInstance(instance), "");
    ASSERT_EQ(coordinator.RepairPass(), "");

    std::vector<std::vector<UserId>> rosters(instance.num_events());
    for (const auto& [event, user] : coordinator.arrangement()) {
      rosters[event].push_back(user);
    }
    // The longest roster that no one shard holds whole.
    EventId cut = kInvalidEvent;
    int capacity = 0;
    for (EventId v = 0; v < instance.num_events(); ++v) {
      std::vector<int> slice(kShards, 0);
      for (const UserId user : rosters[v]) ++slice[HomeShard(user, kShards)];
      const int largest = *std::max_element(slice.begin(), slice.end());
      const int size = static_cast<int>(rosters[v].size());
      if (largest < size &&
          (cut < 0 || size > static_cast<int>(rosters[cut].size()))) {
        cut = v;
        capacity = largest;
      }
    }
    if (cut < 0) continue;
    ++cuts;
    std::vector<UserId> kept = rosters[cut];
    std::sort(kept.begin(), kept.end(), [&](UserId x, UserId y) {
      const double sx = instance.Similarity(cut, x);
      const double sy = instance.Similarity(cut, y);
      if (sx != sy) return sx > sy;
      return x < y;
    });
    kept.resize(capacity);
    std::sort(kept.begin(), kept.end());

    ASSERT_EQ(coordinator.Apply(Mutation::SetEventCapacity(cut, capacity)),
              "");
    ASSERT_EQ(coordinator.Barrier(), "");
    std::vector<UserId> attendees;
    ASSERT_EQ(coordinator.GetAttendees(cut, &attendees), "");
    EXPECT_EQ(attendees, kept) << "event " << cut << " cut to " << capacity;

    const std::string prefix = ::testing::TempDir() + "capacity_cut_" +
                               std::to_string(seed);
    ASSERT_EQ(coordinator.DumpMerged(prefix + ".instance",
                                     prefix + ".arrangement"),
              "");
    std::string error;
    const std::optional<Instance> dense =
        ReadInstanceFromFile(prefix + ".instance", &error);
    ASSERT_TRUE(dense.has_value()) << error;
    const std::optional<Arrangement> dumped =
        ReadArrangementFromFile(prefix + ".arrangement", *dense, &error);
    ASSERT_TRUE(dumped.has_value()) << error;
    const verify::AuditReport audit =
        verify::AuditArrangement(*dense, *dumped);
    EXPECT_TRUE(audit.ok()) << audit.Summary();
    std::remove((prefix + ".instance").c_str());
    std::remove((prefix + ".arrangement").c_str());
  }
  // Some seed must have a roster that spans shards, or the loop checked
  // nothing.
  EXPECT_GT(cuts, 0);
}

// A read issued while a repair pass is in flight must not wait for it:
// the pass is held inside its first candidate page until every read has
// answered.
TEST(ShardCoordinator, ReadsDoNotWaitForARepairPass) {
  constexpr auto kReadBound = std::chrono::seconds(5);
  const Instance instance = SmallInstance(/*seed=*/3, /*events=*/6,
                                          /*users=*/30);
  constexpr int kShards = 3;
  Topology topology(kShards, instance);
  ShardCoordinator& coordinator = topology.coordinator();
  ASSERT_EQ(coordinator.ApplyInstance(instance), "");
  ASSERT_EQ(coordinator.RepairPass(), "");

  std::promise<void> entered;
  std::once_flag entered_once;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  bool release_sent = false;
  const auto release_pass = [&] {
    if (!release_sent) release.set_value();
    release_sent = true;
  };
  for (int shard = 0; shard < kShards; ++shard) {
    topology.client(shard).corrupt = [&](std::vector<ScoredCandidate>*) {
      std::call_once(entered_once, [&] { entered.set_value(); });
      released.wait();
    };
  }
  std::future<std::string> pass = std::async(
      std::launch::async, [&coordinator] { return coordinator.RepairPass(); });
  entered.get_future().wait();

  for (const svc::MsgType type :
       {svc::MsgType::kGetAssignments, svc::MsgType::kGetAttendees,
        svc::MsgType::kTopK, svc::MsgType::kStats}) {
    svc::WireRequest request;
    request.type = type;
    request.id = 0;
    request.k = 3;
    std::future<svc::WireResponse> read =
        std::async(std::launch::async, [&coordinator, request] {
          return coordinator.Dispatch(request);
        });
    if (read.wait_for(kReadBound) != std::future_status::ready) {
      ADD_FAILURE() << svc::MsgTypeName(type)
                    << " waited for the repair pass";
      release_pass();
    }
    EXPECT_NE(read.get().type, svc::MsgType::kError)
        << svc::MsgTypeName(type);
    if (!release_sent) {
      EXPECT_EQ(pass.wait_for(std::chrono::seconds(0)),
                std::future_status::timeout)
          << "the pass finished before the reads were checked";
    }
  }
  release_pass();
  EXPECT_EQ(pass.get(), "");
  for (int shard = 0; shard < kShards; ++shard) {
    topology.client(shard).corrupt = nullptr;
  }
}

TEST(ShardCoordinator, ShardedRepairMatchesSingleNodeGreedySortAll) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const Instance instance = SmallInstance(seed, /*events=*/10,
                                            /*users=*/40);
    SolverOptions options;
    const SolveResult reference =
        CreateSolver("greedy-sortall", options)->Solve(instance);
    const auto reference_pairs = reference.arrangement.SortedPairs();

    for (const int num_shards : {2, 3}) {
      Topology topology(num_shards, instance);
      ShardCoordinator& coordinator = topology.coordinator();
      ASSERT_EQ(coordinator.ApplyInstance(instance), "");
      ASSERT_EQ(coordinator.RepairPass(), "");

      Arrangement merged(instance.num_events(), instance.num_users());
      double admission_order_sum = 0.0;
      for (const auto& [event, user] : coordinator.arrangement()) {
        merged.Add(event, user);
        admission_order_sum += instance.Similarity(event, user);
      }
      EXPECT_EQ(merged.SortedPairs(), reference_pairs)
          << "seed " << seed << " N=" << num_shards;
      // Bit-identical, not approximately equal: the coordinator admits in
      // the same order the single-node solver does.
      EXPECT_EQ(coordinator.global_max_sum(), admission_order_sum)
          << "seed " << seed << " N=" << num_shards;

      const verify::AuditReport audit =
          verify::AuditArrangement(instance, merged);
      EXPECT_TRUE(audit.ok())
          << "seed " << seed << " N=" << num_shards << "\n"
          << audit.Summary();
    }
  }
}

}  // namespace
}  // namespace geacc::shard
