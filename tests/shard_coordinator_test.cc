// Tests for the shard coordinator (shard/coordinator.h): deterministic
// read-merge tie-breaks, routing determinism across coordinator
// incarnations, cross-shard conflict admission/rejection accounting,
// rejection of malformed shard candidates, and the headline contract — a sharded repair pass is bit-identical to the
// single-node greedy-sortall solve of the same instance (DESIGN.md §16).

#include "shard/coordinator.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
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
#include "gen/synthetic.h"
#include "shard/partition.h"
#include "svc/client.h"
#include "svc/service.h"
#include "svc/wire.h"
#include "verify/audit.h"

namespace geacc::shard {
namespace {

using svc::ScoredCandidate;
using svc::ScoredEvent;

// An in-process shard client whose Candidates pages pass through
// `corrupt` when it is set, so tests can feed the coordinator malformed
// shard output.
class CorruptibleClient : public svc::InProcessClient {
 public:
  using svc::InProcessClient::InProcessClient;

  svc::RpcStatus Candidates(UserId first_user, int user_count,
                            std::vector<ScoredCandidate>* out) override {
    const svc::RpcStatus status =
        svc::InProcessClient::Candidates(first_user, user_count, out);
    if (status == svc::RpcStatus::kOk && corrupt) corrupt(out);
    return status;
  }

  std::function<void(std::vector<ScoredCandidate>*)> corrupt;
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

TEST(MergeScoredLists, OrdersBySimilarityThenEventId) {
  const std::vector<std::vector<ScoredEvent>> lists = {
      {{5, 0.9}, {3, 0.5}},
      {{2, 0.9}, {7, 0.1}},
  };
  const std::vector<ScoredEvent> merged =
      ShardCoordinator::MergeScoredLists(lists, 10);
  const std::vector<ScoredEvent> expected = {
      {2, 0.9}, {5, 0.9}, {3, 0.5}, {7, 0.1}};
  EXPECT_EQ(merged, expected);
}

TEST(MergeScoredLists, HonorsKAndDropsDuplicateEvents) {
  const std::vector<std::vector<ScoredEvent>> lists = {
      {{4, 0.8}, {1, 0.3}},
      {{4, 0.8}, {9, 0.6}, {1, 0.3}},
  };
  // Event 4 and event 1 each appear in both lists; the merge keeps one
  // entry per event.
  const std::vector<ScoredEvent> full =
      ShardCoordinator::MergeScoredLists(lists, 10);
  const std::vector<ScoredEvent> expected = {{4, 0.8}, {9, 0.6}, {1, 0.3}};
  EXPECT_EQ(full, expected);

  const std::vector<ScoredEvent> top2 =
      ShardCoordinator::MergeScoredLists(lists, 2);
  const std::vector<ScoredEvent> expected2 = {{4, 0.8}, {9, 0.6}};
  EXPECT_EQ(top2, expected2);

  EXPECT_TRUE(ShardCoordinator::MergeScoredLists({}, 5).empty());
  EXPECT_TRUE(ShardCoordinator::MergeScoredLists(lists, 0).empty());
}

TEST(MergeScoredLists, StableUnderListPermutation) {
  const std::vector<ScoredEvent> a = {{3, 0.7}, {0, 0.7}, {8, 0.2}};
  const std::vector<ScoredEvent> b = {{1, 0.7}, {5, 0.4}};
  const std::vector<ScoredEvent> forward =
      ShardCoordinator::MergeScoredLists({a, b}, 10);
  const std::vector<ScoredEvent> backward =
      ShardCoordinator::MergeScoredLists({b, a}, 10);
  EXPECT_EQ(forward, backward);
  // Ties at 0.7 break on event id ascending, regardless of source list.
  const std::vector<ScoredEvent> expected = {
      {0, 0.7}, {1, 0.7}, {3, 0.7}, {5, 0.4}, {8, 0.2}};
  EXPECT_EQ(forward, expected);
}

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
  // TopKEvents fans out and merges: descending similarity, event-id
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
