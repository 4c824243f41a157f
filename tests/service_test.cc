// The arrangement service's core contract (DESIGN.md §11): snapshot reads
// are consistent, batched concurrent writes land exactly the state a
// single-threaded IncrementalArranger replay of the WAL produces
// (bit-identical MaxSum and pair set), backpressure rejects instead of
// queueing unboundedly, and crash recovery replays to the same state —
// torn tail included.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "dyn/mutation.h"
#include "gen/synthetic.h"
#include "gen/trace_gen.h"
#include "svc/service.h"
#include "svc/snapshot.h"
#include "svc/wal.h"
#include "util/rng.h"

namespace geacc::svc {
namespace {

Instance SmallInstance(uint64_t seed = 3) {
  SyntheticConfig config;
  config.num_events = 12;
  config.num_users = 60;
  config.dim = 4;
  config.seed = seed;
  return GenerateSynthetic(config);
}

// Slot-space (user, event) pairs of a snapshot, in per-user list order —
// the same serialization FlatPairs gives an Arrangement.
std::vector<std::pair<UserId, EventId>> SnapshotPairs(
    const ServiceSnapshot& snapshot) {
  std::vector<std::pair<UserId, EventId>> pairs;
  for (UserId u = 0; u < snapshot.user_slots(); ++u) {
    for (const EventId v : snapshot.AssignmentsOf(u)) pairs.emplace_back(u, v);
  }
  return pairs;
}

std::vector<std::pair<UserId, EventId>> ArrangerPairs(
    const IncrementalArranger& arranger) {
  const Arrangement& arrangement = arranger.arrangement();
  std::vector<std::pair<UserId, EventId>> pairs;
  for (UserId u = 0; u < arrangement.num_users(); ++u) {
    for (const EventId v : arrangement.EventsOf(u)) pairs.emplace_back(u, v);
  }
  return pairs;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(ServiceSnapshot, ReadsMatchBootstrapArranger) {
  const Instance instance = SmallInstance();
  ArrangementService service(instance, {});

  // An identical engine run by hand is the oracle.
  DynamicInstance oracle_instance(instance);
  IncrementalArranger oracle(&oracle_instance, {});
  oracle.FullResolve();

  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot->epoch(), 0);
  EXPECT_EQ(snapshot->applied_seq(), 0);
  EXPECT_EQ(SnapshotPairs(*snapshot), ArrangerPairs(oracle));
  EXPECT_EQ(snapshot->max_sum(), oracle.max_sum());

  for (UserId u = 0; u < snapshot->user_slots(); ++u) {
    std::vector<EventId> events;
    ASSERT_EQ(service.GetAssignments(u, &events), SvcStatus::kOk);
    EXPECT_EQ(events, oracle.arrangement().EventsOf(u));
  }
  std::vector<UserId> users;
  EXPECT_EQ(service.GetAssignments(-1, &users), SvcStatus::kInvalidArgument);
  EXPECT_EQ(service.GetAttendees(instance.num_events(), &users),
            SvcStatus::kInvalidArgument);

  // Attendees mirror assignments within one snapshot.
  for (EventId v = 0; v < snapshot->event_slots(); ++v) {
    std::vector<UserId> attendees;
    ASSERT_EQ(service.GetAttendees(v, &attendees), SvcStatus::kOk);
    for (const UserId u : attendees) {
      const auto& events = snapshot->AssignmentsOf(u);
      EXPECT_NE(std::find(events.begin(), events.end(), v), events.end());
    }
  }

  const ServiceStatsView stats = service.Stats();
  EXPECT_EQ(stats.pairs, snapshot->num_pairs());
  EXPECT_EQ(stats.max_sum, snapshot->max_sum());
  EXPECT_EQ(stats.active_events, instance.num_events());
  EXPECT_EQ(stats.active_users, instance.num_users());
}

TEST(ServiceSnapshot, TopKRanksBySimilarityAndExcludesHeld) {
  const Instance instance = SmallInstance();
  ArrangementService service(instance, {});
  const auto snapshot = service.snapshot();

  for (UserId u = 0; u < snapshot->user_slots(); u += 7) {
    const std::vector<ScoredEvent> top = snapshot->TopKEvents(u, 5);
    ASSERT_LE(top.size(), 5u);
    const auto& held = snapshot->AssignmentsOf(u);
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_GT(top[i].similarity, 0.0);
      EXPECT_EQ(top[i].similarity, snapshot->Similarity(top[i].event, u));
      EXPECT_EQ(std::find(held.begin(), held.end(), top[i].event),
                held.end());
      if (i > 0) {
        EXPECT_TRUE(top[i - 1].similarity > top[i].similarity ||
                    (top[i - 1].similarity == top[i].similarity &&
                     top[i - 1].event < top[i].event));
      }
    }
  }
  EXPECT_TRUE(snapshot->TopKEvents(0, 0).empty());
}

TEST(ServiceSnapshot, TopKBatchIsThreadInvariant) {
  const Instance instance = SmallInstance();
  ArrangementService service(instance, {});
  const auto snapshot = service.snapshot();

  std::vector<UserId> users;
  for (UserId u = 0; u < snapshot->user_slots(); ++u) users.push_back(u);
  const auto baseline = snapshot->TopKEventsBatch(users, 4, 1);
  for (const int threads : {2, 8}) {
    EXPECT_EQ(snapshot->TopKEventsBatch(users, 4, threads), baseline)
        << "threads=" << threads;
  }
}

TEST(ArrangementService, ConcurrentWritesEqualSerialReplayOfWal) {
  const std::string wal_path = TempPath("svc_consistency.wal");

  TraceGenConfig trace_config;
  trace_config.initial_events = 12;
  trace_config.initial_users = 60;
  trace_config.dim = 4;
  trace_config.num_mutations = 400;
  trace_config.seed = 11;
  const MutationTrace trace = GenerateTrace(trace_config);

  ServiceOptions options;
  options.batch_size = 8;
  options.wal_path = wal_path;

  std::vector<std::pair<UserId, EventId>> service_pairs;
  double service_max_sum = 0.0;
  {
    ArrangementService service(trace.initial, options);

    // 4 submitter threads interleave arbitrarily; concurrent readers
    // verify every snapshot they see is internally consistent.
    std::atomic<bool> done{false};
    std::thread reader([&] {
      while (!done.load()) {
        const auto snapshot = service.snapshot();
        for (UserId u = 0; u < snapshot->user_slots(); u += 13) {
          for (const EventId v : snapshot->AssignmentsOf(u)) {
            const auto& attendees = snapshot->AttendeesOf(v);
            EXPECT_NE(
                std::find(attendees.begin(), attendees.end(), u),
                attendees.end())
                << "snapshot epoch " << snapshot->epoch()
                << " lost the reverse edge (" << v << ", " << u << ")";
          }
        }
      }
    });

    constexpr int kThreads = 4;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (size_t i = t; i < trace.mutations.size(); i += kThreads) {
          for (;;) {
            const SubmitResult result = service.Submit(trace.mutations[i]);
            if (result.status != SvcStatus::kOverloaded) break;
            std::this_thread::yield();
          }
        }
      });
    }
    for (std::thread& thread : submitters) thread.join();
    service.Flush();
    done.store(true);
    reader.join();

    const auto snapshot = service.snapshot();
    service_pairs = SnapshotPairs(*snapshot);
    service_max_sum = snapshot->max_sum();
    EXPECT_EQ(snapshot->applied_seq(),
              static_cast<int64_t>(trace.mutations.size()));
  }

  // Oracle: single-threaded replay of the WAL's applied order.
  std::string error;
  std::optional<WalContents> wal = ReadWal(wal_path, &error);
  ASSERT_TRUE(wal.has_value()) << error;
  EXPECT_EQ(wal->dropped_tail_lines, 0);
  DynamicInstance oracle_instance(wal->initial);
  IncrementalArranger oracle(&oracle_instance, {});
  oracle.FullResolve();
  for (const Mutation& mutation : wal->mutations) {
    ASSERT_EQ(ValidateMutation(oracle_instance, mutation), "");
    oracle.Apply(mutation);
  }
  EXPECT_EQ(service_pairs, ArrangerPairs(oracle));
  EXPECT_EQ(service_max_sum, oracle.max_sum());
  EXPECT_EQ(oracle.Validate(), "");
  std::remove(wal_path.c_str());
}

TEST(ArrangementService, OverloadRejectsInsteadOfQueueingUnboundedly) {
  ServiceOptions options;
  options.batch_size = 1;
  options.queue_depth = 2;
  options.writer_stall_ms_for_test = 30;
  ArrangementService service(SmallInstance(), options);

  int overloaded = 0;
  int accepted = 0;
  for (int i = 0; i < 64; ++i) {
    const SubmitResult result =
        service.Submit(Mutation::SetUserCapacity(i % 60, 2));
    if (result.status == SvcStatus::kOverloaded) {
      ++overloaded;
    } else {
      ASSERT_EQ(result.status, SvcStatus::kOk);
      ++accepted;
    }
  }
  EXPECT_GT(overloaded, 0) << "queue_depth=2 never pushed back";
  EXPECT_GT(accepted, 0);
  EXPECT_GE(service.Stats().overloads, overloaded);

  service.Flush();
  EXPECT_EQ(service.Stats().queued, 0);
  EXPECT_EQ(service.snapshot()->applied_seq(),
            static_cast<int64_t>(accepted));
}

TEST(ArrangementService, RejectedMutationsAreReportedAndNotApplied) {
  ArrangementService service(SmallInstance(), {});
  const auto before = service.snapshot();

  // Out-of-range ids, dead slots, bad arity, bad capacity — all garbage a
  // wire peer can send. None may abort or change state.
  const SubmitResult bad_id = service.Submit(Mutation::RemoveUser(9999));
  const SubmitResult bad_arity =
      service.Submit(Mutation::AddUser({1.0, 2.0}, 1));  // dim is 4
  const SubmitResult bad_capacity =
      service.Submit(Mutation::SetEventCapacity(0, 0));
  const SubmitResult self_conflict =
      service.Submit(Mutation::AddConflict(1, 1));
  ASSERT_EQ(bad_id.status, SvcStatus::kOk);
  EXPECT_EQ(service.WaitForTicket(bad_id.ticket), SvcStatus::kRejected);
  EXPECT_EQ(service.WaitForTicket(bad_arity.ticket), SvcStatus::kRejected);
  EXPECT_EQ(service.WaitForTicket(bad_capacity.ticket), SvcStatus::kRejected);
  EXPECT_EQ(service.WaitForTicket(self_conflict.ticket),
            SvcStatus::kRejected);
  EXPECT_EQ(service.WaitForTicket(0), SvcStatus::kInvalidArgument);
  EXPECT_EQ(service.WaitForTicket(999), SvcStatus::kInvalidArgument);

  // All four rejections published no instance change.
  const auto mid = service.snapshot();
  EXPECT_EQ(mid->epoch(), 0);
  EXPECT_EQ(SnapshotPairs(*mid), SnapshotPairs(*before));

  // A valid mutation after the garbage still applies (and may rearrange —
  // raising a capacity frees refill headroom).
  const SubmitResult good = service.Submit(Mutation::SetUserCapacity(0, 3));
  EXPECT_EQ(service.WaitForTicket(good.ticket), SvcStatus::kOk);
  const auto after = service.snapshot();
  EXPECT_EQ(after->epoch(), 1) << "only the valid mutation may apply";
  EXPECT_EQ(after->user_capacity(0), 3);
}

TEST(ArrangementService, SubmitAfterStopIsShuttingDown) {
  ArrangementService service(SmallInstance(), {});
  service.Stop();
  EXPECT_EQ(service.Submit(Mutation::SetUserCapacity(0, 2)).status,
            SvcStatus::kShuttingDown);
  // Reads still work against the final snapshot.
  std::vector<EventId> events;
  EXPECT_EQ(service.GetAssignments(0, &events), SvcStatus::kOk);
}

TEST(ArrangementService, RecoverReplaysWalToIdenticalState) {
  const std::string wal_path = TempPath("svc_recover.wal");
  const Instance instance = SmallInstance(17);
  ServiceOptions options;
  options.wal_path = wal_path;

  std::vector<std::pair<UserId, EventId>> pairs_before;
  double max_sum_before = 0.0;
  int64_t epoch_before = 0;
  {
    ArrangementService service(instance, options);
    Rng rng(5);
    for (int i = 0; i < 120; ++i) {
      const int pick = rng.UniformInt(0, 2);
      if (pick == 0) {
        service.Submit(Mutation::SetUserCapacity(rng.UniformInt(0, 59),
                                                 rng.UniformInt(1, 4)));
      } else if (pick == 1) {
        service.Submit(Mutation::SetEventCapacity(rng.UniformInt(0, 11),
                                                  rng.UniformInt(1, 50)));
      } else {
        service.Submit(Mutation::AddUser(
            {rng.UniformReal(0, 10000), rng.UniformReal(0, 10000),
             rng.UniformReal(0, 10000), rng.UniformReal(0, 10000)},
            rng.UniformInt(1, 4)));
      }
    }
    service.Flush();
    const auto snapshot = service.snapshot();
    pairs_before = SnapshotPairs(*snapshot);
    max_sum_before = snapshot->max_sum();
    epoch_before = snapshot->epoch();
  }  // destructor = clean stop; the file is what a crash would leave + sync

  std::string error;
  std::unique_ptr<ArrangementService> recovered =
      ArrangementService::Recover(options, &error);
  ASSERT_NE(recovered, nullptr) << error;
  const auto snapshot = recovered->snapshot();
  EXPECT_EQ(snapshot->epoch(), epoch_before);
  EXPECT_EQ(SnapshotPairs(*snapshot), pairs_before);
  EXPECT_EQ(snapshot->max_sum(), max_sum_before);

  // The recovered service keeps serving and logging.
  const SubmitResult post = recovered->Submit(Mutation::SetUserCapacity(1, 2));
  EXPECT_EQ(recovered->WaitForTicket(post.ticket), SvcStatus::kOk);
  recovered->Stop();
  std::remove(wal_path.c_str());
}

TEST(ArrangementService, RecoverDropsTornFinalLine) {
  const std::string wal_path = TempPath("svc_torn.wal");
  const Instance instance = SmallInstance(23);
  ServiceOptions options;
  options.wal_path = wal_path;

  std::vector<std::pair<UserId, EventId>> pairs_before;
  {
    ArrangementService service(instance, options);
    for (int i = 0; i < 20; ++i) {
      service.Submit(Mutation::SetUserCapacity(i, 1 + i % 4));
    }
    service.Flush();
    pairs_before = SnapshotPairs(*service.snapshot());
  }
  {
    // Crash signature: a half-written append with no trailing newline.
    std::ofstream torn(wal_path, std::ios::app);
    torn << "set_user_capacity 3";
  }

  std::string error;
  std::unique_ptr<ArrangementService> recovered =
      ArrangementService::Recover(options, &error);
  ASSERT_NE(recovered, nullptr) << error;
  EXPECT_EQ(SnapshotPairs(*recovered->snapshot()), pairs_before);

  // The torn fragment was compacted away: a second recovery (after new
  // appends) must parse cleanly.
  const SubmitResult post = recovered->Submit(Mutation::SetUserCapacity(2, 2));
  EXPECT_EQ(recovered->WaitForTicket(post.ticket), SvcStatus::kOk);
  recovered->Stop();
  recovered.reset();
  std::unique_ptr<ArrangementService> again =
      ArrangementService::Recover(options, &error);
  ASSERT_NE(again, nullptr) << error;
  EXPECT_EQ(again->snapshot()->user_capacity(2), 2);
  again->Stop();
  std::remove(wal_path.c_str());
}

TEST(ArrangementService, RecoverDropsTornFinalLineThatParses) {
  // `set_user_capacity 3 12` torn after its first digit still parses as
  // `set_user_capacity 3 1`. Nobody submitted that mutation: recovery must
  // drop it, and must not leave the fragment for the next append to fuse
  // onto.
  const std::string wal_path = TempPath("svc_torn_parses.wal");
  const Instance instance = SmallInstance(31);
  ServiceOptions options;
  options.wal_path = wal_path;

  std::vector<std::pair<UserId, EventId>> pairs_before;
  int capacity_before = 0;
  {
    ArrangementService service(instance, options);
    for (int i = 0; i < 20; ++i) {
      service.Submit(Mutation::SetUserCapacity(i, 1 + i % 4));
    }
    service.Flush();
    pairs_before = SnapshotPairs(*service.snapshot());
    capacity_before = service.snapshot()->user_capacity(3);
  }
  ASSERT_NE(capacity_before, 1);
  {
    std::ofstream torn(wal_path, std::ios::app);
    torn << "set_user_capacity 3 1";
  }

  std::string error;
  std::unique_ptr<ArrangementService> recovered =
      ArrangementService::Recover(options, &error);
  ASSERT_NE(recovered, nullptr) << error;
  EXPECT_EQ(SnapshotPairs(*recovered->snapshot()), pairs_before);
  EXPECT_EQ(recovered->snapshot()->user_capacity(3), capacity_before);

  // The next acknowledged mutation must survive another recovery.
  const SubmitResult post = recovered->Submit(Mutation::SetUserCapacity(2, 2));
  ASSERT_EQ(recovered->WaitForTicket(post.ticket), SvcStatus::kOk);
  recovered->Stop();
  recovered.reset();
  std::unique_ptr<ArrangementService> again =
      ArrangementService::Recover(options, &error);
  ASSERT_NE(again, nullptr) << error;
  EXPECT_EQ(again->snapshot()->user_capacity(2), 2);
  EXPECT_EQ(again->snapshot()->user_capacity(3), capacity_before);
  again->Stop();
  std::remove(wal_path.c_str());
}

// Runs Recover() in a process whose file writes fail past `limit` bytes
// (EFBIG, with SIGXFSZ ignored). Returns 0 when it succeeds.
int RecoverUnderFileSizeLimit(const ServiceOptions& options, rlim_t limit) {
  std::signal(SIGXFSZ, SIG_IGN);
  const rlimit fsize{limit, limit};
  if (setrlimit(RLIMIT_FSIZE, &fsize) != 0) return 2;
  std::string error;
  std::unique_ptr<ArrangementService> recovered =
      ArrangementService::Recover(options, &error);
  if (recovered == nullptr) {
    std::fprintf(stderr, "Recover failed: '%s'\n", error.c_str());
    return 1;
  }
  recovered->Stop();
  return 0;
}

TEST(ArrangementService, RecoverDropsTornFinalLineWithoutRewritingTheLog) {
  // Recovery must cut a torn tail off in place. A recovery that rewrites
  // the log and dies part way (here a child process whose writes fail past
  // half the valid prefix) leaves a log that no longer parses, and every
  // acknowledged mutation in it is gone.
  const std::string wal_path = TempPath("svc_torn_fsize.wal");
  const Instance instance = SmallInstance(23);
  ServiceOptions options;
  options.wal_path = wal_path;

  std::vector<std::pair<UserId, EventId>> pairs_before;
  {
    ArrangementService service(instance, options);
    for (int i = 0; i < 20; ++i) {
      service.Submit(Mutation::SetUserCapacity(i, 1 + i % 4));
    }
    service.Flush();
    pairs_before = SnapshotPairs(*service.snapshot());
  }
  const uintmax_t prefix_bytes = std::filesystem::file_size(wal_path);
  {
    std::ofstream torn(wal_path, std::ios::app);
    torn << "set_user_capacity 3";
  }

  const rlim_t limit = prefix_bytes / 2;
  EXPECT_EXIT(std::_Exit(RecoverUnderFileSizeLimit(options, limit)),
              ::testing::ExitedWithCode(0), "");

  EXPECT_EQ(std::filesystem::file_size(wal_path), prefix_bytes);
  std::string error;
  const std::optional<WalContents> wal = ReadWal(wal_path, &error);
  ASSERT_TRUE(wal.has_value()) << error;
  EXPECT_EQ(wal->mutations.size(), 20u);
  EXPECT_EQ(wal->dropped_tail_lines, 0);
  EXPECT_EQ(wal->valid_bytes, prefix_bytes);
  std::unique_ptr<ArrangementService> recovered =
      ArrangementService::Recover(options, &error);
  ASSERT_NE(recovered, nullptr) << error;
  EXPECT_EQ(SnapshotPairs(*recovered->snapshot()), pairs_before);
  recovered->Stop();
  std::remove(wal_path.c_str());
}

// Submits add_user {1e-310, 2, 3}, an attribute the service accepts as
// finite and the WAL writes as a subnormal, then (if `write_after`) one
// more write, and recovers from the WAL. The acknowledged user must come
// back with its exact attribute bits, and the log must keep every byte.
void ExpectSubnormalWriteSurvivesRecovery(const std::string& name,
                                          bool write_after) {
  SyntheticConfig config;
  config.num_events = 5;
  config.num_users = 20;
  config.dim = 3;
  config.seed = 9;
  ServiceOptions options;
  options.wal_path = TempPath(name);
  constexpr double kSubnormal = 1e-310;
  ASSERT_EQ(std::fpclassify(kSubnormal), FP_SUBNORMAL);

  std::vector<std::pair<UserId, EventId>> pairs_before;
  double max_sum_before = 0.0;
  {
    ArrangementService service(GenerateSynthetic(config), options);
    SubmitResult r =
        service.Submit(Mutation::AddUser({kSubnormal, 2.0, 3.0}, 2));
    ASSERT_EQ(service.WaitForTicket(r.ticket), SvcStatus::kOk);
    if (write_after) {
      r = service.Submit(Mutation::SetUserCapacity(0, 3));
      ASSERT_EQ(service.WaitForTicket(r.ticket), SvcStatus::kOk);
    }
    const auto snapshot = service.snapshot();
    ASSERT_EQ(snapshot->num_active_users(), 21);
    pairs_before = SnapshotPairs(*snapshot);
    max_sum_before = snapshot->max_sum();
  }
  const uintmax_t wal_bytes = std::filesystem::file_size(options.wal_path);

  std::string error;
  std::unique_ptr<ArrangementService> recovered =
      ArrangementService::Recover(options, &error);
  ASSERT_NE(recovered, nullptr) << error;
  const auto snapshot = recovered->snapshot();
  EXPECT_EQ(snapshot->num_active_users(), 21);
  EXPECT_EQ(SnapshotPairs(*snapshot), pairs_before);
  EXPECT_EQ(snapshot->max_sum(), max_sum_before);
  DynamicInstance::SnapshotMap map;
  const Instance dense = snapshot->ToDenseInstance(&map);
  ASSERT_EQ(map.dense_to_user.back(), 20);
  EXPECT_EQ(dense.user_attributes().At(dense.num_users() - 1, 0), kSubnormal);
  EXPECT_EQ(std::filesystem::file_size(options.wal_path), wal_bytes);
  recovered->Stop();
  std::remove(options.wal_path.c_str());
}

TEST(ArrangementService, RecoverKeepsASubnormalAttributeBeforeLaterWrites) {
  ExpectSubnormalWriteSurvivesRecovery("svc_subnormal_mid.wal",
                                       /*write_after=*/true);
}

TEST(ArrangementService, RecoverKeepsASubnormalAttributeInTheFinalWrite) {
  ExpectSubnormalWriteSurvivesRecovery("svc_subnormal_last.wal",
                                       /*write_after=*/false);
}

TEST(ArrangementService, CheckpointRoundTrips) {
  // The one checkpoint format is the paged one: the state written at
  // Stop() comes back through Recover() (checkpoint + empty WAL suffix)
  // with the same dense instance, pairs and MaxSum bits.
  ServiceOptions options;
  options.wal_path = TempPath("svc_checkpoint.wal");
  options.paged_checkpoint_path = TempPath("svc_checkpoint.ckpt");
  std::shared_ptr<const ServiceSnapshot> before;
  {
    ArrangementService service(SmallInstance(29), options);
    const SubmitResult r = service.Submit(Mutation::RemoveUser(5));
    ASSERT_EQ(service.WaitForTicket(r.ticket), SvcStatus::kOk);
    service.Stop();
    before = service.snapshot();
  }

  std::string error;
  std::unique_ptr<ArrangementService> recovered =
      ArrangementService::Recover(options, &error);
  ASSERT_NE(recovered, nullptr) << error;
  const auto after = recovered->snapshot();
  const Instance dense = after->ToDenseInstance();
  const Arrangement arrangement = after->ToDenseArrangement();
  EXPECT_EQ(dense.num_events(), before->num_active_events());
  EXPECT_EQ(dense.num_users(), before->num_active_users());
  EXPECT_EQ(arrangement.size(), before->num_pairs());
  EXPECT_EQ(arrangement.Validate(dense), "");
  EXPECT_EQ(after->max_sum(), before->max_sum());
  recovered->Stop();
  std::remove(options.wal_path.c_str());
  std::remove(options.paged_checkpoint_path.c_str());
}

TEST(ArrangementService, CandidatePageRunsToTheLastUserForAnyCount) {
  // first + count is computed in 64 bits: a count near INT32_MAX must
  // clamp to the last user, not overflow into an empty page.
  SyntheticConfig config;
  config.num_events = 3;
  config.num_users = 20;
  config.dim = 4;
  config.seed = 3;
  ArrangementService service(GenerateSynthetic(config), {});
  const auto snapshot = service.snapshot();
  std::vector<ScoredCandidate> want;
  for (UserId u = 5; u < 20; ++u) {
    for (EventId v = 0; v < 3; ++v) {
      const double sim = snapshot->Similarity(v, u);
      if (sim > 0.0) want.push_back({u, v, sim});
    }
  }
  ASSERT_FALSE(want.empty());
  for (const int count : {15, 16, 1000, std::numeric_limits<int>::max() - 5,
                          std::numeric_limits<int>::max()}) {
    std::vector<ScoredCandidate> page;
    ASSERT_EQ(service.Candidates(5, count, 1000, &page), SvcStatus::kOk);
    EXPECT_EQ(page, want) << "count " << count;
  }
  // Scoring stops one edge past max_edges.
  std::vector<ScoredCandidate> page;
  ASSERT_EQ(service.Candidates(5, 15, 2, &page), SvcStatus::kOk);
  EXPECT_EQ(page, std::vector<ScoredCandidate>(want.begin(), want.begin() + 3));
  EXPECT_EQ(service.Candidates(5, 15, -1, &page), SvcStatus::kInvalidArgument);
  service.Stop();
}

TEST(ServiceSnapshot, DenseViewMatchesTheSnapshot) {
  ArrangementService service(SmallInstance(29), {});
  const SubmitResult r = service.Submit(Mutation::RemoveUser(5));
  ASSERT_EQ(service.WaitForTicket(r.ticket), SvcStatus::kOk);

  const auto snapshot = service.snapshot();
  const Instance dense = snapshot->ToDenseInstance();
  const Arrangement arrangement = snapshot->ToDenseArrangement();
  EXPECT_EQ(dense.num_events(), snapshot->num_active_events());
  EXPECT_EQ(dense.num_users(), snapshot->num_active_users());
  EXPECT_EQ(arrangement.size(), snapshot->num_pairs());
  EXPECT_EQ(arrangement.Validate(dense), "");
  EXPECT_NEAR(arrangement.MaxSum(dense), snapshot->max_sum(), 1e-9);
}

TEST(WalReader, RejectsCorruptionThatIsNotATornTail) {
  const std::string wal_path = TempPath("svc_corrupt.wal");
  {
    ServiceOptions options;
    options.wal_path = wal_path;
    ArrangementService service(SmallInstance(), options);
    for (int i = 0; i < 5; ++i) {
      service.Submit(Mutation::SetUserCapacity(i, 2));
    }
    service.Flush();
  }
  // Corrupt a *middle* line: real damage, must be a hard error.
  std::ifstream in(wal_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), 3u);
  lines[lines.size() - 3] = "set_user_capacity banana 2";
  std::ofstream out(wal_path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
  out.close();

  std::string error;
  EXPECT_FALSE(ReadWal(wal_path, &error).has_value());
  EXPECT_NE(error.find("mutation line"), std::string::npos) << error;
  std::remove(wal_path.c_str());
}

TEST(WalReader, RejectsATornSentinel) {
  // The header region is written before any mutation is acknowledged. A
  // cut anywhere in it, down to the sentinel's newline, is a hard error:
  // the next append would otherwise fuse onto the sentinel.
  const std::string wal_path = TempPath("svc_torn_sentinel.wal");
  {
    ServiceOptions options;
    options.wal_path = wal_path;
    ArrangementService service(SmallInstance(), options);
  }
  std::filesystem::resize_file(wal_path,
                               std::filesystem::file_size(wal_path) - 1);

  std::string error;
  EXPECT_FALSE(ReadWal(wal_path, &error).has_value());
  EXPECT_NE(error.find("wal-mutations"), std::string::npos) << error;
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace geacc::svc
