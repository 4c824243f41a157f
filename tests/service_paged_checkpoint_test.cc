// Paged-checkpoint recovery (DESIGN.md §14): checkpoint + WAL-suffix
// replay must land on the exact state full WAL replay lands on — same
// pairs, bit-identical MaxSum — and keep doing so as the recovered
// service continues serving. A decoy WAL shows the checkpoint was read,
// with or without stats. Torn checkpoints degrade to full replay.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dyn/mutation.h"
#include "gen/synthetic.h"
#include "obs/stats.h"
#include "svc/service.h"
#include "svc/snapshot.h"
#include "util/rng.h"
#include "verify/oracle.h"

namespace geacc::svc {
namespace {

Instance SmallInstance(uint64_t seed = 3) {
  SyntheticConfig config;
  config.num_events = 10;
  config.num_users = 50;
  config.dim = 3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::pair<UserId, EventId>> SnapshotPairs(
    const ServiceSnapshot& snapshot) {
  std::vector<std::pair<UserId, EventId>> pairs;
  for (UserId u = 0; u < snapshot.user_slots(); ++u) {
    for (const EventId v : snapshot.AssignmentsOf(u)) pairs.emplace_back(u, v);
  }
  return pairs;
}

void DriveMutations(ArrangementService* service, int count, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        service->Submit(Mutation::SetUserCapacity(rng.UniformInt(0, 49),
                                                  rng.UniformInt(1, 4)));
        break;
      case 1:
        service->Submit(Mutation::SetEventCapacity(rng.UniformInt(0, 9),
                                                   rng.UniformInt(1, 40)));
        break;
      case 2:
        service->Submit(Mutation::AddUser(
            {rng.UniformReal(0, 10000), rng.UniformReal(0, 10000),
             rng.UniformReal(0, 10000)},
            rng.UniformInt(1, 3)));
        break;
      default:
        service->Submit(
            Mutation::AddConflict(rng.UniformInt(0, 9), rng.UniformInt(0, 9)));
        break;
    }
    // Small batches → many published batches → several checkpoints.
    if (i % 7 == 0) service->Flush();
  }
  service->Flush();
}

struct FinalState {
  std::vector<std::pair<UserId, EventId>> pairs;
  double max_sum = 0.0;
  int64_t epoch = 0;
};

FinalState StateOf(const ArrangementService& service) {
  const auto snapshot = service.snapshot();
  return {SnapshotPairs(*snapshot), snapshot->max_sum(), snapshot->epoch()};
}

ServiceOptions DurableOptions(const std::string& tag) {
  ServiceOptions options;
  options.wal_path = TempPath(tag + ".wal");
  options.paged_checkpoint_path = TempPath(tag + ".ckpt");
  options.checkpoint_interval_batches = 2;  // checkpoint often
  options.checkpoint_page_size = 512;
  options.batch_size = 8;
  return options;
}

void CleanUp(const ServiceOptions& options) {
  std::remove(options.wal_path.c_str());
  std::remove(options.paged_checkpoint_path.c_str());
}

TEST(PagedCheckpointRecovery, MatchesFullReplayBitForBit) {
  const ServiceOptions options = DurableOptions("svc_paged_recover");
  const Instance instance = SmallInstance(21);
  FinalState before;
  {
    ArrangementService service(instance, options);
    DriveMutations(&service, 150, 77);
    before = StateOf(service);
  }

  // Recovery reads the checkpoint, shown in every build (no stats
  // counter): a decoy WAL logs the same mutations over the instance under
  // a doubled similarity parameter, beside a copy of the checkpoint. A
  // full replay of the decoy lands elsewhere, so a recovery that ignored
  // the checkpoint would not reach `before`.
  std::string error;
  ServiceOptions decoy = options;
  decoy.wal_path = TempPath("svc_paged_recover_decoy.wal");
  decoy.paged_checkpoint_path = TempPath("svc_paged_recover_decoy.ckpt");
  ASSERT_EQ(verify::WriteDecoyWal(options.wal_path, decoy.wal_path), "");
  std::filesystem::copy_file(
      options.paged_checkpoint_path, decoy.paged_checkpoint_path,
      std::filesystem::copy_options::overwrite_existing);
  {
    ServiceOptions decoy_replay = decoy;
    decoy_replay.paged_checkpoint_path.clear();
    auto replayed = ArrangementService::Recover(decoy_replay, &error);
    ASSERT_NE(replayed, nullptr) << error;
    ASSERT_NE(StateOf(*replayed).max_sum, before.max_sum)
        << "a full replay of the decoy WAL reaches the same MaxSum, so it "
           "cannot show which path recovery took";
    auto recovered = ArrangementService::Recover(decoy, &error);
    ASSERT_NE(recovered, nullptr) << error;
    const FinalState decoy_state = StateOf(*recovered);
    EXPECT_EQ(decoy_state.pairs, before.pairs)
        << "recovery replayed the WAL prefix its checkpoint covers";
    EXPECT_EQ(decoy_state.max_sum, before.max_sum);
    EXPECT_EQ(decoy_state.epoch, before.epoch);
  }
  CleanUp(decoy);

  // Fast path: checkpoint + suffix.
#if !defined(GEACC_NO_STATS)
  const int64_t recoveries_before =
      obs::StatsRegistry::Global().CounterValue("svc.ckpt.recoveries");
#endif
  auto fast = ArrangementService::Recover(options, &error);
  ASSERT_NE(fast, nullptr) << error;
#if !defined(GEACC_NO_STATS)
  EXPECT_EQ(obs::StatsRegistry::Global().CounterValue("svc.ckpt.recoveries"),
            recoveries_before + 1)
      << "recovery did not take the checkpoint fast path";
#endif
  const FinalState fast_state = StateOf(*fast);
  EXPECT_EQ(fast_state.pairs, before.pairs);
  EXPECT_EQ(fast_state.max_sum, before.max_sum);
  EXPECT_EQ(fast_state.epoch, before.epoch);

  // Full replay (checkpoint disabled) must agree bit for bit.
  ServiceOptions replay_options = options;
  replay_options.paged_checkpoint_path.clear();
  auto slow = ArrangementService::Recover(replay_options, &error);
  ASSERT_NE(slow, nullptr) << error;
  const FinalState slow_state = StateOf(*slow);
  EXPECT_EQ(slow_state.pairs, fast_state.pairs);
  EXPECT_EQ(slow_state.max_sum, fast_state.max_sum);
  EXPECT_EQ(slow_state.epoch, fast_state.epoch);

  // Both recovered services keep applying identically.
  slow->Stop();
  DriveMutations(fast.get(), 40, 99);
  const FinalState continued = StateOf(*fast);
  fast->Stop();
  auto third = ArrangementService::Recover(options, &error);
  ASSERT_NE(third, nullptr) << error;
  const FinalState third_state = StateOf(*third);
  EXPECT_EQ(third_state.pairs, continued.pairs);
  EXPECT_EQ(third_state.max_sum, continued.max_sum);
  third->Stop();
  CleanUp(options);
}

TEST(PagedCheckpointRecovery, TornCheckpointFallsBackToFullReplay) {
  const ServiceOptions options = DurableOptions("svc_paged_torn");
  const Instance instance = SmallInstance(22);
  FinalState before;
  {
    ArrangementService service(instance, options);
    DriveMutations(&service, 80, 11);
    before = StateOf(service);
  }

  // Corrupt the checkpoint's data pages wholesale.
  {
    std::fstream f(options.paged_checkpoint_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(2 * 512 + 40);
    for (int i = 0; i < 64; ++i) f.put('\xDE');
  }

  std::string error;
  auto recovered = ArrangementService::Recover(options, &error);
  ASSERT_NE(recovered, nullptr) << error;  // degraded, not dead
  const FinalState state = StateOf(*recovered);
  EXPECT_EQ(state.pairs, before.pairs);
  EXPECT_EQ(state.max_sum, before.max_sum);
  EXPECT_EQ(state.epoch, before.epoch);
  recovered->Stop();
  CleanUp(options);
}

TEST(PagedCheckpointRecovery, MissingCheckpointFileFallsBackToFullReplay) {
  const ServiceOptions options = DurableOptions("svc_paged_missing");
  const Instance instance = SmallInstance(23);
  FinalState before;
  {
    ArrangementService service(instance, options);
    DriveMutations(&service, 60, 13);
    before = StateOf(service);
  }
  std::remove(options.paged_checkpoint_path.c_str());

  std::string error;
  auto recovered = ArrangementService::Recover(options, &error);
  ASSERT_NE(recovered, nullptr) << error;
  const FinalState state = StateOf(*recovered);
  EXPECT_EQ(state.pairs, before.pairs);
  EXPECT_EQ(state.max_sum, before.max_sum);
  recovered->Stop();
  CleanUp(options);
}

TEST(PagedCheckpointRecovery, SuffixOnlyReplayAfterStopCheckpoint) {
  // Stop() writes a final checkpoint covering every WAL mutation, so the
  // next recovery replays an empty suffix — applied_seq equals the WAL
  // mutation count exactly.
  const ServiceOptions options = DurableOptions("svc_paged_suffix");
  const Instance instance = SmallInstance(24);
  {
    ArrangementService service(instance, options);
    DriveMutations(&service, 50, 15);
  }

  std::string error;
  auto store = PagedCheckpointStore::Open(options.paged_checkpoint_path, 512,
                                          &error);
  ASSERT_NE(store, nullptr) << error;
  ServiceState state;
  int64_t applied = -1;
  ASSERT_TRUE(store->Read(&state, &applied, &error)) << error;
  std::optional<WalContents> wal = ReadWal(options.wal_path, &error);
  ASSERT_TRUE(wal.has_value()) << error;
  EXPECT_EQ(applied, static_cast<int64_t>(wal->mutations.size()));
  CleanUp(options);
}

}  // namespace
}  // namespace geacc::svc
