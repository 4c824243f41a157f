// Crash-consistency tests for the paged checkpoint store (DESIGN.md §14):
// exact state round-trips, dirty-page write economy, and — the point —
// graceful degradation on torn pages, torn whole-state writes, and
// truncated files. Every corruption must surface as a soft Read failure
// (→ full WAL replay), never a wrong state.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/similarity.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "dyn/mutation.h"
#include "svc/paged_checkpoint.h"

namespace geacc::svc {
namespace {

std::string TempPath(const std::string& tag) {
  static int counter = 0;
  return testing::TempDir() + "/geacc_crash_test_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++) +
         ".ckpt";
}

class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A live writer state with tombstones, conflicts, and a non-empty
// arrangement — every field class the encoding must carry.
ServiceState MakeState(int users, int events, uint64_t seed) {
  DynamicInstance instance(2, MakeSimilarity("euclidean", 100.0));
  for (int v = 0; v < events; ++v) {
    instance.AddEvent({static_cast<double>((seed + v) % 17),
                       static_cast<double>((3 * v) % 11)},
                      1 + v % 3);
  }
  for (int u = 0; u < users; ++u) {
    instance.AddUser({static_cast<double>((seed + 2 * u) % 13),
                      static_cast<double>((5 * u) % 7)},
                     1 + u % 2);
  }
  if (events >= 3) instance.AddConflict(0, 2);
  if (events >= 2) instance.AddConflict(0, 1);

  IncrementalArranger arranger(&instance);
  arranger.FullResolve();
  // A tombstone, so SlotState must preserve inactive rows verbatim.
  if (users >= 2) arranger.Apply(Mutation::RemoveUser(1));

  ServiceState state;
  state.similarity_name = instance.similarity().Name();
  state.similarity_param = instance.similarity().Param();
  state.slot = instance.ExportSlotState();
  state.arranger = arranger.ExportState();
  return state;
}

void ExpectStatesEqual(const ServiceState& a, const ServiceState& b) {
  EXPECT_EQ(a.similarity_name, b.similarity_name);
  EXPECT_EQ(a.similarity_param, b.similarity_param);
  EXPECT_EQ(a.slot.dim, b.slot.dim);
  EXPECT_EQ(a.slot.epoch, b.slot.epoch);
  EXPECT_EQ(a.slot.event_capacities, b.slot.event_capacities);
  EXPECT_EQ(a.slot.user_capacities, b.slot.user_capacities);
  EXPECT_EQ(a.slot.event_active, b.slot.event_active);
  EXPECT_EQ(a.slot.user_active, b.slot.user_active);
  EXPECT_EQ(a.slot.conflicts, b.slot.conflicts);
  ASSERT_EQ(a.slot.event_attributes.rows(), b.slot.event_attributes.rows());
  for (int v = 0; v < a.slot.event_attributes.rows(); ++v) {
    for (int d = 0; d < a.slot.dim; ++d) {
      EXPECT_EQ(a.slot.event_attributes.At(v, d),
                b.slot.event_attributes.At(v, d));
    }
  }
  ASSERT_EQ(a.slot.user_attributes.rows(), b.slot.user_attributes.rows());
  for (int u = 0; u < a.slot.user_attributes.rows(); ++u) {
    for (int d = 0; d < a.slot.dim; ++d) {
      EXPECT_EQ(a.slot.user_attributes.At(u, d),
                b.slot.user_attributes.At(u, d));
    }
  }
  EXPECT_EQ(a.arranger.user_events, b.arranger.user_events);
  EXPECT_EQ(a.arranger.event_users, b.arranger.event_users);
  EXPECT_EQ(a.arranger.max_sum_bits, b.arranger.max_sum_bits);
  EXPECT_EQ(a.arranger.drift_bits, b.arranger.drift_bits);
}

TEST(ServiceStateEncoding, RoundTripsExactly) {
  const ServiceState state = MakeState(8, 5, 3);
  const std::string encoded = EncodeServiceState(state);
  ServiceState decoded;
  std::string error;
  ASSERT_TRUE(DecodeServiceState(encoded, &decoded, &error)) << error;
  ExpectStatesEqual(state, decoded);
  // Text round trip is a fixed point.
  EXPECT_EQ(EncodeServiceState(decoded), encoded);
}

TEST(ServiceStateEncoding, RoundTripsSubnormalAttributes) {
  // The encoder writes subnormals; a decoder that rejects them (strtod
  // reports ERANGE) makes the whole checkpoint unusable.
  ServiceState state = MakeState(4, 3, 5);
  state.slot.user_attributes.Set(0, 0, 1e-310);
  state.slot.user_attributes.Set(1, 1,
                                 -std::numeric_limits<double>::denorm_min());
  state.slot.event_attributes.Set(2, 0, std::nextafter(DBL_MIN, 0.0));
  const std::string encoded = EncodeServiceState(state);
  ServiceState decoded;
  std::string error;
  ASSERT_TRUE(DecodeServiceState(encoded, &decoded, &error)) << error;
  ExpectStatesEqual(state, decoded);
  EXPECT_EQ(EncodeServiceState(decoded), encoded);
}

TEST(ServiceStateEncoding, RejectsMalformedText) {
  const ServiceState state = MakeState(4, 3, 1);
  const std::string encoded = EncodeServiceState(state);
  ServiceState decoded;
  std::string error;
  EXPECT_FALSE(DecodeServiceState("", &decoded, &error));
  EXPECT_FALSE(DecodeServiceState("not a checkpoint", &decoded, &error));
  // Truncated mid-record.
  EXPECT_FALSE(DecodeServiceState(encoded.substr(0, encoded.size() / 2),
                                  &decoded, &error));
  // Missing the end marker.
  std::string no_end = encoded.substr(0, encoded.rfind("end"));
  EXPECT_FALSE(DecodeServiceState(no_end, &decoded, &error));
  // A dimension past INT32_MAX is rejected, not wrapped negative (which
  // aborts in AttributeMatrix).
  EXPECT_FALSE(DecodeServiceState(
      "geacc-svc-state v1\nsimilarity euclidean 1\ndim 4294967295\n"
      "epoch 0\nevent_slots 0\nuser_slots 0\nconflicts 0\narranger\n"
      "max_sum_bits 0000000000000000\ndrift_bits 0000000000000000\nend\n",
      &decoded, &error));
}

TEST(PagedCheckpointStore, WriteReadRoundTrip) {
  ScopedFile file(TempPath("roundtrip"));
  std::string error;
  auto store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;

  // An empty store reads back nothing (soft).
  ServiceState decoded;
  int64_t applied = -1;
  EXPECT_FALSE(store->Read(&decoded, &applied, &error));

  const ServiceState state = MakeState(10, 6, 7);
  PagedCheckpointStore::WriteStats stats;
  ASSERT_TRUE(store->Write(state, 25, &stats, &error)) << error;
  EXPECT_GT(stats.pages_total, 0);
  EXPECT_EQ(stats.pages_written, stats.pages_total);  // first write: all

  ASSERT_TRUE(store->Read(&decoded, &applied, &error)) << error;
  EXPECT_EQ(applied, 25);
  ExpectStatesEqual(state, decoded);

  // Reopen from disk and read again.
  store.reset();
  store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;
  ASSERT_TRUE(store->Read(&decoded, &applied, &error)) << error;
  EXPECT_EQ(applied, 25);
  ExpectStatesEqual(state, decoded);
}

TEST(PagedCheckpointStore, DirtyPageDiffingSkipsUnchangedPages) {
  ScopedFile file(TempPath("diff"));
  std::string error;
  auto store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;

  ServiceState state = MakeState(200, 30, 9);
  PagedCheckpointStore::WriteStats first;
  ASSERT_TRUE(store->Write(state, 1, &first, &error)) << error;
  ASSERT_GT(first.pages_total, 3) << "state too small to exercise diffing";

  // Identical state again: nothing should hit the disk.
  PagedCheckpointStore::WriteStats second;
  ASSERT_TRUE(store->Write(state, 1, &second, &error)) << error;
  EXPECT_EQ(second.pages_total, first.pages_total);
  EXPECT_EQ(second.pages_written, 0);

  // A small edit near the end (arranger bits) touches few pages.
  state.arranger.drift_bits ^= 0x1;
  PagedCheckpointStore::WriteStats third;
  ASSERT_TRUE(store->Write(state, 2, &third, &error)) << error;
  EXPECT_GT(third.pages_written, 0);
  EXPECT_LT(third.pages_written, third.pages_total / 2)
      << "a one-field edit rewrote most of the checkpoint";

  ServiceState decoded;
  int64_t applied = -1;
  ASSERT_TRUE(store->Read(&decoded, &applied, &error)) << error;
  EXPECT_EQ(applied, 2);
  ExpectStatesEqual(state, decoded);
}

TEST(PagedCheckpointStore, TornPageFailsSoft) {
  ScopedFile file(TempPath("torn_page"));
  std::string error;
  auto store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;
  const ServiceState state = MakeState(20, 8, 11);
  PagedCheckpointStore::WriteStats stats;
  ASSERT_TRUE(store->Write(state, 5, &stats, &error)) << error;
  ASSERT_GT(stats.pages_total, 1);
  store.reset();

  // Corrupt a byte in the middle of data page 1.
  {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(3 * 512 + 100);
    char byte;
    f.seekg(3 * 512 + 100);
    f.read(&byte, 1);
    byte = static_cast<char>(~byte);
    f.seekp(3 * 512 + 100);
    f.write(&byte, 1);
  }
  store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;  // open succeeds — superblock intact
  ServiceState decoded;
  int64_t applied = -1;
  EXPECT_FALSE(store->Read(&decoded, &applied, &error));
  EXPECT_FALSE(error.empty());
}

TEST(PagedCheckpointStore, FrankensteinStateFailsWholeStateChecksum) {
  // Simulate a crash mid-Write that left a mix of generations: write
  // state A, then state B, then splice one of A's pages back in with a
  // *valid page checksum* (the page itself is well-formed, the state is
  // not). Only the whole-state checksum can catch this.
  ScopedFile file(TempPath("franken"));
  std::string error;
  auto store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;
  const ServiceState state_a = MakeState(30, 10, 13);
  PagedCheckpointStore::WriteStats stats;
  ASSERT_TRUE(store->Write(state_a, 1, &stats, &error)) << error;
  ASSERT_GT(stats.pages_total, 2);

  // Capture page 0's on-disk bytes under state A.
  std::vector<char> page_a(512);
  {
    std::ifstream f(file.path(), std::ios::binary);
    f.seekg(2 * 512);
    f.read(page_a.data(), 512);
  }

  const ServiceState state_b = MakeState(30, 10, 14);  // different content
  ASSERT_TRUE(store->Write(state_b, 2, &stats, &error)) << error;
  store.reset();

  {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(2 * 512);
    f.write(page_a.data(), 512);
  }
  store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;
  ServiceState decoded;
  int64_t applied = -1;
  EXPECT_FALSE(store->Read(&decoded, &applied, &error));
  EXPECT_NE(error.find("torn"), std::string::npos) << error;
}

TEST(PagedCheckpointStore, TruncatedFileIsRecreatedOnOpen) {
  ScopedFile file(TempPath("trunc"));
  std::string error;
  auto store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;
  const ServiceState state = MakeState(10, 5, 17);
  PagedCheckpointStore::WriteStats stats;
  ASSERT_TRUE(store->Write(state, 3, &stats, &error)) << error;
  store.reset();

  // Truncate to one superblock's worth of bytes.
  {
    std::ofstream f(file.path(),
                    std::ios::binary | std::ios::in | std::ios::trunc);
  }
  store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;  // recreated, not fatal
  ServiceState decoded;
  int64_t applied = -1;
  EXPECT_FALSE(store->Read(&decoded, &applied, &error));  // and empty
  // The recreated store accepts new checkpoints.
  ASSERT_TRUE(store->Write(state, 4, &stats, &error)) << error;
  ASSERT_TRUE(store->Read(&decoded, &applied, &error)) << error;
  EXPECT_EQ(applied, 4);
}

TEST(PagedCheckpointStore, PageSizeChangeIsRecreatedOnOpen) {
  ScopedFile file(TempPath("resize"));
  std::string error;
  auto store = PagedCheckpointStore::Open(file.path(), 512, &error);
  ASSERT_NE(store, nullptr) << error;
  const ServiceState state = MakeState(6, 4, 19);
  PagedCheckpointStore::WriteStats stats;
  ASSERT_TRUE(store->Write(state, 8, &stats, &error)) << error;
  store.reset();

  // Same path, different page size: the old contents are unusable at this
  // size, so Open recreates rather than failing.
  store = PagedCheckpointStore::Open(file.path(), 1024, &error);
  ASSERT_NE(store, nullptr) << error;
  ServiceState decoded;
  int64_t applied = -1;
  EXPECT_FALSE(store->Read(&decoded, &applied, &error));
}

// Restoring an exported state into fresh objects continues bit-identically
// — the property service recovery is built on.
TEST(StateRestore, InstanceAndArrangerContinueBitIdentically) {
  DynamicInstance original(2, MakeSimilarity("euclidean", 100.0));
  for (int v = 0; v < 6; ++v) {
    original.AddEvent({v * 3.0, v * 1.5}, 2);
  }
  for (int u = 0; u < 15; ++u) {
    original.AddUser({u * 1.0, (u % 5) * 2.0}, 1 + u % 2);
  }
  original.AddConflict(1, 4);
  IncrementalArranger arranger(&original);
  arranger.FullResolve();
  arranger.Apply(Mutation::RemoveEvent(2));
  arranger.Apply(Mutation::AddUser({7.5, 3.25}, 2));

  // Snapshot, then rebuild from the snapshot.
  const auto slot = original.ExportSlotState();
  const auto arranger_state = arranger.ExportState();
  std::string error;
  auto restored_instance = DynamicInstance::FromSlotState(
      slot, MakeSimilarity("euclidean", 100.0), &error);
  ASSERT_TRUE(restored_instance.has_value()) << error;
  IncrementalArranger restored(&*restored_instance);
  ASSERT_EQ(restored.RestoreState(arranger_state), "");
  EXPECT_EQ(restored.max_sum(), arranger.max_sum());
  EXPECT_EQ(restored.arrangement().SortedPairs(),
            arranger.arrangement().SortedPairs());
  EXPECT_EQ(restored.Validate(), "");

  // Drive both with the same suffix — they must stay in lockstep.
  const std::vector<Mutation> suffix = {
      Mutation::AddConflict(0, 3),
      Mutation::SetUserCapacity(4, 2),
      Mutation::AddEvent({2.25, 9.0}, 3),
      Mutation::RemoveUser(7),
  };
  for (const Mutation& mutation : suffix) {
    arranger.Apply(mutation);
    restored.Apply(mutation);
    ASSERT_EQ(restored.arrangement().SortedPairs(),
              arranger.arrangement().SortedPairs())
        << mutation.DebugString();
    ASSERT_EQ(restored.max_sum(), arranger.max_sum());
    ASSERT_EQ(restored.drift(), arranger.drift());
  }
}

TEST(StateRestore, CorruptArrangerStateRollsBackToEmpty) {
  DynamicInstance instance(2, MakeSimilarity("euclidean", 100.0));
  instance.AddEvent({1.0, 2.0}, 2);
  instance.AddUser({1.5, 2.5}, 1);
  IncrementalArranger arranger(&instance);
  arranger.FullResolve();

  auto state = arranger.ExportState();
  ASSERT_FALSE(state.user_events.empty());
  state.user_events[0].push_back(99);  // out-of-range event
  IncrementalArranger victim(&instance);
  EXPECT_NE(victim.RestoreState(state), "");
  EXPECT_EQ(victim.arrangement().size(), 0);
}

}  // namespace
}  // namespace geacc::svc
