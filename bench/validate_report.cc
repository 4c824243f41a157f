// Validates a `geacc-bench v1` report produced by any bench's --json flag.
// Exit 0 iff the file parses and matches the schema; used by CI to smoke-
// test the report pipeline.
//
//   build/bench/validate_report [--require-storage] [--require-kernels]
//                               [--require-shards] [--require-slots] out.json
//
// --require-storage additionally demands at least one point carrying a
// "storage" section with sane buffer-pool numbers (budget and page size
// non-zero, page size a power of two) — CI runs micro_storage under this
// flag so a silently dropped section fails the job.
//
// --require-kernels likewise demands at least one point carrying a
// "kernels" section with sane numbers (a known dispatch level, the
// build's block size, and at least one batched or scalar eval) — CI runs
// micro_similarity under this flag.
//
// --require-shards demands at least one point carrying a "shards" section
// with sane topology numbers (positive shard count and fleet width, one
// per_shard entry per shard with monotone percentiles) — CI runs the
// loadgen fleet smoke under this flag.
//
// --require-slots demands at least one point carrying a "slots" section
// with sane joint-solve numbers (positive slot count, scheduled events
// and leaf solves consistent with the search accounting) — CI runs
// fig_slotted under this flag.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/bench_report.h"
#include "obs/json.h"

namespace {

bool StorageSane(const geacc::obs::StorageSummary& storage,
                 std::string* error) {
  if (storage.budget_bytes == 0) {
    *error = "storage.budget_bytes is zero";
    return false;
  }
  if (storage.page_size == 0 ||
      (storage.page_size & (storage.page_size - 1)) != 0) {
    *error = "storage.page_size is not a power of two";
    return false;
  }
  if (storage.file_bytes != 0 && storage.file_bytes < storage.page_size) {
    *error = "storage.file_bytes smaller than one page";
    return false;
  }
  return true;
}

bool KernelsSane(const geacc::obs::KernelsSummary& kernels,
                 std::string* error) {
  if (kernels.dispatch != "scalar" && kernels.dispatch != "avx2") {
    *error = "kernels.dispatch is not a known level";
    return false;
  }
  if (kernels.block <= 0) {
    *error = "kernels.block is not positive";
    return false;
  }
  if (kernels.batched_evals == 0 && kernels.scalar_evals == 0) {
    *error = "kernels section with zero evals of either kind";
    return false;
  }
  return true;
}

bool ShardsSane(const geacc::obs::ShardsSummary& shards, std::string* error) {
  if (shards.shard_count <= 0) {
    *error = "shards.shard_count is not positive";
    return false;
  }
  if (shards.fleet <= 0) {
    *error = "shards.fleet is not positive";
    return false;
  }
  if (shards.per_shard.size() != static_cast<size_t>(shards.shard_count)) {
    *error = "shards.per_shard size disagrees with shard_count";
    return false;
  }
  int64_t total_rpcs = 0;
  for (const geacc::obs::ShardLatency& shard : shards.per_shard) {
    if (shard.shard < 0 || shard.shard >= shards.shard_count) {
      *error = "shards.per_shard entry with out-of-range shard id";
      return false;
    }
    if (shard.p50_ms > shard.p95_ms || shard.p95_ms > shard.p99_ms) {
      *error = "shards.per_shard entry with non-monotone percentiles";
      return false;
    }
    total_rpcs += shard.requests;
  }
  if (total_rpcs == 0) {
    *error = "shards section with zero shard RPCs";
    return false;
  }
  return true;
}

bool SlotsSane(const geacc::obs::SlotsSummary& slots, std::string* error) {
  if (slots.num_slots <= 0) {
    *error = "slots.num_slots is not positive";
    return false;
  }
  if (slots.scheduled_events < 0) {
    *error = "slots.scheduled_events is negative";
    return false;
  }
  if (slots.slottings_considered <= 0) {
    *error = "slots.slottings_considered is not positive";
    return false;
  }
  if (slots.leaf_solves > slots.slottings_considered) {
    *error = "slots.leaf_solves exceeds slottings_considered";
    return false;
  }
  if (slots.joint_max_sum < 0.0) {
    *error = "slots.joint_max_sum is negative";
    return false;
  }
  return true;
}

// Bound-layer counters (algo/bounds.h) carried in the free-form counter
// map: clique cuts are a subset of the prunes they are credited against,
// so each must stay within its enclosing search counter when both appear.
bool BoundCountersSane(const geacc::obs::BenchPoint& point,
                       std::string* error) {
  const auto counter = [&](const char* name, int64_t* out) {
    const auto it = point.counters.find(name);
    if (it == point.counters.end()) return false;
    *out = it->second;
    return true;
  };
  int64_t cuts = 0;
  if (counter("prune.bound.clique_cuts", &cuts)) {
    if (cuts < 0) {
      *error = "prune.bound.clique_cuts is negative";
      return false;
    }
    int64_t pruned = 0;
    if (counter("prune.nodes_pruned", &pruned) && cuts > pruned) {
      *error = "prune.bound.clique_cuts exceeds prune.nodes_pruned";
      return false;
    }
  }
  if (counter("slot.bound.clique_cuts", &cuts)) {
    if (cuts < 0) {
      *error = "slot.bound.clique_cuts is negative";
      return false;
    }
    int64_t considered = 0;
    if (counter("slot.slottings_considered", &considered) &&
        cuts > considered) {
      *error = "slot.bound.clique_cuts exceeds slot.slottings_considered";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool require_storage = false;
  bool require_kernels = false;
  bool require_shards = false;
  bool require_slots = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-storage") == 0) {
      require_storage = true;
    } else if (std::strcmp(argv[i], "--require-kernels") == 0) {
      require_kernels = true;
    } else if (std::strcmp(argv[i], "--require-shards") == 0) {
      require_shards = true;
    } else if (std::strcmp(argv[i], "--require-slots") == 0) {
      require_slots = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s [--require-storage] [--require-kernels] "
                 "[--require-shards] [--require-slots] REPORT.json\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  geacc::obs::JsonValue json;
  std::string error;
  if (!geacc::obs::JsonValue::Parse(buffer.str(), &json, &error)) {
    std::fprintf(stderr, "%s: JSON parse error: %s\n", path, error.c_str());
    return 1;
  }
  if (!geacc::obs::ValidateBenchReport(json, &error)) {
    std::fprintf(stderr, "%s: schema violation: %s\n", path, error.c_str());
    return 1;
  }

  geacc::obs::BenchReport report;
  if (!report.FromJson(json, &error)) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    return 1;
  }

  size_t storage_points = 0;
  size_t kernel_points = 0;
  size_t shard_points = 0;
  size_t slot_points = 0;
  for (const geacc::obs::BenchPoint& point : report.points) {
    if (!BoundCountersSane(point, &error)) {
      std::fprintf(stderr, "%s: point '%s': %s\n", path, point.label.c_str(),
                   error.c_str());
      return 1;
    }
    if (point.has_storage) {
      ++storage_points;
      if (!StorageSane(point.storage, &error)) {
        std::fprintf(stderr, "%s: point '%s': %s\n", path, point.label.c_str(),
                     error.c_str());
        return 1;
      }
      std::printf(
          "  storage[%s]: budget=%llu page=%llu file=%llu hits=%lld "
          "faults=%lld evictions=%lld flushes=%lld\n",
          point.label.c_str(),
          static_cast<unsigned long long>(point.storage.budget_bytes),
          static_cast<unsigned long long>(point.storage.page_size),
          static_cast<unsigned long long>(point.storage.file_bytes),
          static_cast<long long>(point.storage.hits),
          static_cast<long long>(point.storage.faults),
          static_cast<long long>(point.storage.evictions),
          static_cast<long long>(point.storage.flushes));
    }
    if (point.has_kernels) {
      ++kernel_points;
      if (!KernelsSane(point.kernels, &error)) {
        std::fprintf(stderr, "%s: point '%s': %s\n", path, point.label.c_str(),
                     error.c_str());
        return 1;
      }
      std::printf(
          "  kernels[%s]: dispatch=%s block=%lld batched=%lld scalar=%lld\n",
          point.label.c_str(), point.kernels.dispatch.c_str(),
          static_cast<long long>(point.kernels.block),
          static_cast<long long>(point.kernels.batched_evals),
          static_cast<long long>(point.kernels.scalar_evals));
    }
    if (point.has_shards) {
      ++shard_points;
      if (!ShardsSane(point.shards, &error)) {
        std::fprintf(stderr, "%s: point '%s': %s\n", path, point.label.c_str(),
                     error.c_str());
        return 1;
      }
      std::printf("  shards[%s]: shard_count=%d fleet=%d qps=%.0f\n",
                  point.label.c_str(), point.shards.shard_count,
                  point.shards.fleet, point.shards.qps);
      for (const geacc::obs::ShardLatency& shard : point.shards.per_shard) {
        std::printf("    shard %d: %lld rpcs, p50=%.3fms p95=%.3fms "
                    "p99=%.3fms\n",
                    shard.shard, static_cast<long long>(shard.requests),
                    shard.p50_ms, shard.p95_ms, shard.p99_ms);
      }
    }
    if (point.has_slots) {
      ++slot_points;
      if (!SlotsSane(point.slots, &error)) {
        std::fprintf(stderr, "%s: point '%s': %s\n", path, point.label.c_str(),
                     error.c_str());
        return 1;
      }
      std::printf(
          "  slots[%s]: num_slots=%lld scheduled=%lld considered=%lld "
          "leaves=%lld joint_max_sum=%.6g\n",
          point.label.c_str(), static_cast<long long>(point.slots.num_slots),
          static_cast<long long>(point.slots.scheduled_events),
          static_cast<long long>(point.slots.slottings_considered),
          static_cast<long long>(point.slots.leaf_solves),
          point.slots.joint_max_sum);
    }
  }
  if (require_storage && storage_points == 0) {
    std::fprintf(stderr, "%s: --require-storage: no point carries a storage "
                 "section\n", path);
    return 1;
  }
  if (require_kernels && kernel_points == 0) {
    std::fprintf(stderr, "%s: --require-kernels: no point carries a kernels "
                 "section\n", path);
    return 1;
  }
  if (require_shards && shard_points == 0) {
    std::fprintf(stderr, "%s: --require-shards: no point carries a shards "
                 "section\n", path);
    return 1;
  }
  if (require_slots && slot_points == 0) {
    std::fprintf(stderr, "%s: --require-slots: no point carries a slots "
                 "section\n", path);
    return 1;
  }

  std::printf("%s: valid geacc-bench v%d report — bench '%s', rev %s, %zu "
              "point(s), %zu with storage, %zu with kernels, %zu with "
              "shards, %zu with slots\n",
              path, geacc::obs::kBenchReportVersion, report.bench.c_str(),
              report.git_rev.c_str(), report.points.size(), storage_points,
              kernel_points, shard_points, slot_points);
  return 0;
}
