// The `geacc-bench v1` machine-readable run report.
//
// Every bench binary (fig3_* … fig6_*, motivation, replay_trace, micro_*)
// accepts `--json PATH` and writes one of these so CI can archive a perf
// baseline (BENCH_*.json) and future PRs can regress against it. The
// format is intentionally flat and append-friendly:
//
//   {
//     "schema": "geacc-bench",          // always this literal
//     "version": 1,
//     "bench": "fig6_pruning",          // binary name
//     "git_rev": "<hex>[-dirty]",       // build-time `git describe
//                                       //   --always --dirty --abbrev=40`,
//                                       //   or "unknown" outside git
//     "flags": { "reps": "3", ... },    // CLI flags as name → value
//     "points": [
//       {
//         "label": "|V|=200",           // sweep-point label (x-axis value)
//         "solver": "prune",
//         "wall_seconds": 0.0123,
//         "cpu_seconds": 0.0121,
//         "vm_hwm_bytes": 18264064,     // VmHWM at point completion
//         "max_sum": 41.7,              // objective (0 for micro benches)
//         "counters": { "prune.nodes_visited": 4821, ... },
//         "timers": { "mcf.flow_sweep": {"seconds": 0.01, "count": 3} },
//         "latency": {                      // optional: serving benches only
//           "p50_ms": 0.11, "p95_ms": 0.56, "p99_ms": 1.4, "samples": 250000
//         },
//         "storage": {                      // optional: paged-backend points
//           "budget_bytes": 8388608, "page_size": 4096,
//           "file_bytes": 33554432,
//           "hits": 91824, "faults": 8112, "evictions": 8100, "flushes": 0
//         },
//         "kernels": {                      // optional: SIMD-kernel points
//           "dispatch": "avx2",             // level the point actually ran
//           "block": 8,                     // simd::kBlockRows of the build
//           "batched_evals": 1048576,       // rows scored by blocked kernels
//           "scalar_evals": 0               // rows scored per-pair
//         },
//         "shards": {                       // optional: sharded-topology runs
//           "shard_count": 3, "fleet": 4,   // topology width, client procs
//           "qps": 18234.5,                 // end-to-end fleet throughput
//           "per_shard": [                  // coordinator-side RPC view
//             {"shard": 0, "requests": 4821,
//              "p50_ms": 0.05, "p95_ms": 0.21, "p99_ms": 0.6}, ...
//           ]
//         },
//         "slots": {                        // optional: slotted joint solves
//           "num_slots": 6,                 // S of the slotted instance
//           "scheduled_events": 20,         // events with an assigned slot
//           "slottings_considered": 81,     // search-space accounting
//           "leaf_solves": 12,              // per-slotting solver runs
//           "joint_max_sum": 41.7           // best joint objective
//         }
//       }, ...
//     ]
//   }
//
// Versioning contract: additive fields may appear within v1; removing or
// re-typing a field requires bumping `version`. Validate() checks the
// full v1 shape and is what `bench/validate_report` and CI run against
// fresh reports. See DESIGN.md §9 for the schema rationale.
//
// Thread-safety: plain value types; build the report on one thread.

#ifndef GEACC_OBS_BENCH_REPORT_H_
#define GEACC_OBS_BENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/stats.h"

namespace geacc::obs {

inline constexpr char kBenchReportSchema[] = "geacc-bench";
inline constexpr int kBenchReportVersion = 1;

// Per-request latency percentiles, attached by serving benches
// (bench/loadgen). Optional within v1 — absent means the point measured
// batch wall time only.
struct LatencySummary {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  int64_t samples = 0;
};

// Buffer-pool traffic for points that ran on the disk-backed index
// ("idistance-paged", src/storage/). Optional within v1 — absent means
// the point ran fully in memory. `file_bytes` is the page-file size at
// point completion; the remaining fields mirror storage::PoolStats.
struct StorageSummary {
  uint64_t budget_bytes = 0;
  uint64_t page_size = 0;
  uint64_t file_bytes = 0;
  int64_t hits = 0;
  int64_t faults = 0;
  int64_t evictions = 0;
  int64_t flushes = 0;
};

// SIMD-kernel activity for points exercising the batched similarity
// layer (DESIGN.md §15). Optional within v1 — absent means the point
// didn't separate kernel traffic. `dispatch` is the level the point ran
// ("avx2" / "scalar"), `block` the build's simd::kBlockRows; the eval
// counts mirror the simd.batched_evals / simd.scalar_evals counters.
struct KernelsSummary {
  std::string dispatch;
  int64_t block = 0;
  int64_t batched_evals = 0;
  int64_t scalar_evals = 0;
};

// Per-shard RPC latency as seen by the coordinator (DESIGN.md §16).
struct ShardLatency {
  int32_t shard = 0;
  int64_t requests = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

// Sharded-topology summary, attached by loadgen fleet runs against a
// geacc_coord front-end (DESIGN.md §16). Optional within v1 — absent
// means the point ran against a single-node service. `fleet` is the
// number of client processes whose latency samples were unioned into the
// point's end-to-end percentiles; `per_shard` is the coordinator's own
// shard-RPC view pulled over kShardStats.
struct ShardsSummary {
  int32_t shard_count = 0;
  int32_t fleet = 0;
  double qps = 0.0;
  std::vector<ShardLatency> per_shard;
};

// Slotted joint-solve summary, attached by bench/fig_slotted points
// (DESIGN.md §17). Optional within v1 — absent means the point solved a
// plain (un-slotted) instance. The search counters mirror
// slot::SlotSolveResult: `slottings_considered` includes pruned
// slottings, `leaf_solves` counts per-slotting solver runs.
struct SlotsSummary {
  int64_t num_slots = 0;
  int64_t scheduled_events = 0;
  int64_t slottings_considered = 0;
  int64_t leaf_solves = 0;
  double joint_max_sum = 0.0;
};

// One measured (sweep point × solver) cell.
struct BenchPoint {
  std::string label;
  std::string solver;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  int64_t vm_hwm_bytes = 0;
  double max_sum = 0.0;
  std::map<std::string, int64_t> counters;
  std::map<std::string, TimerStat> timers;
  // Serialized as a "latency" object only when has_latency is set.
  bool has_latency = false;
  LatencySummary latency;
  // Serialized as a "storage" object only when has_storage is set.
  bool has_storage = false;
  StorageSummary storage;
  // Serialized as a "kernels" object only when has_kernels is set.
  bool has_kernels = false;
  KernelsSummary kernels;
  // Serialized as a "shards" object only when has_shards is set.
  bool has_shards = false;
  ShardsSummary shards;
  // Serialized as a "slots" object only when has_slots is set.
  bool has_slots = false;
  SlotsSummary slots;
};

struct BenchReport {
  std::string bench;
  std::string git_rev;
  std::map<std::string, std::string> flags;
  std::vector<BenchPoint> points;

  JsonValue ToJson() const;

  // Parses a previously serialized report. Returns false (with a
  // diagnostic in *error if non-null) when `json` is not a valid v1
  // report; *this is left unspecified on failure.
  bool FromJson(const JsonValue& json, std::string* error = nullptr);

  // Serializes and writes the report to `path` (pretty-printed, trailing
  // newline). Returns false with *error set on I/O failure.
  bool WriteFile(const std::string& path, std::string* error = nullptr) const;
};

// Structural validation of a parsed document against the v1 schema:
// schema/version literals, required fields with correct types, and
// non-negative measurements. Returns false with the first violation
// described in *error (if non-null).
bool ValidateBenchReport(const JsonValue& json, std::string* error = nullptr);

// The revision of the tree the binary was built from, taken at build time
// (src/obs/git_rev.cmake): the commit hash, "<hash>-dirty" when tracked
// files had changed, "unknown" outside a git work tree. A non-empty
// GEACC_GIT_REV environment variable overrides it.
std::string GitRevision();

}  // namespace geacc::obs

#endif  // GEACC_OBS_BENCH_REPORT_H_
