// Shared pieces of the perfbench workloads: the metric table a run
// reports, in-memory spans for the traced run, latency summaries, the
// correctness gates, and the host context every result carries.

#ifndef GEACC_PERFBENCH_HARNESS_H_
#define GEACC_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/arrangement.h"
#include "core/instance.h"
#include "obs/json.h"
#include "obs/stats.h"

namespace geacc::perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Metric name → value. std::map keeps the printed order stable.
using Metrics = std::map<std::string, Metric>;

// What one workload run hands back to main().
struct RunResult {
  Metrics end_to_end;        // the gated, user-visible metrics
  Metrics workload_metrics;  // user-visible metrics of this workload only
  Metrics per_layer;         // filled only by a traced run
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  // failed correctness checks
  obs::JsonValue provenance = obs::JsonValue::Object();
  // Per-op and per-set-up values behind the summaries, for the report.
  std::map<std::string, std::vector<double>> samples;
};

struct RunConfig {
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  // Scratch directory inside the checkout (WAL, checkpoints).
  std::string work_dir;
  // Where a traced run writes its spans ("" = keep them in memory only).
  std::string trace_path;
};

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One timed call into a layer. Spans of one op share `op`; `parent` is
// the index of the enclosing span in the same Tracer (-1 for roots).
struct Span {
  const char* name = "";
  int64_t op = 0;
  int parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

// Span recorder for one thread. Disabled tracers record nothing, so the
// untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name, int64_t op, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, op, parent, Clock::now(), Clock::time_point()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) {
    if (index >= 0) spans_[index].end = Clock::now();
  }

  // Appends `other`'s spans, keeping their parent links.
  void Absorb(const Tracer& other);

  // Durations in ms of every closed span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Writes every span as one JSON document (times relative to `origin`).
  bool WriteJson(const std::string& path, Clock::time_point origin) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int64_t op, int parent = -1)
      : tracer_(tracer), index_(tracer.Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Nearest-rank percentile (p in [0, 100]) of `values`; reorders them.
// 0 when empty.
template <typename T>
double Percentile(std::vector<T>& values, double p) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n))), 1,
      n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return static_cast<double>(values[rank - 1]);
}

// Middle value (mean of the two middle values for an even count).
double Median(std::vector<double> values);

// The q-quantile (0 < q < 1) of `values` by linear interpolation between
// order statistics at rank q·(n + 1), clamped to the extremes: Python's
// statistics.quantiles default ("exclusive") method. 0 when empty.
double Quantile(std::vector<double> values, double q);

double ProcessCpuSeconds();
double PeakRssMb();

// min(Σ_v top-c_v positive sim, Σ_u top-c_u positive sim): each sum drops
// one side's capacities and every conflict, so each bounds the MaxSum of
// any feasible arrangement from above.
double MaxSumUpperBound(const Instance& instance);

// "" when `arrangement` passes verify::AuditArrangement (plus the
// maximality check when asked) and its MaxSum does not exceed
// `upper_bound` (MaxSumUpperBound of `instance`); otherwise a one-line
// description of what failed.
std::string AuditGate(const Instance& instance, const Arrangement& arrangement,
                      bool check_maximality, double upper_bound);

// Counter and timer deltas of the program's obs registry.
struct RegistryDelta {
  obs::StatsSnapshot delta;

  int64_t Count(const std::string& name) const;
  double TimerMs(const std::string& name) const;
  int64_t TimerCount(const std::string& name) const;
};

// Adds the solver-layer metrics (algo.greedy.*, algo.mcf.*, index.linear.*,
// flow.*, simd.*) of a set of solves, one registry delta per solve: phase
// times as the median over the solves, counts as the mean.
void AddSolveLayerMetrics(const std::vector<RegistryDelta>& solves,
                          Metrics* layer);

// The registry's counter and timer deltas from construction to Close().
class RegistryWindow {
 public:
  RegistryWindow() : start_(obs::StatsRegistry::Global().Snapshot()) {}
  RegistryDelta Close() const {
    return {obs::StatsRegistry::Global().Snapshot().Delta(start_)};
  }

 private:
  obs::StatsSnapshot start_;
};

// Host context: CPU model, nproc, 1-minute load average at construction,
// and the steal share of CPU time between construction and ToJson().
class HostContext {
 public:
  HostContext();
  obs::JsonValue ToJson() const;

 private:
  std::string cpu_model_;
  int nproc_ = 0;
  double load_1m_ = 0.0;
  int64_t steal_start_ = 0;
  int64_t total_start_ = 0;
};

}  // namespace geacc::perfbench

#endif  // GEACC_PERFBENCH_HARNESS_H_
