#include "perfbench/harness.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <fstream>
#include <functional>
#include <sstream>
#include <tuple>
#include <utility>

#include "simd/kernels.h"
#include "util/memory.h"
#include "verify/audit.h"

namespace geacc::perfbench {

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name && span.end >= span.start) {
      out.push_back(SecondsBetween(span.start, span.end) * 1e3);
    }
  }
  return out;
}

void Tracer::Absorb(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

bool Tracer::WriteJson(const std::string& path,
                       Clock::time_point origin) const {
  obs::JsonValue spans = obs::JsonValue::Array();
  for (const Span& span : spans_) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("name", span.name);
    entry.Set("op", span.op);
    entry.Set("parent", span.parent);
    entry.Set("start_us", SecondsBetween(origin, span.start) * 1e6);
    entry.Set("dur_us", SecondsBetween(span.start, span.end) * 1e6);
    spans.Append(std::move(entry));
  }
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("spans", std::move(spans));
  std::ofstream out(path);
  out << doc.Dump(0) << "\n";
  return static_cast<bool>(out);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() + 1);
  if (rank <= 1.0) return values.front();
  if (rank >= static_cast<double>(values.size())) return values.back();
  const size_t below = static_cast<size_t>(rank);  // 1-based order statistic
  const double frac = rank - static_cast<double>(below);
  return values[below - 1] + frac * (values[below] - values[below - 1]);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  return static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
}

double MaxSumUpperBound(const Instance& instance) {
  const int num_events = instance.num_events();
  const int num_users = instance.num_users();
  std::vector<double> row(static_cast<size_t>(num_users));
  std::vector<double> positive;
  // Per-user min-heaps of the c_u best similarities seen so far.
  std::vector<std::vector<double>> user_best(static_cast<size_t>(num_users));
  double event_side = 0.0;
  for (EventId v = 0; v < num_events; ++v) {
    instance.SimilarityRow(v, simd::FpMode::kStrict, row.data());
    positive.clear();
    for (UserId u = 0; u < num_users; ++u) {
      const double sim = row[u];
      if (sim <= 0.0) continue;
      positive.push_back(sim);
      std::vector<double>& best = user_best[u];
      const size_t cap = static_cast<size_t>(instance.user_capacity(u));
      if (best.size() < cap) {
        best.push_back(sim);
        std::push_heap(best.begin(), best.end(), std::greater<>());
      } else if (cap > 0 && sim > best.front()) {
        std::pop_heap(best.begin(), best.end(), std::greater<>());
        best.back() = sim;
        std::push_heap(best.begin(), best.end(), std::greater<>());
      }
    }
    const size_t take = std::min(
        positive.size(), static_cast<size_t>(instance.event_capacity(v)));
    std::nth_element(positive.begin(), positive.begin() + take,
                     positive.end(), std::greater<>());
    for (size_t i = 0; i < take; ++i) event_side += positive[i];
  }
  double user_side = 0.0;
  for (const std::vector<double>& best : user_best) {
    for (const double sim : best) user_side += sim;
  }
  return std::min(event_side, user_side);
}

std::string AuditGate(const Instance& instance, const Arrangement& arrangement,
                      bool check_maximality, double upper_bound) {
  verify::AuditOptions options;
  options.check_maximality = check_maximality;
  options.max_violations = 8;
  const verify::AuditReport report =
      verify::AuditArrangement(instance, arrangement, options);
  if (!report.ok()) {
    std::string summary = report.Summary();
    std::replace(summary.begin(), summary.end(), '\n', ';');
    return "audit: " + summary;
  }
  const double max_sum = arrangement.MaxSum(instance);
  if (!(max_sum <= upper_bound * (1.0 + 1e-12))) {
    std::ostringstream out;
    out << "MaxSum " << max_sum << " exceeds the upper bound " << upper_bound;
    return out.str();
  }
  return "";
}

int64_t RegistryDelta::Count(const std::string& name) const {
  const auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

double RegistryDelta::TimerMs(const std::string& name) const {
  const auto it = delta.timers.find(name);
  return it == delta.timers.end() ? 0.0 : it->second.seconds * 1e3;
}

int64_t RegistryDelta::TimerCount(const std::string& name) const {
  const auto it = delta.timers.find(name);
  return it == delta.timers.end() ? 0 : it->second.count;
}

void AddSolveLayerMetrics(const std::vector<RegistryDelta>& solves,
                          Metrics* layer) {
  auto median_ms = [&](const char* timer) {
    std::vector<double> values;
    for (const RegistryDelta& solve : solves) {
      values.push_back(solve.TimerMs(timer));
    }
    return Median(values);
  };
  auto mean = [&](const char* counter) {
    double total = 0.0;
    for (const RegistryDelta& solve : solves) total += solve.Count(counter);
    return solves.empty() ? 0.0 : total / static_cast<double>(solves.size());
  };
  // Layer metric ← phase timer.
  static constexpr std::pair<const char*, const char*> kTimers[] = {
      {"algo.greedy.init_ms", "greedy.init"},
      {"algo.greedy.iterate_ms", "greedy.iterate"},
      {"algo.mcf.pair_costs_ms", "mcf.pair_costs"},
      {"algo.mcf.flow_sweep_ms", "mcf.flow_sweep"},
      {"algo.mcf.extract_ms", "mcf.extract"},
      {"algo.mcf.conflict_resolution_ms", "mcf.conflict_resolution"},
  };
  // Layer metric ← counter.
  static constexpr std::pair<const char*, const char*> kCounters[] = {
      {"algo.greedy.heap_pops", "greedy.heap_pops"},
      {"algo.greedy.cursor_skips", "greedy.cursor_skips"},
      {"algo.greedy.matches", "greedy.matches"},
      {"algo.mcf.conflict_evictions", "mcf.conflict_evictions"},
      {"index.linear.cursor_steps", "index.linear.cursor_steps"},
      {"index.linear.points_scanned", "index.linear.points_scanned"},
      {"index.linear.refills", "index.linear.refills"},
      {"flow.dijkstra.settles", "flow.dijkstra.settles"},
      {"flow.dijkstra.relaxations", "flow.dijkstra.relaxations"},
      {"flow.augmenting_paths", "flow.augmenting_paths"},
      {"simd.batched_evals", "simd.batched_evals"},
      {"simd.scalar_evals", "simd.scalar_evals"},
  };
  for (const auto& [metric, timer] : kTimers) {
    (*layer)[metric] = {median_ms(timer), "ms"};
  }
  for (const auto& [metric, counter] : kCounters) {
    (*layer)[metric] = {mean(counter), "count"};
  }
  // Useful work of the greedy scan: matches per index cursor step.
  const double steps = mean("index.linear.cursor_steps");
  (*layer)["algo.greedy.useful_ratio"] = {
      steps > 0.0 ? mean("greedy.matches") / steps : 0.0, "ratio"};
}

namespace {

// Aggregate "cpu" line of /proc/stat: (steal, total) jiffies.
std::pair<int64_t, int64_t> ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  int64_t total = 0;
  int64_t steal = 0;
  int64_t value = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already folded into user/nice.
  for (int field = 0; field < 8 && (in >> value); ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

}  // namespace

HostContext::HostContext() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu_model_ = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  nproc_ = sched_getaffinity(0, sizeof(set), &set) == 0
               ? CPU_COUNT(&set)
               : static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream loadavg("/proc/loadavg");
  loadavg >> load_1m_;
  std::tie(steal_start_, total_start_) = ReadCpuJiffies();
}

obs::JsonValue HostContext::ToJson() const {
  const auto [steal, total] = ReadCpuJiffies();
  const int64_t total_delta = total - total_start_;
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("cpu_model", cpu_model_);
  out.Set("nproc", nproc_);
  out.Set("load_1m_at_start", load_1m_);
  out.Set("steal_share",
          total_delta > 0 ? static_cast<double>(steal - steal_start_) /
                                static_cast<double>(total_delta)
                          : 0.0);
  return out;
}

}  // namespace geacc::perfbench
