// solve-greedy and solve-mcf: one op is one Solver::Solve on a fresh
// seeded synthetic instance, run serially with default SolverOptions.
//
//   solve-greedy  fig5_scalability's default point: |V| = 500,
//                 |U| = 10,000, c_v ~ U[1, 200], other knobs Table III.
//                 The greedy / index / simd path does nearly all the work.
//   solve-mcf     Table III defaults (|V| = 100, |U| = 1,000); nearly all
//                 of a solve is the flow layer's Δ-sweep.
//
// Set-up (timed kSetupRepetitions times, median reported) is generating
// one instance plus one warm-up solve on it. The op count is fixed per
// --seconds so every run of a seed does the same work (and the traced
// run's counters repeat exactly); the timed solves run back to back and
// are checked afterwards.
//
// op_p25_ms and cpu_per_op_ms are the lower quartile of the run's
// per-solve wall and CPU times. A neighbour's burst on the shared host
// only ever adds time to a solve, so the lower quartile sheds a burst
// that hits a few solves of a run; a slowdown that lasts the whole run
// moves it as much as the median (see README.md).

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/solvers.h"
#include "gen/synthetic.h"
#include "perfbench/workloads.h"
#include "util/check.h"
#include "verify/audit.h"

namespace geacc::perfbench {
namespace {

struct SolveSpec {
  const char* solver;
  int num_events;
  int num_users;
  double max_event_capacity;
  // A solve's wall time on the reference 4-vCPU host; fixes the op count.
  double nominal_op_seconds;
};

SolveSpec SpecFor(const std::string& workload) {
  if (workload == "solve-greedy") return {"greedy", 500, 10'000, 200.0, 3.3};
  return {"mincostflow", 100, 1'000, 50.0, 2.3};
}

SyntheticConfig ConfigFor(const SolveSpec& spec, uint64_t seed) {
  SyntheticConfig config;
  config.num_events = spec.num_events;
  config.num_users = spec.num_users;
  config.event_capacity =
      DistributionSpec::Uniform(1.0, spec.max_event_capacity);
  config.seed = seed;
  return config;
}

obs::JsonValue Provenance(const SolveSpec& spec, const RunConfig& config,
                          int ops) {
  const SyntheticConfig shape = ConfigFor(spec, 0);
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("generator", "gen::GenerateSynthetic");
  out.Set("solver", spec.solver);
  out.Set("events", shape.num_events);
  out.Set("users", shape.num_users);
  out.Set("dim", shape.dim);
  out.Set("max_attribute", shape.max_attribute);
  out.Set("event_capacity", shape.event_capacity.DebugString());
  out.Set("user_capacity", shape.user_capacity.DebugString());
  out.Set("conflict_density", shape.conflict_density);
  out.Set("similarity", shape.similarity);
  out.Set("run_seed", static_cast<int64_t>(config.seed));
  obs::JsonValue seeds = obs::JsonValue::Array();
  for (int i = 0; i < kSetupRepetitions + ops; ++i) {
    seeds.Append(std::to_string(InputSeed(config.seed, i)));
  }
  out.Set("instance_seeds", std::move(seeds));
  out.Set("setup_instances", kSetupRepetitions);
  out.Set("timed_instances", ops);
  return out;
}

}  // namespace

RunResult RunSolveWorkload(const std::string& name, const RunConfig& config) {
  const SolveSpec spec = SpecFor(name);
  const int ops = std::max(
      1, static_cast<int>(std::lround(config.seconds / spec.nominal_op_seconds)));
  const bool check_maximality = verify::SolverGuaranteesMaximality(spec.solver);
  Tracer tracer(config.trace);
  const Clock::time_point origin = Clock::now();

  RunResult result;
  result.provenance = Provenance(spec, config, ops);
  auto check = [&](const Instance& instance, const Arrangement& arrangement,
                   int index, std::vector<double>* quality) {
    ScopedSpan span(tracer, "verify.audit", index);
    const double bound = MaxSumUpperBound(instance);
    const std::string problem =
        AuditGate(instance, arrangement, check_maximality, bound);
    if (!problem.empty()) {
      result.problems.push_back("instance " + std::to_string(index) + ": " +
                                problem);
      return false;
    }
    if (quality != nullptr) {
      quality->push_back(arrangement.MaxSum(instance) / bound);
    }
    return true;
  };

  auto instance_for = [&](int index) {
    ScopedSpan span(tracer, "gen.instance", index);
    return GenerateSynthetic(ConfigFor(spec, InputSeed(config.seed, index)));
  };

  // ---- set-up: generate + warm-up solve, timed as a whole ----
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const Clock::time_point start = Clock::now();
    const Instance instance = instance_for(rep);
    const std::unique_ptr<Solver> solver = CreateSolver(spec.solver);
    GEACC_CHECK(solver != nullptr) << spec.solver;
    const SolveResult warm = [&] {
      ScopedSpan span(tracer, "setup.warmup", rep);
      return solver->Solve(instance);
    }();
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    check(instance, warm.arrangement, rep, nullptr);
  }

  // ---- timed ops, back to back; their checks come after ----
  const std::unique_ptr<Solver> solver = CreateSolver(spec.solver);
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
  std::vector<double> logical_peak_mb;
  std::vector<Arrangement> arrangements;
  std::vector<RegistryDelta> deltas;
  for (int i = 0; i < ops; ++i) {
    const int index = kSetupRepetitions + i;
    const Instance instance = instance_for(index);
    std::optional<RegistryWindow> window;
    if (config.trace) window.emplace();
    double cpu_start = 0.0;
    double cpu_end = 0.0;
    Clock::time_point start;
    Clock::time_point end;
    SolveResult solved = [&] {
      ScopedSpan span(tracer, "algo.solve", index);
      cpu_start = ProcessCpuSeconds();
      start = Clock::now();
      SolveResult out = solver->Solve(instance);
      end = Clock::now();
      cpu_end = ProcessCpuSeconds();
      return out;
    }();
    if (window) deltas.push_back(window->Close());
    wall_ms.push_back(SecondsBetween(start, end) * 1e3);
    cpu_ms.push_back((cpu_end - cpu_start) * 1e3);
    logical_peak_mb.push_back(
        static_cast<double>(solved.stats.logical_peak_bytes) /
        (1024.0 * 1024.0));
    arrangements.push_back(std::move(solved.arrangement));
  }
  std::vector<double> quality;
  for (int i = 0; i < ops; ++i) {
    const int index = kSetupRepetitions + i;
    ++result.attempted;
    if (!check(instance_for(index), arrangements[i], index, &quality)) {
      ++result.failed;
    }
  }

  const double ok_ratio =
      static_cast<double>(result.attempted - result.failed) /
      static_cast<double>(result.attempted);
  result.end_to_end = {
      {"setup_s", {Median(setup_s), "s"}},
      {"op_p25_ms", {Quantile(wall_ms, 0.25), "ms"}},
      {"cpu_per_op_ms", {Quantile(cpu_ms, 0.25), "ms"}},
      {"peak_rss_mb", {PeakRssMb(), "MB"}},
      {"quality_ratio", {Median(quality), "ratio"}},
      {"ok_ratio", {ok_ratio, "ratio"}},
  };
  result.workload_metrics = {
      {"solve_p50_ms", {Median(wall_ms), "ms"}},
      {"setup_first_s", {setup_s.front(), "s"}},
      {"solves", {static_cast<double>(ops), "count"}},
  };
  result.samples = {
      {"setup_s", setup_s}, {"op_wall_ms", wall_ms}, {"op_cpu_ms", cpu_ms}};
  if (!config.trace) return result;

  // ---- per-layer (traced run) ----
  Metrics& layer = result.per_layer;
  layer["gen.instance_ms"] = {Median(tracer.DurationsMs("gen.instance")),
                              "ms"};
  layer["setup.warmup_ms"] = {Median(tracer.DurationsMs("setup.warmup")),
                              "ms"};
  layer["algo.logical_peak_mb"] = {Median(logical_peak_mb), "MB"};
  AddSolveLayerMetrics(deltas, &layer);
  if (!config.trace_path.empty() &&
      !tracer.WriteJson(config.trace_path, origin)) {
    result.problems.push_back("cannot write spans to " + config.trace_path);
  }
  return result;
}

}  // namespace geacc::perfbench
