// Replays a mutation trace through the incremental arranger and reports
// churn/stability metrics (exp/metrics.h): repair-latency percentiles,
// reassignments per mutation, feasibility at every checked epoch, and the
// final maintained MaxSum against a from-scratch oracle solve.
//
// Without --trace the workload is generated on the fly (gen/trace_gen)
// from --events/--users/--dim/--mutations/--seed; --write saves it for
// reuse. Full re-solve cost is sampled every --sample-full-every mutations
// (snapshot + fallback solve, the work a non-incremental engine would do
// per batch), which is what the reported speedup compares against.
//
//   build/bench/replay_trace --mutations 10000 --users 5000

#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algo/solvers.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "exp/metrics.h"
#include "gen/trace_gen.h"
#include "io/trace_io.h"
#include "obs/bench_report.h"
#include "obs/stats.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/memory.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  std::string trace_path, write_path;
  int mutations = 2000, events = 50, users = 1000, dim = 8;
  int64_t seed = 42, budget = 0;
  double drift = 0.1;
  std::string fallback = "greedy";
  int check_every = 1, sample_full_every = 500;
  bool oracle = true, csv = false;
  std::string json_path;

  geacc::FlagSet flags;
  flags.AddString("trace", &trace_path,
                  "trace file to replay (empty: generate)");
  flags.AddString("write", &write_path,
                  "write the (generated or loaded) trace here");
  flags.AddInt("mutations", &mutations, "generated trace length");
  flags.AddInt("events", &events, "generated epoch-0 events");
  flags.AddInt("users", &users, "generated epoch-0 users");
  flags.AddInt("dim", &dim, "attribute dimensionality");
  flags.AddInt("seed", &seed, "generator seed");
  flags.AddInt("budget", &budget, "repair budget (cursor steps; 0 = off)");
  flags.AddDouble("drift", &drift,
                  "full-resolve drift threshold (<=0 disables)");
  flags.AddString("fallback", &fallback, "full re-solve solver");
  flags.AddInt("check-every", &check_every,
               "validate feasibility every K mutations (0 = never)");
  flags.AddInt("sample-full-every", &sample_full_every,
               "time a from-scratch solve every K mutations (0 = never)");
  flags.AddBool("oracle", &oracle,
                "solve the final instance from scratch for comparison");
  flags.AddBool("csv", &csv, "also dump the summary as CSV");
  flags.AddString("json", &json_path,
                  "write a geacc-bench v1 JSON report to this path");
  flags.Parse(argc, argv);

  std::optional<geacc::MutationTrace> trace;
  if (!trace_path.empty()) {
    std::string error;
    trace = geacc::ReadTraceFromFile(trace_path, &error);
    GEACC_CHECK(trace.has_value()) << trace_path << ": " << error;
  } else {
    geacc::TraceGenConfig config;
    config.initial_events = events;
    config.initial_users = users;
    config.dim = dim;
    config.num_mutations = mutations;
    config.seed = static_cast<uint64_t>(seed);
    trace = geacc::GenerateTrace(config);
  }
  if (!write_path.empty()) {
    GEACC_CHECK(geacc::WriteTraceToFile(*trace, write_path))
        << "cannot write '" << write_path << "'";
  }

  geacc::DynamicInstance instance(trace->initial);
  geacc::RepairOptions options;
  options.repair_budget = budget;
  options.drift_threshold = drift;
  options.fallback_solver = fallback;
  geacc::IncrementalArranger arranger(&instance, options);
  arranger.FullResolve();  // bootstrap the epoch-0 arrangement

  std::cout << "replaying " << trace->mutations.size() << " mutations over "
            << instance.DebugString() << "\n";

  geacc::LatencyRecorder repairs, full_solves;
  geacc::ChurnMetrics churn;
  const geacc::obs::StatsScope replay_scope;
  const geacc::WallTimer replay_wall;
  const geacc::CpuTimer replay_cpu;
  for (size_t i = 0; i < trace->mutations.size(); ++i) {
    const int64_t resolves_before = arranger.stats().full_resolves;
    arranger.Apply(trace->mutations[i]);
    const double seconds = arranger.stats().last_repair_seconds;
    // Drift-triggered full resolves are the fallback path, not the
    // incremental one; keep the two latency populations separate.
    if (arranger.stats().full_resolves > resolves_before) {
      full_solves.Record(seconds);
    } else {
      repairs.Record(seconds);
    }

    const int64_t epoch = static_cast<int64_t>(i) + 1;
    if (check_every > 0 && epoch % check_every == 0) {
      const std::string violation = arranger.Validate();
      if (!violation.empty()) {
        ++churn.infeasible_epochs;
        std::cout << "INFEASIBLE at epoch " << epoch << ": " << violation
                  << "\n";
      }
    }
    if (sample_full_every > 0 && epoch % sample_full_every == 0) {
      const geacc::WallTimer timer;
      const geacc::Instance snapshot = instance.Snapshot();
      const auto solver = geacc::CreateSolver(fallback);
      const auto result = solver->Solve(snapshot);
      full_solves.Record(timer.Seconds());
      GEACC_CHECK(result.arrangement.Validate(snapshot).empty());
    }
  }

  const double replay_wall_seconds = replay_wall.Seconds();
  const double replay_cpu_seconds = replay_cpu.Seconds();
  const geacc::obs::StatsSnapshot replay_stats = replay_scope.Harvest();

  const geacc::RepairStats& stats = arranger.stats();
  churn.mutations = stats.mutations;
  churn.reassignments = stats.assignments_added + stats.assignments_removed;
  churn.full_resolves = stats.full_resolves;
  churn.budget_exhausted = stats.budget_exhausted;
  churn.mean_repair_seconds = repairs.mean();
  churn.p50_repair_seconds = repairs.Percentile(50);
  churn.p90_repair_seconds = repairs.Percentile(90);
  churn.p99_repair_seconds = repairs.Percentile(99);
  churn.mean_full_solve_seconds = full_solves.mean();
  churn.final_max_sum = arranger.max_sum();

  if (oracle) {
    const geacc::Instance snapshot = instance.Snapshot();
    const auto solver = geacc::CreateSolver(fallback);
    churn.oracle_max_sum = solver->Solve(snapshot).arrangement.MaxSum(snapshot);
  }

  const std::string final_check = arranger.Validate();
  GEACC_CHECK(final_check.empty()) << final_check;

  std::cout << "final " << instance.DebugString() << "\n";
  std::cout << churn.DebugString() << "\n";

  geacc::Table table("Trace replay (fallback " + fallback + ")");
  table.SetHeader({"metric", "value"});
  table.AddRow({"mutations", geacc::StrFormat("%lld",
                                              (long long)churn.mutations)});
  table.AddRow({"reassignments/mutation",
                geacc::StrFormat("%.3f", churn.ReassignmentsPerMutation())});
  table.AddRow({"repair mean (ms)",
                geacc::StrFormat("%.4f", churn.mean_repair_seconds * 1e3)});
  table.AddRow({"repair p50 (ms)",
                geacc::StrFormat("%.4f", churn.p50_repair_seconds * 1e3)});
  table.AddRow({"repair p90 (ms)",
                geacc::StrFormat("%.4f", churn.p90_repair_seconds * 1e3)});
  table.AddRow({"repair p99 (ms)",
                geacc::StrFormat("%.4f", churn.p99_repair_seconds * 1e3)});
  table.AddRow({"full solve mean (ms)",
                geacc::StrFormat("%.2f", churn.mean_full_solve_seconds * 1e3)});
  table.AddRow({"repair speedup",
                geacc::StrFormat("%.1fx", churn.SpeedupVsFullSolve())});
  table.AddRow({"drift full-resolves",
                geacc::StrFormat("%lld", (long long)churn.full_resolves)});
  table.AddRow({"budget exhaustions",
                geacc::StrFormat("%lld", (long long)churn.budget_exhausted)});
  table.AddRow({"infeasible epochs",
                geacc::StrFormat("%lld", (long long)churn.infeasible_epochs)});
  table.AddRow({"final MaxSum", geacc::StrFormat("%.3f", churn.final_max_sum)});
  if (oracle) {
    table.AddRow({"oracle MaxSum",
                  geacc::StrFormat("%.3f", churn.oracle_max_sum)});
    table.AddRow({"maintained/oracle",
                  geacc::StrFormat("%.4f", churn.OracleRatio())});
  }
  table.Print(std::cout);
  if (csv) table.WriteCsv(std::cout);

  if (!json_path.empty()) {
    geacc::obs::BenchReport report;
    report.bench = "replay_trace";
    report.git_rev = geacc::obs::GitRevision();
    for (const auto& [name, value] : flags.Values()) {
      report.flags[name] = value;
    }
    // One point covering the whole replay (the sampled full solves
    // included): counters are the dyn.* / solver deltas over the loop.
    geacc::obs::BenchPoint point;
    point.label =
        geacc::StrFormat("replay/%zu-mutations", trace->mutations.size());
    point.solver = fallback;
    point.wall_seconds = replay_wall_seconds;
    point.cpu_seconds = replay_cpu_seconds;
    point.vm_hwm_bytes = static_cast<int64_t>(geacc::PeakRssBytes());
    point.max_sum = churn.final_max_sum;
    point.counters = replay_stats.counters;
    point.timers = replay_stats.timers;
    report.points.push_back(std::move(point));
    std::string error;
    GEACC_CHECK(report.WriteFile(json_path, &error)) << error;
    std::cout << "wrote geacc-bench v1 report: " << json_path << "\n";
  }
  return churn.infeasible_epochs == 0 ? 0 : 1;
}
