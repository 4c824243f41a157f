// Shared plumbing for the figure-reproduction bench binaries.
//
// Every fig*_ binary accepts:
//   --reps N      repetitions per sweep point (fresh instance per rep)
//   --seed S      base seed
//   --solvers A,B comma-separated solver subset
//   --paper       full paper-scale parameters (defaults are sized so the
//                 whole bench suite finishes in minutes on a laptop)
//   --csv         additionally dump each table as CSV to stdout
//   --json PATH   write a `geacc-bench v1` machine-readable report
//                 (src/obs/bench_report.h) for CI perf baselines
//   --simd MODE   batched-kernel dispatch: auto (default), avx2, scalar
//   --fp MODE     kernel FP policy: strict (default) or fast
//   --bound NAME  exact-solver pruning bound: lemma6, clique (default),
//                 or clique-lp (DESIGN.md §18)

#ifndef GEACC_BENCH_BENCH_COMMON_H_
#define GEACC_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.h"
#include "obs/bench_report.h"
#include "simd/simd.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/memory.h"
#include "util/string_util.h"

namespace geacc::bench {

struct CommonFlags {
  int reps = 1;
  int64_t seed = 42;
  std::string solvers;  // empty = bench-specific default
  bool paper = false;
  bool csv = false;
  std::string json;  // empty = no report
  int threads = 1;
  // Audit every arrangement with src/verify (SweepConfig::audit): all
  // violation classes plus maximality where guaranteed, aborting with the
  // full violation list on failure. Adds an O(|V||U|) scan per run, so
  // times measured under --selfcheck are not comparable to baselines.
  bool selfcheck = false;
  // SIMD kernel knobs (DESIGN.md §15): --simd pins the dispatch level of
  // the batched similarity kernels, --fp picks the solver FP policy.
  std::string simd = "auto";
  std::string fp = "strict";
  // Exact-solver bound hierarchy (algo/bounds.h, DESIGN.md §18).
  std::string bound = "clique";

  void Register(FlagSet& flags) {
    flags.AddInt("reps", &reps, "repetitions per sweep point");
    flags.AddInt("seed", &seed, "base seed");
    flags.AddString("solvers", &solvers,
                    "comma-separated solver subset (default: per bench)");
    flags.AddBool("paper", &paper,
                  "use full paper-scale parameters (slower)");
    flags.AddBool("csv", &csv, "also dump tables as CSV");
    flags.AddString("json", &json,
                    "write a geacc-bench v1 JSON report to this path");
    flags.AddInt("threads", &threads,
                 "thread budget: RunSweep benches split it between "
                 "(point × rep) workers and intra-solver lanes (see "
                 "SweepConfig::threads); direct-RunSolver benches hand it "
                 "to the solver as SolverOptions::threads. Wall times get "
                 "noisy above 1");
    flags.AddBool("selfcheck", &selfcheck,
                  "audit every arrangement with src/verify (all violation "
                  "classes + maximality); slows runs, do not baseline");
    flags.AddString("simd", &simd,
                    "batched-kernel dispatch: auto (cpuid pick, default), "
                    "avx2, or scalar; forcing an unavailable level fails "
                    "fast");
    flags.AddString("fp", &fp,
                    "kernel FP policy: strict (bit-identical to per-pair, "
                    "default) or fast (FMA contraction in solver-internal "
                    "batches)");
    flags.AddString("bound", &bound,
                    "exact-solver pruning bound: lemma6, clique (default), "
                    "or clique-lp; results are bit-identical across levels, "
                    "only search effort changes");
  }

  // Copies the kernel and bound flags into a solver-options struct;
  // benches call this on SweepConfig::solver_options (or a hand-rolled
  // SolverOptions) so --fp and --bound reach every solver they run. Also
  // applies --simd to the process-wide dispatch override (fail-fast on
  // an unavailable level).
  void ApplySolverOptions(SolverOptions* options) const {
    options->fp_mode = fp;
    options->bound = bound;
    std::string error;
    if (!simd::SetDispatchOverride(simd, &error)) {
      std::fprintf(stderr, "--simd: %s\n", error.c_str());
      std::exit(1);
    }
  }

  std::vector<std::string> SolverList(
      const std::vector<std::string>& fallback) const {
    if (solvers.empty()) return fallback;
    std::vector<std::string> list;
    for (const std::string& name : Split(solvers, ',')) {
      if (!name.empty()) list.push_back(name);
    }
    return list;
  }
};

// Fails fast (exit 1) when --threads requests parallelism a bench cannot
// honor. Only for benches whose measurement is inherently serial (e.g.
// the online-vs-global replay, which is order-sensitive); benches that
// drive RunSolver directly should instead pass the budget through
// SolverOptions::threads so the solvers fan out internally.
inline void RequireSerial(const CommonFlags& common, const char* bench) {
  if (common.threads == 1) return;
  std::fprintf(stderr,
               "%s: --threads=%d is not supported: this bench runs its "
               "solvers serially (use --threads 1, the default)\n",
               bench, common.threads);
  std::exit(1);
}

// Accumulates sweep results into a `geacc-bench v1` report and writes it
// when --json was given. One context per binary; AddSweep() after each
// RunSweep, AddRepetitions() for hand-rolled RunSolver loops, AddPoint()
// for other measurements, Write() last.
class ReportContext {
 public:
  ReportContext(const std::string& bench, const FlagSet& flags,
                const CommonFlags& common)
      : common_(common) {
    report_.bench = bench;
    report_.git_rev = obs::GitRevision();
    for (const auto& [name, value] : flags.Values()) {
      report_.flags[name] = value;
    }
  }

  // Appends one point per (sweep point × solver), averaged over reps.
  // Labels are "<sweep title>/<x label>" so multi-sweep benches stay
  // unambiguous in one report.
  void AddSweep(const SweepConfig& config, const SweepResult& result) {
    for (size_t p = 0; p < result.records.size(); ++p) {
      for (size_t s = 0; s < result.records[p].size(); ++s) {
        AddRepetitions(config.title + "/" + result.x_labels[p],
                       config.solvers[s], result.records[p][s]);
      }
    }
  }

  // Appends one point for the repetitions of one (label, solver) cell:
  // wall/CPU seconds, MaxSum and timer seconds are means; counters and
  // timer counts are means rounded to the nearest integer. For benches
  // that run their own repetition loops as well as for AddSweep. No-op
  // when `reps` is empty.
  void AddRepetitions(const std::string& label, const std::string& solver,
                      const std::vector<RunRecord>& reps) {
    if (reps.empty()) return;
    obs::BenchPoint point;
    point.label = label;
    point.solver = solver;
    std::map<std::string, double> counter_sums;
    std::map<std::string, obs::TimerStat> timer_sums;
    for (const RunRecord& record : reps) {
      point.wall_seconds += record.seconds;
      point.cpu_seconds += record.cpu_seconds;
      point.max_sum += record.max_sum;
      for (const auto& [name, value] : record.counters) {
        counter_sums[name] += static_cast<double>(value);
      }
      for (const auto& [name, stat] : record.timers) {
        timer_sums[name].seconds += stat.seconds;
        timer_sums[name].count += stat.count;
      }
    }
    const double n = static_cast<double>(reps.size());
    point.wall_seconds /= n;
    point.cpu_seconds /= n;
    point.max_sum /= n;
    for (const auto& [name, sum] : counter_sums) {
      point.counters[name] = static_cast<int64_t>(std::llround(sum / n));
    }
    for (const auto& [name, sum] : timer_sums) {
      point.timers[name] = {sum.seconds / n,
                            static_cast<int64_t>(std::llround(
                                static_cast<double>(sum.count) / n))};
    }
    AddPoint(std::move(point));
  }

  // For benches that measure outside RunSolver. The caller fills
  // everything except vm_hwm_bytes, which is stamped here: VmHWM is the
  // process high-water mark at call time (monotonic, so later points
  // subsume earlier ones).
  void AddPoint(obs::BenchPoint point) {
    point.vm_hwm_bytes = static_cast<int64_t>(PeakRssBytes());
    report_.points.push_back(std::move(point));
  }

  // Writes the report if --json was given; CHECK-fails on I/O errors so a
  // CI run can't silently produce no baseline.
  void Write() const {
    if (common_.json.empty()) return;
    std::string error;
    GEACC_CHECK(report_.WriteFile(common_.json, &error)) << error;
    std::cout << "wrote geacc-bench v1 report: " << common_.json << "\n";
  }

  const obs::BenchReport& report() const { return report_; }

 private:
  const CommonFlags& common_;
  obs::BenchReport report_;
};

inline void EmitSweep(const SweepConfig& config, const SweepResult& result,
                      const std::string& x_title, bool csv) {
  PrintSweepTables(config, result, x_title, std::cout);
  if (csv) {
    for (const char* metric : {"max_sum", "seconds", "memory_mb"}) {
      std::cout << "csv:" << metric << "\n";
      MetricTable(result, metric, config.title, x_title)
          .WriteCsv(std::cout);
    }
  }
}

}  // namespace geacc::bench

#endif  // GEACC_BENCH_BENCH_COMMON_H_
