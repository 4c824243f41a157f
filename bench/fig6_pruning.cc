// Fig. 6: effectiveness of Prune-GEACC's pruning rule against exhaustive
// search (the same recursion with the Lemma 6 bound disabled).
//
//   6a: mean recursion depth at prune events, settings (|V|,|U|) = (5,10)
//       and (5,15) — compared with the maximum depths 50 and 75;
//   6b: running time, Prune vs Exhaustive, (5,10);
//   6c: number of complete searches;
//   6d: number of Search-GEACC invocations.
//
// Expected shape (paper): mean prune depth ≪ max depth; Prune is orders
// of magnitude cheaper than Exhaustive on every counter.
//
// Tractability: exhaustive search at the paper's default c_u ~ U[1,4] can
// require ~10^10+ recursion nodes. The default here uses c_u ~ U[1,2]
// (every qualitative claim is preserved; see EXPERIMENTS.md); pass
// --max_cu 4 --paper for the full setting (slow) — a safety valve caps
// exhaustive search at --max_invocations nodes and reports truncation.

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "algo/solvers.h"
#include "gen/synthetic.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

struct Setting {
  int num_events;
  int num_users;
};

}  // namespace

int main(int argc, char** argv) {
  geacc::bench::CommonFlags common;
  int max_cu = 2;
  int64_t max_invocations = 200'000'000;
  geacc::FlagSet flags;
  common.Register(flags);
  flags.AddInt("max_cu", &max_cu,
               "user capacity upper bound (paper default is 4; 2 keeps "
               "exhaustive search tractable)");
  flags.AddInt("max_invocations", &max_invocations,
               "safety cap on exhaustive Search invocations (0 = unlimited)");
  flags.Parse(argc, argv);
  geacc::bench::ReportContext report("fig6_pruning", flags, common);
  if (common.paper) max_invocations = 0;

  // ---- Fig 6a: mean prune depth for (5,10) and (5,15). ----
  geacc::Table depth_table(geacc::StrFormat(
      "Fig 6a: mean recursion depth at prune events (c_v~U[1,10], "
      "c_u~U[1,%d]); max depths are 50 and 75",
      max_cu));
  depth_table.SetHeader({"rho", "|V|=5,|U|=10", "|V|=5,|U|=15"});

  // ---- Fig 6b-d: prune (clique bound vs lemma6) vs exhaustive on
  // (5,10). The "prune-lemma6" series isolates the conflict-aware
  // tightening (algo/bounds.h): same solver, bound="lemma6". ----
  geacc::Table time_table("Fig 6b: running time (s), |V|=5, |U|=10");
  geacc::Table complete_table("Fig 6c: # complete searches");
  geacc::Table invocation_table("Fig 6d: # Search-GEACC invocations");
  for (geacc::Table* table : {&time_table, &complete_table,
                              &invocation_table}) {
    table->SetHeader({"rho", "prune", "prune-lemma6", "exhaustive"});
  }

  // --threads feeds the solvers' internal fan-out (arrangements and
  // MaxSum are thread-invariant; search-effort counters can vary, see
  // prune_solver.h). The truncated exhaustive run stays serial by design.
  geacc::SolverOptions prune_options;
  prune_options.threads = common.threads;
  common.ApplySolverOptions(&prune_options);
  geacc::SolverOptions lemma6_options = prune_options;
  lemma6_options.bound = "lemma6";
  geacc::SolverOptions exhaustive_options;
  exhaustive_options.threads = common.threads;
  common.ApplySolverOptions(&exhaustive_options);
  exhaustive_options.max_search_invocations = max_invocations;
  const auto prune = geacc::CreateSolver("prune", prune_options);
  const auto lemma6 = geacc::CreateSolver("prune", lemma6_options);
  const auto exhaustive =
      geacc::CreateSolver("exhaustive", exhaustive_options);

  auto make_instance = [&](const Setting& setting, double density,
                           int rep) {
    geacc::SyntheticConfig synth;
    synth.num_events = setting.num_events;
    synth.num_users = setting.num_users;
    synth.event_capacity = geacc::DistributionSpec::Uniform(1.0, 10.0);
    synth.user_capacity =
        geacc::DistributionSpec::Uniform(1.0, static_cast<double>(max_cu));
    synth.conflict_density = density;
    synth.seed = static_cast<uint64_t>(common.seed) + rep * 7919;
    return geacc::GenerateSynthetic(synth);
  };

  bool any_truncated = false;
  for (const double density : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const std::string label = geacc::StrFormat("%.2f", density);

    // 6a over both settings (prune only).
    std::vector<std::string> depth_row = {label};
    for (const Setting setting : {Setting{5, 10}, Setting{5, 15}}) {
      double depth_sum = 0.0;
      for (int rep = 0; rep < common.reps; ++rep) {
        const geacc::Instance instance =
            make_instance(setting, density, rep);
        const geacc::RunRecord record =
            geacc::RunSolver(*prune, instance, common.selfcheck);
        depth_sum += record.stats.MeanPruneDepth();
      }
      depth_row.push_back(
          geacc::StrFormat("%.1f", depth_sum / common.reps));
    }
    depth_table.AddRow(depth_row);

    // 6b–d on (5,10): prune (clique) vs prune-lemma6 vs exhaustive.
    struct Series {
      const char* report_name;
      const geacc::Solver* solver;
      std::vector<geacc::RunRecord> runs;
    };
    Series series[] = {{"prune", prune.get(), {}},
                       {"prune-lemma6", lemma6.get(), {}},
                       {"exhaustive", exhaustive.get(), {}}};
    for (int rep = 0; rep < common.reps; ++rep) {
      const geacc::Instance instance =
          make_instance({5, 10}, density, rep);
      for (Series& s : series) {
        s.runs.push_back(
            geacc::RunSolver(*s.solver, instance, common.selfcheck));
        any_truncated |= s.runs.back().stats.search_truncated;
      }
    }
    // One table row: `field`'s mean over reps, per series.
    auto add_row = [&](geacc::Table& table, const char* format,
                       double (*field)(const geacc::RunRecord&)) {
      std::vector<std::string> row = {label};
      for (const Series& s : series) {
        double sum = 0.0;
        for (const geacc::RunRecord& r : s.runs) sum += field(r);
        row.push_back(geacc::StrFormat(format, sum / common.reps));
      }
      table.AddRow(row);
    };
    add_row(time_table, "%.5f",
            [](const geacc::RunRecord& r) { return r.seconds; });
    add_row(complete_table, "%.0f", [](const geacc::RunRecord& r) {
      return static_cast<double>(r.stats.complete_searches);
    });
    add_row(invocation_table, "%.0f", [](const geacc::RunRecord& r) {
      return static_cast<double>(r.stats.search_invocations);
    });
    for (const Series& s : series) {
      report.AddRepetitions("rho=" + label, s.report_name, s.runs);
    }
  }

  depth_table.Print(std::cout);
  time_table.Print(std::cout);
  complete_table.Print(std::cout);
  invocation_table.Print(std::cout);
  if (any_truncated) {
    std::cout << "NOTE: exhaustive search hit the --max_invocations safety "
                 "cap on at least one instance; its counters are lower "
                 "bounds there.\n";
  }
  if (common.csv) {
    depth_table.WriteCsv(std::cout);
    time_table.WriteCsv(std::cout);
    complete_table.WriteCsv(std::cout);
    invocation_table.WriteCsv(std::cout);
  }
  report.Write();
  return 0;
}
