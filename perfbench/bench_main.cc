// perfbench: runs one workload once, in process, and prints one JSON line
// with everything it measured — end-to-end metrics, the workload's own
// user-visible metrics, per-layer metrics when traced, the correctness
// verdict, the host context and the inputs' provenance. perfbench/run.py
// builds this binary, runs it, and turns that line into the benchmark
// result.
//
//   perfbench --workload serve --seed 7 --seconds 25 --trace 0

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "obs/json.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"
#include "util/flags.h"

namespace {

using geacc::obs::JsonValue;
using geacc::perfbench::Metrics;

JsonValue ToJson(const Metrics& metrics) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, metric] : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", metric.value);
    entry.Set("unit", metric.unit);
    out.Set(name, std::move(entry));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  int64_t seed = 1;
  double seconds = 25.0;
  int trace = 0;
  std::string work_dir = ".bench_build/run";
  std::string trace_path;
  geacc::FlagSet flags;
  flags.AddString("workload", &workload, "solve-greedy | solve-mcf | serve");
  flags.AddInt("seed", &seed, "input seed");
  flags.AddDouble("seconds", &seconds, "measured time the run is sized for");
  flags.AddInt("trace", &trace, "1 = record spans and per-layer metrics");
  flags.AddString("work_dir", &work_dir,
                  "scratch directory for service files");
  flags.AddString("trace_path", &trace_path,
                  "traced run: write the spans here as JSON");
  flags.Parse(argc, argv);
  if (seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "perfbench: bad --seconds or --trace\n");
    return 2;
  }

  geacc::perfbench::HostContext host;
  geacc::perfbench::RunConfig config;
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = seconds;
  config.trace = trace == 1;
  config.work_dir = work_dir;
  config.trace_path = trace_path;
  std::filesystem::create_directories(work_dir);

  geacc::perfbench::RunResult result;
  if (!geacc::perfbench::RunWorkload(workload, config, &result)) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  JsonValue problems = JsonValue::Array();
  for (const std::string& problem : result.problems) problems.Append(problem);
  JsonValue out = JsonValue::Object();
  out.Set("workload", workload);
  out.Set("correct", result.problems.empty());
  out.Set("attempted", result.attempted);
  out.Set("failed", result.failed);
  out.Set("problems", std::move(problems));
  out.Set("end_to_end", ToJson(result.end_to_end));
  out.Set("workload_metrics", ToJson(result.workload_metrics));
  JsonValue samples = JsonValue::Object();
  for (const auto& [name, values] : result.samples) {
    JsonValue list = JsonValue::Array();
    for (const double value : values) list.Append(value);
    samples.Set(name, std::move(list));
  }
  out.Set("samples", std::move(samples));
  if (config.trace) out.Set("per_layer", ToJson(result.per_layer));
  out.Set("provenance", std::move(result.provenance));
  out.Set("host", host.ToJson());
  std::printf("%s\n", out.Dump(0).c_str());
  return result.problems.empty() ? 0 : 1;
}
