// The benchmark's workloads. Each runs in-process against the program's
// public layer APIs, derives every input from RunConfig::seed, and fills a
// RunResult; main() turns that into the printed result.

#ifndef GEACC_PERFBENCH_WORKLOADS_H_
#define GEACC_PERFBENCH_WORKLOADS_H_

#include <string>

#include "perfbench/harness.h"

namespace geacc::perfbench {

// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 3;

// Runs `name` once. Returns false for an unknown name.
bool RunWorkload(const std::string& name, const RunConfig& config,
                 RunResult* result);

RunResult RunSolveWorkload(const std::string& name, const RunConfig& config);
RunResult RunServeWorkload(const RunConfig& config);

// Distinct, reproducible generator seeds for the i-th input of a run.
uint64_t InputSeed(uint64_t run_seed, int index);

}  // namespace geacc::perfbench

#endif  // GEACC_PERFBENCH_WORKLOADS_H_
