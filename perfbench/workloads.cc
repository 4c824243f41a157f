#include "perfbench/workloads.h"

#include "util/rng.h"

namespace geacc::perfbench {

bool RunWorkload(const std::string& name, const RunConfig& config,
                 RunResult* result) {
  if (name == "serve") {
    *result = RunServeWorkload(config);
    return true;
  }
  if (name == "solve-greedy" || name == "solve-mcf") {
    *result = RunSolveWorkload(name, config);
    return true;
  }
  return false;
}

uint64_t InputSeed(uint64_t run_seed, int index) {
  uint64_t state = run_seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(index);
  return SplitMix64(state);
}

}  // namespace geacc::perfbench
