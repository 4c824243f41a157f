#include "core/solver.h"

#include "core/instance.h"
#include "util/string_util.h"

namespace geacc {

// Beyond the option checks below, this translation unit anchors the Solver
// vtable so that every user of Solver does not emit its own copy.

std::string ValidateSolverOptions(const SolverOptions& options) {
  if (options.threads < 0) {
    return StrFormat("threads must be >= 0 (0 = auto), got %d",
                     options.threads);
  }
  const std::string& flow = options.flow_algorithm;
  if (flow != "dijkstra" && flow != "spfa") {
    return StrFormat(
        "unknown flow_algorithm '%s' (expected dijkstra or spfa)",
        flow.c_str());
  }
  if (options.fp_mode != "strict" && options.fp_mode != "fast") {
    return StrFormat("unknown fp_mode '%s' (expected strict or fast)",
                     options.fp_mode.c_str());
  }
  const std::string& bound = options.bound;
  if (bound != "lemma6" && bound != "clique" && bound != "clique-lp") {
    return StrFormat(
        "unknown bound '%s' (expected lemma6, clique, or clique-lp)",
        bound.c_str());
  }
  return "";
}

simd::FpMode ResolveFpMode(const SolverOptions& options) {
  if (options.fp_mode == "fast") return simd::FpMode::kFast;
  GEACC_CHECK_EQ(options.fp_mode, std::string("strict"))
      << "unvalidated fp_mode";
  return simd::FpMode::kStrict;
}

}  // namespace geacc
