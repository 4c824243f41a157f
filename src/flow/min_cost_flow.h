// Successive Shortest Path min-cost flow (SSPA).
//
// The paper's MinCostFlow-GEACC (Algorithm 1) needs the min-cost flow of
// *every* amount Δ = 1..Δmax. SSPA delivers exactly that: after the k-th
// unit augmentation along a cheapest residual path, the current flow is a
// minimum-cost flow of amount k (the classical SSPA invariant), so one
// incremental run yields all Δ without re-solving.
//
// Shortest paths use Dijkstra with Johnson potentials. Networks with
// negative arc costs are bootstrapped with one Bellman–Ford pass; the GEACC
// reduction has costs 1 - sim ∈ [0, 1], so the bootstrap is normally
// skipped.
//
// This is the generic engine, over any FlowGraph. MinCostFlow-GEACC runs
// flow/transport_ssp.h instead, which reproduces this engine's search
// order exactly (node numbering, potentials, (distance, id) settle order,
// arithmetic and counters) on the dense network that solver builds.
// BMatchingBound (algo/bounds.cc) stays here: its costs are negative.

#ifndef GEACC_FLOW_MIN_COST_FLOW_H_
#define GEACC_FLOW_MIN_COST_FLOW_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/graph.h"

namespace geacc {

class SuccessiveShortestPaths {
 public:
  // The graph must outlive the solver. Source and sink must differ.
  SuccessiveShortestPaths(FlowGraph* graph, int source, int sink);

  // Pushes up to `max_units` along one cheapest source→sink residual path.
  // Returns the units actually pushed (0 if the sink is unreachable, i.e.
  // the maximum flow has been reached) — callers pass 1 to enumerate
  // per-unit matchings, or a large value to run at full bottleneck speed.
  int64_t Augment(int64_t max_units);

  // Pushes one unit along the cheapest path only if the path's real cost is
  // strictly below `cost_limit`; otherwise leaves the flow unchanged and
  // returns 0. Used by MinCostFlow-GEACC: unit costs are non-decreasing
  // across augmentations, so the first non-profitable path ends the sweep
  // with the flow resting exactly at the best Δ.
  int64_t AugmentIfCheaper(double cost_limit);

  // Runs to maximum flow. Returns the total units pushed by this call.
  int64_t RunToMaxFlow();

  int64_t total_flow() const { return total_flow_; }
  double total_cost() const { return total_cost_; }

  // Node potentials (Johnson), indexed by node.
  const std::vector<double>& potentials() const { return potential_; }
  // Nodes of the last path searched for, source first; empty when the
  // last search did not reach the sink.
  std::vector<int> LastPath() const;
  // Real cost of that path (also when AugmentIfCheaper rejected it).
  double last_path_cost() const { return last_path_cost_; }

  uint64_t ByteEstimate() const;

 private:
  // Cheapest-path search over reduced costs; fills parent_arc_ and updates
  // potentials. Returns false if the sink is unreachable.
  bool FindPath();
  void BellmanFordPotentials();

  FlowGraph* graph_;
  int source_;
  int sink_;
  int64_t total_flow_ = 0;
  double total_cost_ = 0.0;
  double last_path_cost_ = 0.0;

  std::vector<double> potential_;
  std::vector<double> distance_;
  std::vector<int> parent_arc_;
  std::vector<bool> settled_;
};

}  // namespace geacc

#endif  // GEACC_FLOW_MIN_COST_FLOW_H_
