// Directed flow network with residual arcs.
//
// The classic paired-arc representation: AddArc(u, v, cap, cost) stores a
// forward arc with residual capacity `cap` and a backward arc with residual
// capacity 0 and cost -cost at index `arc ^ 1`. Pushing flow moves residual
// capacity between the pair. Costs are real-valued (the GEACC reduction
// uses cost = 1 - sim ∈ [0, 1]).

#ifndef GEACC_TESTS_FLOW_GRAPH_H_
#define GEACC_TESTS_FLOW_GRAPH_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace geacc {

class FlowGraph {
 public:
  explicit FlowGraph(int num_nodes);

  // Adds a forward/backward arc pair; returns the forward arc's index.
  // The backward arc is at `index ^ 1`.
  int AddArc(int from, int to, int64_t capacity, double cost);

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  int num_arcs() const { return static_cast<int>(heads_.size()); }

  // Arc indices (forward and backward) leaving `node`.
  const std::vector<int>& OutArcs(int node) const {
    GEACC_DCHECK(node >= 0 && node < num_nodes());
    return adjacency_[node];
  }

  int Head(int arc) const { return heads_[arc]; }
  int Tail(int arc) const { return heads_[arc ^ 1]; }
  double Cost(int arc) const { return costs_[arc]; }
  int64_t ResidualCapacity(int arc) const { return residual_[arc]; }

  // Flow currently on a *forward* arc (its backward residual).
  int64_t Flow(int forward_arc) const {
    GEACC_DCHECK((forward_arc & 1) == 0);
    return residual_[forward_arc ^ 1];
  }

  // Moves `amount` units of residual capacity across the pair.
  void Push(int arc, int64_t amount) {
    GEACC_DCHECK(amount >= 0 && amount <= residual_[arc]);
    residual_[arc] -= amount;
    residual_[arc ^ 1] += amount;
  }

  // True if any arc has negative cost (then SSP needs a Bellman–Ford
  // bootstrap for its potentials).
  bool HasNegativeCost() const { return has_negative_cost_; }

  uint64_t ByteEstimate() const;

 private:
  std::vector<std::vector<int>> adjacency_;
  std::vector<int> heads_;
  std::vector<double> costs_;
  std::vector<int64_t> residual_;
  bool has_negative_cost_ = false;
};

}  // namespace geacc

#endif  // GEACC_TESTS_FLOW_GRAPH_H_
