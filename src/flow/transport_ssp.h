// Successive shortest paths on the one network MinCostFlow-GEACC builds:
// a dense bipartite transportation problem
//
//   source → event v   capacity c_v, cost 0
//   event v → user u   capacity 1,   cost pair_costs[v·|U| + u]  (1 − sim)
//   user u → sink      capacity c_u, cost 0
//
// It makes exactly the augmentations SuccessiveShortestPaths makes on the
// FlowGraph of that network (flow/min_cost_flow.h): the same node
// numbering (0 = source, 1..|V| events, |V|+1..|V|+|U| users, then the
// sink), the same Johnson potentials, the same (distance, id) settle
// order, the same reduced-cost, ε-improvement and path-cost arithmetic,
// and the same flow.dijkstra.* / flow.augmenting_paths counts. Only the
// representation differs:
//
//   * Each event keeps a dense forward-cost row in which a pair reads +inf
//     once it carries flow, so one branch-free kernel (simd::RelaxRow)
//     relaxes the row: a saturated pair gives candidate +inf, which never
//     improves. The real costs are read from the borrowed `pair_costs`.
//   * Each user keeps the ascending list of events holding its flow (its
//     backward arcs), plus its remaining sink capacity.
//
// A search settles the source and then, with no heap operation, every
// event the source reaches at distance exactly 0: their (0, id) keys come
// before every user and the sink, and ascending id is the generic engine's
// pop order. One heapify then starts Dijkstra proper on an indexed heap;
// any heap that pops the least (distance, id) settles the same nodes as
// the generic engine's lazy priority queue.
//
// Two checks of the generic loop are dropped because they never change a
// result: the residual test (a +inf cost never passes `cand + ε < dist`)
// and the settled-head test (a settled head has dist ≤ the tail's, and
// cand ≥ the tail's). The kernel's clamp maps a reduced cost of −0.0 to
// +0.0; that gives the generic candidate because no distance is −0.0.
//
// Cost per search: O(|V_s|·|U| + (|U| + Σ backward arcs scanned) + H log H)
// for |V_s| settled events and H heap operations. Memory: O(|V|·|U|)
// doubles (the forward rows) plus O(|V| + |U|) node state; the borrowed
// cost matrix is not counted.
//
// Costs must be finite and non-negative (the GEACC costs 1 − sim are), so
// there is no Bellman–Ford bootstrap. Not thread-safe; one engine per
// solve.

#ifndef GEACC_FLOW_TRANSPORT_SSP_H_
#define GEACC_FLOW_TRANSPORT_SSP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace geacc {

class TransportSsp {
 public:
  // `pair_costs` is |V| × |U| row-major (|V| = event_capacity.size(),
  // |U| = user_capacity.size()) and must outlive the engine.
  TransportSsp(const double* pair_costs, std::vector<int64_t> event_capacity,
               std::vector<int64_t> user_capacity);

  // SuccessiveShortestPaths::AugmentIfCheaper: pushes one unit along the
  // cheapest path iff its real cost is strictly below `cost_limit`.
  int64_t AugmentIfCheaper(double cost_limit);

  int64_t total_flow() const { return total_flow_; }
  double total_cost() const { return total_cost_; }

  // Flow on the (v, u) pair: 0 or 1.
  int64_t Flow(int v, int u) const;

  // Node potentials, in the numbering above.
  const std::vector<double>& potentials() const { return potential_; }
  // Nodes of the last path searched for, source first; empty when the
  // last search did not reach the sink.
  std::vector<int> LastPath() const;
  // Real cost of that path (also when AugmentIfCheaper rejected it).
  double last_path_cost() const { return last_path_cost_; }

  uint64_t ByteEstimate() const;

 private:
  // Indexed binary min-heap of nodes ordered by (distance, id). It keeps
  // its own copy of each key: a row relaxation lowers many distances at
  // once, and applying them one decrease-key at a time keeps every
  // sift inside a valid heap.
  class NodeHeap {
   public:
    void Init(int num_nodes) { position_.assign(num_nodes, -1); }
    bool empty() const { return entries_.empty(); }
    // Replaces the contents (none queued) with `nodes` keyed by
    // distance[node], in O(size).
    void Build(const std::vector<int>& nodes, const double* distance);
    void PushOrDecrease(int node, double key);
    int PopMin();
    void Clear();
    uint64_t ByteEstimate() const;

   private:
    struct Entry {
      double key;
      int node;
    };
    static bool Less(const Entry& a, const Entry& b) {
      return a.key < b.key || (a.key == b.key && a.node < b.node);
    }
    void Place(int slot, const Entry& entry) {
      entries_[slot] = entry;
      position_[entry.node] = slot;
    }
    void SiftUp(int slot);
    void SiftDown(int slot);

    std::vector<Entry> entries_;
    std::vector<int> position_;  // slot in entries_, or -1
  };

  int EventNode(int v) const { return 1 + v; }
  int UserNode(int u) const { return 1 + num_events_ + u; }
  bool IsEvent(int node) const { return node >= 1 && node <= num_events_; }
  double PairCost(int v, int u) const {
    return pair_costs_[static_cast<std::size_t>(v) * num_users_ + u];
  }

  // Cheapest-path search over reduced costs; fills parent_ and updates
  // the potentials. Returns false if the sink is unreachable.
  bool FindPath();
  // Real cost of the arc tail → head on the last path.
  double ArcCost(int tail, int head) const;
  // Moves one unit across the arc tail → head.
  void PushArc(int tail, int head);

  const double* pair_costs_;
  int num_events_;
  int num_users_;
  int source_;
  int sink_;
  int64_t total_flow_ = 0;
  double total_cost_ = 0.0;
  double last_path_cost_ = 0.0;

  std::vector<double> forward_cost_;       // |V|×|U|, +inf once saturated
  std::vector<int64_t> event_residual_;    // c_v − flow out of the source
  std::vector<int64_t> user_residual_;     // c_u − flow into the sink
  std::vector<std::vector<int>> holders_;  // per user, ascending events

  std::vector<double> potential_;
  std::vector<double> distance_;
  std::vector<int32_t> parent_;  // tail node of the arc into each node
  std::vector<int32_t> improved_;
  std::vector<int> queued_;
  NodeHeap heap_;
};

}  // namespace geacc

#endif  // GEACC_FLOW_TRANSPORT_SSP_H_
