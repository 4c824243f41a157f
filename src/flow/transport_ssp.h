// The library's one min-cost-flow engine: successive shortest paths on
// the network GEACC's conflict-free relaxation builds, a dense bipartite
// transportation problem
//
//   source → event v   capacity c_v, cost 0
//   event v → user u   capacity 1,   cost pair_costs[v·|U| + u]  (1 − sim)
//   user u → sink      capacity c_u, cost 0
//
// MinCostFlow-GEACC runs it over the whole instance, and the clique-lp
// bound (algo/bounds.h, BMatchingBound) over each suffix of the search
// order. It makes exactly the augmentations the generic engine kept as
// the test reference (in tests/flow/) makes on the arc-list graph of
// that network: the same node numbering (0 = source, 1..|V| events,
// |V|+1..|V|+|U| users, then the sink), the same Johnson potentials, the
// same (distance, id) settle order, the same reduced-cost, ε-improvement
// and path-cost arithmetic, and the same flow.dijkstra.* /
// flow.augmenting_paths counts. Only the representation differs:
//
//   * The forward costs are user-tiled (simd/kernels.h): users come in
//     tiles of 4 (one __m256d), and each tile holds every event's 4 costs
//     contiguously, so the (v, u) cost sits at
//     tiles[(u / 4)·4|V| + 4v + u % 4]. A pair reads +inf once it carries
//     flow, and padding past |U| reads +inf, so no kernel needs a residual
//     branch: a +inf cost gives candidate +inf, which never improves. The
//     tiles take |V|·|U| doubles plus padding, filled straight from the
//     borrowed `pair_costs`, which still supply the real costs.
//   * Each user keeps the ascending list of events holding its flow (its
//     backward arcs), plus its remaining sink capacity.
//
// A search runs in two phases.
//
//   1. The pass. The source reaches exactly the free events (c_v not yet
//      used up), each at potential and distance exactly +0.0: the source
//      arc's reduced cost keeps π_v ≤ π_s = 0, potentials never fall, and
//      the Johnson update adds min(0, d_t) = 0. Their (0, id) keys precede
//      every user and the sink, and their rows reach only users, so they
//      settle first, in ascending id, with no heap operation. One kernel
//      call (simd::RelaxFreeEvents) relaxes all of their rows: for each
//      group of 32 users it keeps the distances in registers across the
//      events, with candidate max(cost − π_u, +0.0), RelaxRow's bits for a
//      tail at +0.0.
//   2. Dijkstra proper on an indexed heap, which pops the least (distance,
//      id) and so settles the same nodes as the generic engine's lazy
//      priority queue. A settled event relaxes its row with simd::RelaxRow,
//      reading the tiles through their stride; a settled user scans its
//      backward arcs and its sink arc.
//
// Lazy parents. The pass writes no parent: it marks the users it improved,
// and a phase-2 improvement overwrites the mark. Only path nodes' parents
// are ever read (LastPath, the path cost and PushArc), so once the sink
// settles, each marked user on the path replays its chain over the free
// events with the same ε rule, which finds the event that last improved
// it.
//
// The sink-bounded heap. After the pass, let reach be the least
// d(u) + max(0, (0 + π_u) − π_t) over users u with sink capacity, and
// bound = reach + ε. The sink's final distance is ≤ bound: if the user u
// attaining reach settles first, its sink relaxation lands at ≤ reach or
// is refused because the sink already sits at ≤ that candidate + ε;
// otherwise the sink popped at a key ≤ d(u) ≤ reach. Every node popped
// before the sink is keyed ≤ the sink's final distance, so a heap that
// admits only nodes keyed ≤ bound, at heapify and at each decrease-key,
// pops the same nodes in the same order. Every distance, parent and
// improvement is still written and counted, and the Johnson update adds
// min(d, d_t) = d_t to every unsettled node whether it was queued or not,
// so potentials and counters do not move. With no reach (no user with
// sink capacity reached by the pass) the heap takes every finite key.
//
// Two checks of the generic loop are dropped because they never change a
// result: the residual test (a +inf cost never passes `cand + ε < dist`)
// and the settled-head test (a settled head has dist ≤ the tail's, and
// cand ≥ the tail's). The kernels' clamp maps a reduced cost of −0.0 to
// +0.0; that gives the generic candidate because no distance is −0.0.
//
// Cost per search: O(|V_f|·|U|) for the pass over |V_f| free events, in
// registers; O(|U|) for the bound and the heapify of the users keyed
// ≤ bound; O(|V_s|·|U| + Σ backward arcs scanned + H log H) for phase 2's
// |V_s| settled events and H heap operations, H counting only nodes keyed
// ≤ bound; and O(|V_f|) per path user for the parent replay. Memory:
// ~|V|·|U| doubles (the tiles) plus O(|V| + |U|) node state; the borrowed
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

#include "simd/kernels.h"

namespace geacc {

class TransportSsp {
 public:
  // `pair_costs` is |V| × |U| row-major (|V| = event_capacity.size(),
  // |U| = user_capacity.size()) and must outlive the engine.
  TransportSsp(const double* pair_costs, std::vector<int64_t> event_capacity,
               std::vector<int64_t> user_capacity);

  // Pushes one unit along the cheapest path iff its real cost is strictly
  // below `cost_limit` (the reference's AugmentIfCheaper).
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
  // Where the (v, u) forward cost sits in tiles_.
  int64_t TileIndex(int v, int u) const {
    return static_cast<int64_t>(u / simd::kCostTile) * tile_stride_ +
           static_cast<int64_t>(v) * simd::kCostTile + u % simd::kCostTile;
  }

  // Cheapest-path search over reduced costs; fills parent_ along the path
  // and updates the potentials. Returns false if the sink is unreachable.
  bool FindPath();
  // The free event whose row last improved user u in this search's pass:
  // the pass replayed for u alone, with its ε rule.
  int PassParent(int u) const;
  // Real cost of the arc tail → head on the last path.
  double ArcCost(int tail, int head) const;
  // Moves one unit across the arc tail → head.
  void PushArc(int tail, int head);

  const double* pair_costs_;
  int num_events_;
  int num_users_;
  int source_;
  int sink_;
  int64_t tile_stride_;  // doubles from one cost tile to the next: |V|·4
  int64_t total_flow_ = 0;
  double total_cost_ = 0.0;
  double last_path_cost_ = 0.0;

  // Forward costs, user-tiled (simd/kernels.h), +inf once the pair
  // carries flow; tiles_ is their 32-byte-aligned start in tile_storage_.
  std::vector<double> tile_storage_;
  double* tiles_ = nullptr;
  std::vector<int64_t> event_residual_;    // c_v − flow out of the source
  std::vector<int64_t> user_residual_;     // c_u − flow into the sink
  std::vector<std::vector<int>> holders_;  // per user, ascending events

  std::vector<double> potential_;
  std::vector<double> distance_;
  // Tail node of the arc into each node; kFromPass for a user whose
  // distance last fell in the free-event pass, until PassParent runs.
  std::vector<int32_t> parent_;
  static constexpr int32_t kFromPass = -2;
  std::vector<int32_t> improved_;
  std::vector<int32_t> free_events_;  // this search's, ascending
  std::vector<int> queued_;
  NodeHeap heap_;
};

}  // namespace geacc

#endif  // GEACC_FLOW_TRANSPORT_SSP_H_
