#include "flow/min_cost_flow.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "obs/stats.h"
#include "util/memory.h"

namespace geacc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Tolerance for floating-point reduced costs: tiny negatives produced by
// accumulated rounding are clamped to zero.
constexpr double kEps = 1e-9;

}  // namespace

SuccessiveShortestPaths::SuccessiveShortestPaths(FlowGraph* graph, int source,
                                                 int sink)
    : graph_(graph), source_(source), sink_(sink) {
  GEACC_CHECK(graph != nullptr);
  GEACC_CHECK(source >= 0 && source < graph->num_nodes());
  GEACC_CHECK(sink >= 0 && sink < graph->num_nodes());
  GEACC_CHECK_NE(source, sink);
  const int n = graph->num_nodes();
  potential_.assign(n, 0.0);
  distance_.assign(n, kInf);
  parent_arc_.assign(n, -1);
  settled_.assign(n, false);
  if (graph->HasNegativeCost()) BellmanFordPotentials();
}

void SuccessiveShortestPaths::BellmanFordPotentials() {
  const int n = graph_->num_nodes();
  std::vector<double> dist(n, kInf);
  dist[source_] = 0.0;
  for (int round = 0; round < n; ++round) {
    bool changed = false;
    for (int node = 0; node < n; ++node) {
      if (dist[node] == kInf) continue;
      for (const int arc : graph_->OutArcs(node)) {
        if (graph_->ResidualCapacity(arc) <= 0) continue;
        const double candidate = dist[node] + graph_->Cost(arc);
        if (candidate < dist[graph_->Head(arc)] - kEps) {
          dist[graph_->Head(arc)] = candidate;
          changed = true;
        }
      }
    }
    if (!changed) break;
    GEACC_CHECK_LT(round, n - 1) << "negative cycle in flow network";
  }
  for (int node = 0; node < n; ++node) {
    if (dist[node] < kInf) potential_[node] = dist[node];
  }
}

bool SuccessiveShortestPaths::FindPath() {
  const int n = graph_->num_nodes();
  std::fill(distance_.begin(), distance_.end(), kInf);
  std::fill(parent_arc_.begin(), parent_arc_.end(), -1);
  std::fill(settled_.begin(), settled_.end(), false);
  distance_[source_] = 0.0;

  using Entry = std::pair<double, int>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  queue.emplace(0.0, source_);
  // Batched locally and flushed once per search so the inner loop stays
  // counter-free.
  int64_t settles = 0;
  int64_t relaxations = 0;
  while (!queue.empty()) {
    const auto [dist, node] = queue.top();
    queue.pop();
    if (settled_[node]) continue;
    settled_[node] = true;
    ++settles;
    if (node == sink_) break;  // sink settled — path found
    for (const int arc : graph_->OutArcs(node)) {
      if (graph_->ResidualCapacity(arc) <= 0) continue;
      const int head = graph_->Head(arc);
      if (settled_[head]) continue;
      double reduced =
          graph_->Cost(arc) + potential_[node] - potential_[head];
      GEACC_DCHECK(reduced > -1e-6) << "reduced cost " << reduced;
      if (reduced < 0.0) reduced = 0.0;  // rounding guard
      const double candidate = dist + reduced;
      if (candidate + kEps < distance_[head]) {
        ++relaxations;
        distance_[head] = candidate;
        parent_arc_[head] = arc;
        queue.emplace(candidate, head);
      }
    }
  }
  GEACC_STATS_ADD("flow.dijkstra.settles", settles);
  GEACC_STATS_ADD("flow.dijkstra.relaxations", relaxations);
  if (distance_[sink_] == kInf) return false;

  // Johnson update keeps reduced costs non-negative for the next search.
  const double sink_distance = distance_[sink_];
  for (int node = 0; node < n; ++node) {
    potential_[node] += std::min(distance_[node], sink_distance);
  }
  return true;
}

int64_t SuccessiveShortestPaths::AugmentIfCheaper(double cost_limit) {
  if (!FindPath()) {
    last_path_cost_ = 0.0;
    return 0;
  }
  double path_cost = 0.0;
  for (int node = sink_; node != source_;) {
    const int arc = parent_arc_[node];
    path_cost += graph_->Cost(arc);
    node = graph_->Tail(arc);
  }
  last_path_cost_ = path_cost;
  if (path_cost >= cost_limit) return 0;
  for (int node = sink_; node != source_;) {
    const int arc = parent_arc_[node];
    graph_->Push(arc, 1);
    node = graph_->Tail(arc);
  }
  total_flow_ += 1;
  total_cost_ += path_cost;
  GEACC_STATS_ADD("flow.augmenting_paths", 1);
  GEACC_STATS_ADD("flow.units_pushed", 1);
  return 1;
}

int64_t SuccessiveShortestPaths::Augment(int64_t max_units) {
  GEACC_CHECK_GT(max_units, 0);
  if (!FindPath()) {
    last_path_cost_ = 0.0;
    return 0;
  }
  // Bottleneck along the parent chain.
  int64_t bottleneck = max_units;
  for (int node = sink_; node != source_;) {
    const int arc = parent_arc_[node];
    bottleneck = std::min(bottleneck, graph_->ResidualCapacity(arc));
    node = graph_->Tail(arc);
  }
  GEACC_CHECK_GT(bottleneck, 0);
  double path_cost = 0.0;
  for (int node = sink_; node != source_;) {
    const int arc = parent_arc_[node];
    graph_->Push(arc, bottleneck);
    path_cost += graph_->Cost(arc);
    node = graph_->Tail(arc);
  }
  last_path_cost_ = path_cost;
  total_flow_ += bottleneck;
  total_cost_ += path_cost * static_cast<double>(bottleneck);
  GEACC_STATS_ADD("flow.augmenting_paths", 1);
  GEACC_STATS_ADD("flow.units_pushed", bottleneck);
  return bottleneck;
}

int64_t SuccessiveShortestPaths::RunToMaxFlow() {
  int64_t pushed = 0;
  while (true) {
    const int64_t step = Augment(std::numeric_limits<int64_t>::max());
    if (step == 0) return pushed;
    pushed += step;
  }
}

std::vector<int> SuccessiveShortestPaths::LastPath() const {
  std::vector<int> path;
  if (distance_[sink_] == kInf) return path;
  for (int node = sink_; node != source_;
       node = graph_->Tail(parent_arc_[node])) {
    path.push_back(node);
  }
  path.push_back(source_);
  std::reverse(path.begin(), path.end());
  return path;
}

uint64_t SuccessiveShortestPaths::ByteEstimate() const {
  return VectorBytes(potential_) + VectorBytes(distance_) +
         VectorBytes(parent_arc_) +
         settled_.capacity() / 8;  // vector<bool> is bit-packed
}

}  // namespace geacc
