#include "flow/transport_ssp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "obs/stats.h"
#include "simd/kernels.h"
#include "simd/simd.h"
#include "util/check.h"
#include "util/memory.h"

namespace geacc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The improvement tolerance of the generic reference engine (tests/flow/).
constexpr double kEps = 1e-9;
// The cost tiles start on a 32-byte boundary, so no tile read splits a
// cache line.
constexpr std::uintptr_t kTileAlign = 32;

bool IsPositiveZero(double x) { return x == 0.0 && !std::signbit(x); }

}  // namespace

// ----------------------------------------------------------- NodeHeap ----

void TransportSsp::NodeHeap::Build(const std::vector<int>& nodes,
                                   const double* distance) {
  entries_.resize(nodes.size());
  for (size_t slot = 0; slot < nodes.size(); ++slot) {
    Place(static_cast<int>(slot), {distance[nodes[slot]], nodes[slot]});
  }
  for (int slot = static_cast<int>(entries_.size()) / 2 - 1; slot >= 0;
       --slot) {
    SiftDown(slot);
  }
}

void TransportSsp::NodeHeap::PushOrDecrease(int node, double key) {
  int slot = position_[node];
  if (slot < 0) {
    slot = static_cast<int>(entries_.size());
    entries_.push_back({key, node});
  }
  GEACC_DCHECK(slot == static_cast<int>(entries_.size()) - 1 ||
               key <= entries_[slot].key);
  entries_[slot].key = key;
  SiftUp(slot);
}

int TransportSsp::NodeHeap::PopMin() {
  const int top = entries_.front().node;
  position_[top] = -1;
  const Entry last = entries_.back();
  entries_.pop_back();
  if (!entries_.empty()) {
    Place(0, last);
    SiftDown(0);
  }
  return top;
}

void TransportSsp::NodeHeap::Clear() {
  for (const Entry& entry : entries_) position_[entry.node] = -1;
  entries_.clear();
}

void TransportSsp::NodeHeap::SiftUp(int slot) {
  const Entry entry = entries_[slot];
  while (slot > 0) {
    const int parent = (slot - 1) / 2;
    if (!Less(entry, entries_[parent])) break;
    Place(slot, entries_[parent]);
    slot = parent;
  }
  Place(slot, entry);
}

void TransportSsp::NodeHeap::SiftDown(int slot) {
  const int size = static_cast<int>(entries_.size());
  const Entry entry = entries_[slot];
  while (true) {
    int child = 2 * slot + 1;
    if (child >= size) break;
    if (child + 1 < size && Less(entries_[child + 1], entries_[child])) {
      ++child;
    }
    if (!Less(entries_[child], entry)) break;
    Place(slot, entries_[child]);
    slot = child;
  }
  Place(slot, entry);
}

uint64_t TransportSsp::NodeHeap::ByteEstimate() const {
  return VectorBytes(entries_) + VectorBytes(position_);
}

// -------------------------------------------------------- TransportSsp ----

TransportSsp::TransportSsp(const double* pair_costs,
                           std::vector<int64_t> event_capacity,
                           std::vector<int64_t> user_capacity)
    : pair_costs_(pair_costs),
      num_events_(static_cast<int>(event_capacity.size())),
      num_users_(static_cast<int>(user_capacity.size())),
      source_(0),
      sink_(num_events_ + num_users_ + 1),
      tile_stride_(static_cast<int64_t>(num_events_) * simd::kCostTile),
      event_residual_(std::move(event_capacity)),
      user_residual_(std::move(user_capacity)) {
  GEACC_CHECK(pair_costs != nullptr || num_events_ == 0 || num_users_ == 0);
  for (const int64_t c : event_residual_) GEACC_CHECK_GE(c, 0);
  for (const int64_t c : user_residual_) GEACC_CHECK_GE(c, 0);
  // Filled straight from the borrowed rows, tile by tile, so no second
  // |V|×|U| copy is ever held.
  const int64_t num_tiles =
      (num_users_ + simd::kCostTile - 1) / simd::kCostTile;
  tile_storage_.resize(static_cast<size_t>(num_tiles * tile_stride_) +
                       kTileAlign / sizeof(double) - 1);
  const auto raw = reinterpret_cast<std::uintptr_t>(tile_storage_.data());
  tiles_ = tile_storage_.data() +
           (kTileAlign - raw % kTileAlign) % kTileAlign / sizeof(double);
  for (int64_t tile = 0; tile < num_tiles; ++tile) {
    double* out = tiles_ + tile * tile_stride_;
    const int first = static_cast<int>(tile * simd::kCostTile);
    for (int v = 0; v < num_events_; ++v) {
      for (int lane = 0; lane < simd::kCostTile; ++lane, ++out) {
        const int u = first + lane;
        if (u >= num_users_) {
          *out = kInf;  // padding past |U|: never improves
          continue;
        }
        const double cost = PairCost(v, u);
        // Non-negative costs keep the zero potentials valid (no
        // Bellman–Ford bootstrap); finite ones keep +inf free to mean
        // "saturated".
        GEACC_CHECK(cost >= 0.0 && cost < kInf) << "pair cost " << cost;
        *out = cost;
      }
    }
  }
  holders_.resize(num_users_);
  const int n = sink_ + 1;
  potential_.assign(n, 0.0);
  distance_.assign(n, kInf);
  parent_.assign(n, -1);
  improved_.resize(num_users_);
  free_events_.reserve(num_events_);
  queued_.reserve(n);
  heap_.Init(n);
}

bool TransportSsp::FindPath() {
  std::fill(distance_.begin(), distance_.end(), kInf);
  std::fill(parent_.begin(), parent_.end(), -1);
  distance_[source_] = 0.0;
  const simd::Level level = simd::ActiveLevel();
  const int first_user = UserNode(0);
  double* user_distance = distance_.data() + first_user;
  const double* user_potential = potential_.data() + first_user;
  int32_t* user_parent = parent_.data() + first_user;
  // Batched locally and flushed once per search, as in the generic engine.
  int64_t settles = 1;  // the source
  int64_t relaxations = 0;

  // One scalar relaxation in the generic engine's arithmetic.
  const auto relax = [&](double cost, int tail, int head, double dist) {
    double reduced = cost + potential_[tail] - potential_[head];
    GEACC_DCHECK(reduced > -1e-6) << "reduced cost " << reduced;
    if (reduced < 0.0) reduced = 0.0;  // rounding guard
    const double candidate = dist + reduced;
    if (!(candidate + kEps < distance_[head])) return false;
    ++relaxations;
    distance_[head] = candidate;
    parent_[head] = tail;
    return true;
  };

  // Phase 1 (the header says why it is exact): the source reaches the
  // free events at distance and potential +0.0, they settle first in
  // ascending id, and one pass relaxes all their rows.
  free_events_.clear();
  for (int v = 0; v < num_events_; ++v) {
    if (event_residual_[v] == 0) continue;
    relax(0.0, source_, EventNode(v), 0.0);
    GEACC_DCHECK(IsPositiveZero(potential_[EventNode(v)]) &&
                 IsPositiveZero(distance_[EventNode(v)]));
    free_events_.push_back(v);
  }
  settles += static_cast<int64_t>(free_events_.size());
  relaxations += simd::RelaxFreeEvents(
      level, tiles_, tile_stride_, free_events_.data(),
      static_cast<int64_t>(free_events_.size()), user_potential, kEps,
      user_distance, user_parent, kFromPass, num_users_);

  // The sink-bounded heap (see the header): the sink ends at ≤ bound, so
  // only nodes keyed ≤ bound are queued. With no reach the heap takes
  // every finite key, as the generic queue does.
  double reach = kInf;
  const double sink_potential = potential_[sink_];
  for (int u = 0; u < num_users_; ++u) {
    if (user_residual_[u] == 0) continue;
    double reduced = 0.0 + user_potential[u] - sink_potential;
    if (reduced < 0.0) reduced = 0.0;
    reach = std::min(reach, user_distance[u] + reduced);
  }
  const double bound =
      reach < kInf ? reach + kEps : std::numeric_limits<double>::max();
  const auto push = [&](int node) {
    if (distance_[node] <= bound) heap_.PushOrDecrease(node, distance_[node]);
  };

  // Dijkstra proper over whatever the pass reached.
  queued_.clear();
  for (int u = 0; u < num_users_; ++u) {
    if (user_distance[u] <= bound) queued_.push_back(UserNode(u));
  }
  heap_.Build(queued_, distance_.data());
  while (!heap_.empty()) {
    const int node = heap_.PopMin();
    ++settles;
    if (node == sink_) break;  // sink settled — path found
    const double dist = distance_[node];
    if (IsEvent(node)) {
      const int v = node - 1;
      // The kernel's clamp equals the generic one only for dist != −0.0.
      GEACC_DCHECK(!std::signbit(dist));
      const int64_t count = simd::RelaxRow(
          level, tiles_ + static_cast<int64_t>(v) * simd::kCostTile,
          tile_stride_, potential_[node], user_potential, dist, kEps,
          user_distance, user_parent, node, improved_.data(), num_users_);
      relaxations += count;
      for (int64_t k = 0; k < count; ++k) push(first_user + improved_[k]);
      continue;
    }
    const int u = node - first_user;
    for (const int v : holders_[u]) {  // backward arcs u → v
      if (relax(-PairCost(v, u), node, EventNode(v), dist)) push(EventNode(v));
    }
    if (user_residual_[u] > 0 && relax(0.0, node, sink_, dist)) push(sink_);
  }
  heap_.Clear();
  GEACC_STATS_ADD("flow.dijkstra.settles", settles);
  GEACC_STATS_ADD("flow.dijkstra.relaxations", relaxations);
  if (distance_[sink_] == kInf) return false;

  // Lazy parents: only the path users the pass left marked replay it.
  for (int node = parent_[sink_]; node != source_; node = parent_[node]) {
    if (parent_[node] == kFromPass) {
      parent_[node] = EventNode(PassParent(node - first_user));
    }
  }

  // Johnson update keeps reduced costs non-negative for the next search.
  const double sink_distance = distance_[sink_];
  for (size_t node = 0; node < potential_.size(); ++node) {
    potential_[node] += std::min(distance_[node], sink_distance);
  }
  return true;
}

int TransportSsp::PassParent(int u) const {
  const double potential = potential_[UserNode(u)];
  double best = kInf;
  int parent = -1;
  for (const int32_t v : free_events_) {
    double reduced = tiles_[TileIndex(v, u)] - potential;
    reduced = reduced > 0.0 ? reduced : 0.0;
    if (reduced + kEps < best) {
      best = reduced;
      parent = v;
    }
  }
  GEACC_DCHECK(parent >= 0 && best == distance_[UserNode(u)]);
  return parent;
}

double TransportSsp::ArcCost(int tail, int head) const {
  if (head == sink_ || tail == source_) return 0.0;
  if (IsEvent(tail)) return PairCost(tail - 1, head - UserNode(0));
  return -PairCost(head - 1, tail - UserNode(0));  // backward arc
}

void TransportSsp::PushArc(int tail, int head) {
  if (head == sink_) {
    --user_residual_[tail - UserNode(0)];
  } else if (tail == source_) {
    --event_residual_[head - 1];
  } else if (IsEvent(tail)) {
    const int v = tail - 1;
    const int u = head - UserNode(0);
    tiles_[TileIndex(v, u)] = kInf;
    std::vector<int>& events = holders_[u];
    events.insert(std::lower_bound(events.begin(), events.end(), v), v);
  } else {  // backward arc: cancel the unit on head → tail
    const int v = head - 1;
    const int u = tail - UserNode(0);
    tiles_[TileIndex(v, u)] = PairCost(v, u);
    std::vector<int>& events = holders_[u];
    const auto it = std::lower_bound(events.begin(), events.end(), v);
    GEACC_DCHECK(it != events.end() && *it == v);
    events.erase(it);
  }
}

int64_t TransportSsp::AugmentIfCheaper(double cost_limit) {
  if (!FindPath()) {
    last_path_cost_ = 0.0;
    return 0;
  }
  // Summed from the sink back to the source, as the generic engine does.
  double path_cost = 0.0;
  for (int node = sink_; node != source_;) {
    const int tail = parent_[node];
    path_cost += ArcCost(tail, node);
    node = tail;
  }
  last_path_cost_ = path_cost;
  if (path_cost >= cost_limit) return 0;
  for (int node = sink_; node != source_;) {
    const int tail = parent_[node];
    PushArc(tail, node);
    node = tail;
  }
  total_flow_ += 1;
  total_cost_ += path_cost;
  GEACC_STATS_ADD("flow.augmenting_paths", 1);
  GEACC_STATS_ADD("flow.units_pushed", 1);
  return 1;
}

int64_t TransportSsp::Flow(int v, int u) const {
  GEACC_DCHECK(v >= 0 && v < num_events_ && u >= 0 && u < num_users_);
  return tiles_[TileIndex(v, u)] == kInf ? 1 : 0;
}

std::vector<int> TransportSsp::LastPath() const {
  std::vector<int> path;
  if (distance_[sink_] == kInf) return path;
  for (int node = sink_; node != -1; node = parent_[node]) {
    path.push_back(node);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

uint64_t TransportSsp::ByteEstimate() const {
  uint64_t bytes = VectorBytes(tile_storage_) + VectorBytes(event_residual_) +
                   VectorBytes(user_residual_) + VectorBytes(holders_) +
                   VectorBytes(potential_) + VectorBytes(distance_) +
                   VectorBytes(parent_) + VectorBytes(improved_) +
                   VectorBytes(free_events_) + VectorBytes(queued_) +
                   heap_.ByteEstimate();
  for (const auto& events : holders_) bytes += VectorBytes(events);
  return bytes;
}

}  // namespace geacc
