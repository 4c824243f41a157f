#include "algo/greedy_solver.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "index/knn_index.h"
#include "obs/stats.h"
#include "util/check.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace geacc {
namespace {

// Heap entry ordered by (similarity desc, event asc, user asc) so pops are
// deterministic under similarity ties.
struct PairEntry {
  double similarity;
  EventId v;
  UserId u;

  bool operator<(const PairEntry& other) const {
    if (similarity != other.similarity) return similarity < other.similarity;
    if (v != other.v) return v > other.v;
    return u > other.u;
  }
};

// Mutable solve-state shared by the helper lambdas.
struct GreedyState {
  std::vector<int> event_capacity;
  std::vector<int> user_capacity;
  std::vector<std::unique_ptr<NnCursor>> event_cursors;  // over users
  std::vector<std::unique_ptr<NnCursor>> user_cursors;   // over events
  std::priority_queue<PairEntry> heap;
  std::unordered_set<uint64_t> pushed;  // pairs ever pushed into the heap
};

}  // namespace

SolveResult GreedySolver::Solve(const Instance& instance) const {
  return SolveImpl(instance, nullptr, nullptr);
}

SolveResult GreedySolver::SolveOver(const Instance& instance,
                                    const KnnIndex& user_index,
                                    const KnnIndex& event_index) const {
  GEACC_CHECK_EQ(user_index.num_points(), instance.num_users());
  GEACC_CHECK_EQ(event_index.num_points(), instance.num_events());
  return SolveImpl(instance, &user_index, &event_index);
}

SolveResult GreedySolver::SolveImpl(const Instance& instance,
                                    const KnnIndex* user_index,
                                    const KnnIndex* event_index) const {
  WallTimer timer;
  SolverStats stats;
  const int num_events = instance.num_events();
  const int num_users = instance.num_users();
  Arrangement matching(num_events, num_users);
  if (num_events == 0 || num_users == 0) {
    stats.wall_seconds = timer.Seconds();
    return {std::move(matching), stats};
  }

  std::unique_ptr<KnnIndex> owned_user_index;
  std::unique_ptr<KnnIndex> owned_event_index;
  if (user_index == nullptr) {
    owned_user_index =
        MakeIndex(instance.user_attributes(), instance.similarity());
    user_index = owned_user_index.get();
  }
  if (event_index == nullptr) {
    owned_event_index =
        MakeIndex(instance.event_attributes(), instance.similarity());
    event_index = owned_event_index.get();
  }

  GreedyState state;
  state.event_capacity.resize(num_events);
  state.user_capacity.resize(num_users);
  for (EventId v = 0; v < num_events; ++v) {
    state.event_capacity[v] = instance.event_capacity(v);
  }
  for (UserId u = 0; u < num_users; ++u) {
    state.user_capacity[u] = instance.user_capacity(u);
  }
  // Cursor creation and NN-frontier seeding fan out over the pool; the
  // iteration loop below is inherently sequential (each pop changes the
  // constraint state the next pop is judged against). Cursors occupy
  // disjoint slots and CreateCursor/Next touch no shared mutable index
  // state, so concurrent creation and advancement are race-free.
  ThreadPool pool(ResolveThreadCount(options_.threads));
  state.event_cursors.resize(num_events);
  state.user_cursors.resize(num_users);
  pool.ParallelFor(0, num_events, [&](int /*chunk*/, int64_t chunk_begin,
                                      int64_t chunk_end) {
    for (EventId v = static_cast<EventId>(chunk_begin);
         v < static_cast<EventId>(chunk_end); ++v) {
      state.event_cursors[v] =
          user_index->CreateCursor(instance.event_attributes().Row(v));
    }
  });
  pool.ParallelFor(0, num_users, [&](int /*chunk*/, int64_t chunk_begin,
                                     int64_t chunk_end) {
    for (UserId u = static_cast<UserId>(chunk_begin);
         u < static_cast<UserId>(chunk_end); ++u) {
      state.user_cursors[u] =
          event_index->CreateCursor(instance.user_attributes().Row(u));
    }
  });

  const ConflictGraph& conflicts = instance.conflicts();
  // True iff v conflicts with an event already matched to u.
  auto conflicts_with_matched = [&](EventId v, UserId u) {
    for (const EventId w : matching.EventsOf(u)) {
      if (conflicts.AreConflicting(v, w)) return true;
    }
    return false;
  };

  // Candidates a cursor skipped because they were already pushed or had
  // become infeasible (lazy re-insert work, batched and flushed below).
  int64_t cursor_skips = 0;
  int64_t matches = 0;

  auto push_pair = [&](EventId v, UserId u, double similarity) {
    if (!state.pushed.insert(PairKey(v, u)).second) return;  // already in H
    state.heap.push({similarity, v, u});
    ++stats.heap_pushes;
  };

  // Advances an event's cursor to its next feasible unvisited user and
  // pushes the pair. Feasibility at skip time is permanent (capacities
  // only decrease, conflicts only accumulate), so consumed candidates are
  // never needed again. `check_constraints` is false during initialization
  // (Algorithm 2 lines 2–8 push plain first-NNs).
  auto advance_event = [&](EventId v, bool check_constraints) {
    while (true) {
      const auto next = state.event_cursors[v]->Next();
      if (!next) return;                     // v is a finished node
      if (next->similarity <= 0.0) return;   // all later NNs also ≤ 0
      const UserId u = next->id;
      if (state.pushed.contains(PairKey(v, u))) {
        ++cursor_skips;  // visited
        continue;
      }
      if (check_constraints) {
        if (state.user_capacity[u] <= 0 || conflicts_with_matched(v, u)) {
          ++cursor_skips;
          continue;
        }
      }
      push_pair(v, u, next->similarity);
      return;
    }
  };

  auto advance_user = [&](UserId u, bool check_constraints) {
    while (true) {
      const auto next = state.user_cursors[u]->Next();
      if (!next) return;
      if (next->similarity <= 0.0) return;
      const EventId v = next->id;
      if (state.pushed.contains(PairKey(v, u))) {
        ++cursor_skips;
        continue;
      }
      if (check_constraints) {
        if (state.event_capacity[v] <= 0 || conflicts_with_matched(v, u)) {
          ++cursor_skips;
          continue;
        }
      }
      push_pair(v, u, next->similarity);
      return;
    }
  };

  {
    // Initialization (lines 1–9): each node contributes its first NN.
    // Serially this is advance_event(v, false) for every v then
    // advance_user(u, false) for every u; both phases parallelize exactly:
    //
    //  * Event phase: cursor v yields only (v, ·) pairs and only event v
    //    ever pushes (v, ·), so the pushed-set check can never fire —
    //    every event independently consumes exactly one cursor entry.
    //  * User phase: cursor u yields only (·, u) pairs, and the only
    //    (·, u) entries in `pushed` are the event-phase ones — pairs
    //    pushed by earlier users carry a different user id. Skip
    //    decisions therefore depend only on the frozen event-phase set,
    //    which the parallel region reads without mutation.
    //
    // Candidates fold on the caller in id order, reproducing the serial
    // heap push sequence bit for bit; skip counts are integer sums.
    GEACC_PHASE_TIMER("greedy.init");
    struct Seed {
      EventId v;
      UserId u;
      double similarity;
    };
    ParallelMap<std::vector<Seed>>(
        pool, 0, num_events,
        [&](int64_t chunk_begin, int64_t chunk_end) {
          std::vector<Seed> seeds;
          for (EventId v = static_cast<EventId>(chunk_begin);
               v < static_cast<EventId>(chunk_end); ++v) {
            const auto next = state.event_cursors[v]->Next();
            if (next && next->similarity > 0.0) {
              seeds.push_back({v, next->id, next->similarity});
            }
          }
          return seeds;
        },
        [&](const std::vector<Seed>& seeds) {
          for (const Seed& seed : seeds) {
            push_pair(seed.v, seed.u, seed.similarity);
          }
        });
    struct UserSeeds {
      std::vector<Seed> seeds;
      int64_t skips = 0;
    };
    ParallelMap<UserSeeds>(
        pool, 0, num_users,
        [&](int64_t chunk_begin, int64_t chunk_end) {
          UserSeeds out;
          for (UserId u = static_cast<UserId>(chunk_begin);
               u < static_cast<UserId>(chunk_end); ++u) {
            while (true) {
              const auto next = state.user_cursors[u]->Next();
              if (!next) break;
              if (next->similarity <= 0.0) break;
              if (state.pushed.contains(PairKey(next->id, u))) {
                ++out.skips;  // visited via the event phase
                continue;
              }
              out.seeds.push_back({next->id, u, next->similarity});
              break;
            }
          }
          return out;
        },
        [&](const UserSeeds& out) {
          cursor_skips += out.skips;
          for (const Seed& seed : out.seeds) {
            push_pair(seed.v, seed.u, seed.similarity);
          }
        });
  }

  {
    // Iteration (lines 11–23).
    GEACC_PHASE_TIMER("greedy.iterate");
    while (!state.heap.empty()) {
      const PairEntry top = state.heap.top();
      state.heap.pop();
      ++stats.heap_pops;
      const EventId v = top.v;
      const UserId u = top.u;
      if (state.event_capacity[v] > 0 && state.user_capacity[u] > 0 &&
          !conflicts_with_matched(v, u)) {
        matching.Add(v, u);
        ++matches;
        --state.event_capacity[v];
        --state.user_capacity[u];
      }
      if (state.event_capacity[v] > 0) advance_event(v, true);
      if (state.user_capacity[u] > 0) advance_user(u, true);
    }
  }
  GEACC_STATS_ADD("greedy.heap_pushes", stats.heap_pushes);
  GEACC_STATS_ADD("greedy.heap_pops", stats.heap_pops);
  GEACC_STATS_ADD("greedy.cursor_skips", cursor_skips);
  GEACC_STATS_ADD("greedy.matches", matches);

  stats.logical_peak_bytes =
      VectorBytes(state.event_capacity) + VectorBytes(state.user_capacity) +
      state.pushed.size() * (sizeof(uint64_t) + sizeof(void*)) +
      static_cast<uint64_t>(stats.heap_pushes) * sizeof(PairEntry) +
      user_index->ByteEstimate() + event_index->ByteEstimate() +
      (static_cast<uint64_t>(num_events) + num_users) * 1600 +  // cursors
      matching.ByteEstimate();
  stats.wall_seconds = timer.Seconds();
  return {std::move(matching), stats};
}

}  // namespace geacc
