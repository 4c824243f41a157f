#include "algo/greedy_solver.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "algo/admission.h"
#include "index/knn_index.h"
#include "obs/stats.h"
#include "util/check.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace geacc {
namespace {

// Max-heap on the admission order: the top admits before every other entry.
struct AdmitsLater {
  bool operator()(const Candidate& a, const Candidate& b) const {
    return AdmitsBefore(b, a);
  }
};

// Mutable solve-state shared by the helper lambdas.
struct GreedyState {
  std::vector<std::unique_ptr<NnCursor>> event_cursors;  // over users
  std::vector<std::unique_ptr<NnCursor>> user_cursors;   // over events
  std::priority_queue<Candidate, std::vector<Candidate>, AdmitsLater> heap;
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
  Admission admission(instance);
  if (num_events == 0 || num_users == 0) {
    stats.wall_seconds = timer.Seconds();
    return {admission.TakeArrangement(), stats};
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

  // Candidates a cursor skipped because they were already pushed or had
  // become infeasible (lazy re-insert work, batched and flushed below).
  int64_t cursor_skips = 0;

  auto push_pair = [&](EventId v, UserId u, double similarity) {
    if (!state.pushed.insert(PairKey(v, u)).second) return;  // already in H
    state.heap.push({similarity, v, u});
    ++stats.heap_pushes;
  };

  // Advances an event's cursor to its next admissible unvisited user and
  // pushes the pair. Inadmissibility at skip time is permanent (seats
  // only decrease, held events only accumulate), so consumed candidates
  // are never needed again.
  auto advance_event = [&](EventId v) {
    while (true) {
      const auto next = state.event_cursors[v]->Next();
      if (!next) return;                     // v is a finished node
      if (next->similarity <= 0.0) return;   // all later NNs also ≤ 0
      const UserId u = next->id;
      if (state.pushed.contains(PairKey(v, u))) {
        ++cursor_skips;  // visited
        continue;
      }
      if (!admission.Admissible(v, u)) {
        ++cursor_skips;
        continue;
      }
      push_pair(v, u, next->similarity);
      return;
    }
  };

  auto advance_user = [&](UserId u) {
    while (true) {
      const auto next = state.user_cursors[u]->Next();
      if (!next) return;
      if (next->similarity <= 0.0) return;
      const EventId v = next->id;
      if (state.pushed.contains(PairKey(v, u))) {
        ++cursor_skips;
        continue;
      }
      if (!admission.Admissible(v, u)) {
        ++cursor_skips;
        continue;
      }
      push_pair(v, u, next->similarity);
      return;
    }
  };

  {
    // Initialization (lines 1–9): each node contributes its first NN,
    // unchecked (Algorithm 2 lines 2–8 push plain first-NNs). Events seed
    // first, then users; both phases parallelize exactly:
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
      const Candidate top = state.heap.top();
      state.heap.pop();
      ++stats.heap_pops;
      admission.TryAdmit(top.event, top.user);
      if (admission.EventHasSeat(top.event)) advance_event(top.event);
      if (admission.UserHasSeat(top.user)) advance_user(top.user);
    }
  }
  GEACC_STATS_ADD("greedy.heap_pushes", stats.heap_pushes);
  GEACC_STATS_ADD("greedy.heap_pops", stats.heap_pops);
  GEACC_STATS_ADD("greedy.cursor_skips", cursor_skips);
  GEACC_STATS_ADD("greedy.matches", admission.arrangement().size());

  stats.logical_peak_bytes =
      admission.ByteEstimate() +
      state.pushed.size() * (sizeof(uint64_t) + sizeof(void*)) +
      static_cast<uint64_t>(stats.heap_pushes) * sizeof(Candidate) +
      user_index->ByteEstimate() + event_index->ByteEstimate() +
      (static_cast<uint64_t>(num_events) + num_users) * 1600;  // cursors
  stats.wall_seconds = timer.Seconds();
  return {admission.TakeArrangement(), stats};
}

}  // namespace geacc
