#include "algo/greedy_solver.h"

#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "algo/admission.h"
#include "index/linear_scan_index.h"
#include "obs/stats.h"
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

// Advances event v's cursor to the next pair `admission` would admit now,
// or nullopt once v's positive pairs run out. A skipped pair stays refused
// (seats only fall, held events only accumulate), so it is never needed
// again.
std::optional<Candidate> NextAdmissible(NnCursor& cursor, EventId v,
                                        const Admission& admission,
                                        int64_t& skips) {
  while (const auto next = cursor.Next()) {
    if (next->similarity <= 0.0) break;  // all later users score ≤ 0 too
    if (admission.Admissible(v, next->id)) {
      return Candidate{next->similarity, v, next->id};
    }
    ++skips;
  }
  return std::nullopt;
}

}  // namespace

SolveResult GreedySolver::Solve(const Instance& instance) const {
  WallTimer timer;
  SolverStats stats;
  const int num_events = instance.num_events();
  Admission admission(instance);
  if (num_events == 0 || instance.num_users() == 0) {
    stats.wall_seconds = timer.Seconds();
    return {admission.TakeArrangement(), stats};
  }

  const LinearScanIndex users(instance.user_attributes(),
                              instance.similarity());
  std::vector<std::unique_ptr<NnCursor>> cursors(num_events);
  std::priority_queue<Candidate, std::vector<Candidate>, AdmitsLater> heap;
  int64_t cursor_skips = 0;

  {
    // Initialization (lines 1–9): each event with a seat opens its cursor
    // and contributes its first admissible user. Nothing is admitted until
    // the loop below, so the events are independent and fan out over the
    // pool, each writing only its own cursor slot. Heads fold on the
    // caller in id order, reproducing the serial push sequence; skip
    // counts are integer sums.
    GEACC_PHASE_TIMER("greedy.init");
    ThreadPool pool(ResolveThreadCount(options_.threads));
    struct Heads {
      std::vector<Candidate> heads;
      int64_t skips = 0;
    };
    ParallelMap<Heads>(
        pool, 0, num_events,
        [&](int64_t chunk_begin, int64_t chunk_end) {
          Heads out;
          for (EventId v = static_cast<EventId>(chunk_begin);
               v < static_cast<EventId>(chunk_end); ++v) {
            if (!admission.EventHasSeat(v)) continue;
            cursors[v] = users.CreateCursor(instance.event_attributes().Row(v),
                                            admission.user_seats());
            if (const auto head =
                    NextAdmissible(*cursors[v], v, admission, out.skips)) {
              out.heads.push_back(*head);
            }
          }
          return out;
        },
        [&](const Heads& out) {
          cursor_skips += out.skips;
          for (const Candidate& head : out.heads) heap.push(head);
          stats.heap_pushes += static_cast<int64_t>(out.heads.size());
        });
  }

  {
    // Iteration (lines 11–23): the popped event offers its next admissible
    // user while it has a seat; a finished event drops its cursor.
    GEACC_PHASE_TIMER("greedy.iterate");
    while (!heap.empty()) {
      const Candidate top = heap.top();
      heap.pop();
      ++stats.heap_pops;
      admission.TryAdmit(top.event, top.user);
      std::unique_ptr<NnCursor>& cursor = cursors[top.event];
      const std::optional<Candidate> head =
          admission.EventHasSeat(top.event)
              ? NextAdmissible(*cursor, top.event, admission, cursor_skips)
              : std::nullopt;
      if (!head) {
        cursor.reset();
        continue;
      }
      heap.push(*head);
      ++stats.heap_pushes;
    }
  }
  GEACC_STATS_ADD("greedy.heap_pushes", stats.heap_pushes);
  GEACC_STATS_ADD("greedy.heap_pops", stats.heap_pops);
  GEACC_STATS_ADD("greedy.cursor_skips", cursor_skips);
  GEACC_STATS_ADD("greedy.matches", admission.arrangement().size());

  stats.logical_peak_bytes =
      admission.ByteEstimate() + users.ByteEstimate() +
      static_cast<uint64_t>(num_events) *
          (sizeof(Candidate) + 1600);  // heap entry + cursor
  stats.wall_seconds = timer.Seconds();
  return {admission.TakeArrangement(), stats};
}

}  // namespace geacc
