// Greedy-GEACC's admission rule (paper Algorithm 2), held in one place.
//
// A candidate pair {v, u} is admitted when v and u both have a seat left
// and v conflicts with no event u already holds; candidates are offered in
// (similarity desc, event asc, user asc) order. Admitting a pair only
// removes seats and adds held events, so a candidate refused once stays
// refused. That monotonicity is why Algorithm 2's lazy heap, the sort-all
// specification and the sharded repair pass admit the identical set, and
// why Theorem 3's 1 / (1 + max c_u) bound carries over to each of them.
//
// Callers: GreedySolver (heap order, seats and cursor-skip checks),
// SortAllGreedySolver and ShardCoordinator's repair pass (AdmitInOrder),
// RandomV/USolver and OnlineArranger (TryAdmit), and — conflict scan only —
// MinCostFlow's conflict resolution, PruneSolver and IncrementalArranger,
// whose seats live in their own search or repair state. The slot-greedy
// solver tests slot windows instead of the conflict graph and does not
// use this module; the brute-force solver and the feasibility checkers
// (verify/audit, Arrangement::Validate, IncrementalArranger::Validate)
// stay independent of it on purpose.
//
// Thread-safety: free functions are pure; an Admission is single-writer.

#ifndef GEACC_ALGO_ADMISSION_H_
#define GEACC_ALGO_ADMISSION_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/arrangement.h"
#include "core/conflict_graph.h"
#include "core/instance.h"
#include "core/types.h"

namespace geacc {

struct Candidate {
  double similarity;
  EventId event;
  UserId user;
};

// The admission order: similarity desc, then event asc, then user asc.
inline bool AdmitsBefore(const Candidate& a, const Candidate& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  if (a.event != b.event) return a.event < b.event;
  return a.user < b.user;
}

// The first event in `held` that conflicts with `v`, or kInvalidEvent.
inline EventId FirstConflict(const ConflictGraph& conflicts,
                             const std::vector<EventId>& held, EventId v) {
  for (const EventId w : held) {
    if (conflicts.AreConflicting(v, w)) return w;
  }
  return kInvalidEvent;
}

enum class Verdict { kAdmitted, kNoSeat, kConflict };

struct AdmitResult {
  Verdict verdict;
  EventId blocking;  // the held event in conflict; kInvalidEvent otherwise
};

// Seat accounting over the arrangement being built.
class Admission {
 public:
  // Seats start at each event's and user's capacity. `instance` must
  // outlive the Admission.
  explicit Admission(const Instance& instance);

  // Seats start at the given counts (0 for an entity that must never be
  // admitted). `conflicts` must outlive the Admission.
  Admission(std::vector<int> event_seats, std::vector<int> user_seats,
            const ConflictGraph& conflicts);

  bool EventHasSeat(EventId v) const { return event_seats_[v] > 0; }
  bool UserHasSeat(UserId u) const { return user_seats_[u] > 0; }
  int event_seats(EventId v) const { return event_seats_[v]; }

  // Whether TryAdmit(v, u) would admit, without admitting.
  bool Admissible(EventId v, UserId u) const {
    return EventHasSeat(v) && UserHasSeat(u) &&
           FirstConflict(*conflicts_, arrangement_.EventsOf(u), v) ==
               kInvalidEvent;
  }

  // Admits {v, u} when both have a seat and v conflicts with nothing u
  // holds. {v, u} must not be admitted already.
  AdmitResult TryAdmit(EventId v, UserId u) {
    if (!EventHasSeat(v) || !UserHasSeat(u)) {
      return {Verdict::kNoSeat, kInvalidEvent};
    }
    const EventId blocking =
        FirstConflict(*conflicts_, arrangement_.EventsOf(u), v);
    if (blocking != kInvalidEvent) return {Verdict::kConflict, blocking};
    arrangement_.Add(v, u);
    --event_seats_[v];
    --user_seats_[u];
    return {Verdict::kAdmitted, kInvalidEvent};
  }

  const Arrangement& arrangement() const { return arrangement_; }
  Arrangement TakeArrangement() { return std::move(arrangement_); }

  // Seat vectors plus the arrangement.
  uint64_t ByteEstimate() const;

 private:
  const ConflictGraph* conflicts_;
  std::vector<int> event_seats_;
  std::vector<int> user_seats_;
  Arrangement arrangement_;
};

// Sorts `candidates` into admission order, offers each to `admission`, and
// calls on_verdict(candidate, result) after each offer. Candidates must
// have positive similarity and no repeated (event, user).
template <typename OnVerdict>
void AdmitInOrder(std::vector<Candidate>& candidates, Admission& admission,
                  OnVerdict&& on_verdict) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return AdmitsBefore(a, b);
            });
  for (const Candidate& candidate : candidates) {
    on_verdict(candidate,
               admission.TryAdmit(candidate.event, candidate.user));
  }
}

}  // namespace geacc

#endif  // GEACC_ALGO_ADMISSION_H_
