// Online user-at-a-time arrangement — the "existing approaches" the paper
// argues against, plus a streaming API.
//
// Real EBSNs often commit assignments as users arrive instead of solving
// globally. OnlineArranger models that: each arriving user is immediately
// given their best feasible non-conflicting events (greedy per user,
// events never reconsidered). OnlineGreedySolver wraps it as a Solver
// with id-order arrivals, so the benches can quantify how much the
// paper's *global* view buys over per-arrival assignment — the gap the
// introduction motivates with redundant/infeasible per-event
// recommendations.
//
// Guarantee: none — adversarial arrival orders lose up to the full seat
// value (that is the point of the baseline). Complexity: O(|V| log |V|)
// per arrival (rank all events by similarity), O(|U|·|V| log |V|)
// per full solve. Thread-safety: OnlineArranger is stateful and
// single-writer — one thread per engine; OnlineGreedySolver::Solve() is
// const and re-entrant (it builds a private engine per call). Counters
// reported: online.arrivals, online.events_ranked, online.matches.

#ifndef GEACC_ALGO_ONLINE_GREEDY_SOLVER_H_
#define GEACC_ALGO_ONLINE_GREEDY_SOLVER_H_

#include <string>
#include <vector>

#include "algo/admission.h"
#include "core/instance.h"
#include "core/solver.h"
#include "util/check.h"

namespace geacc {

// Incremental engine: construct over an instance, then feed arrivals.
//
// Relationship to dyn::IncrementalArranger: OnlineArranger is the
// arrival-only special case. An IncrementalArranger fed an arrival-only
// mutation trace (AddUser per user, in id order, with an unlimited repair
// budget) produces the identical arrangement, because its refill cursors
// enumerate events in the same (similarity desc, id asc) order this class
// sorts by — each arrival advances both engines through the same greedy
// choices, one epoch per user. tests/incremental_arranger_test.cc asserts
// the equivalence.
class OnlineArranger {
 public:
  explicit OnlineArranger(const Instance& instance);

  // Greedily assigns the arriving user to their most interesting events
  // subject to remaining event capacity, the user's own capacity, and
  // conflicts with what this user already holds. Each user may arrive at
  // most once (double arrival and out-of-range ids CHECK-fail). Returns
  // the events assigned (possibly empty).
  std::vector<EventId> ArriveUser(UserId u);

  const Arrangement& arrangement() const { return admission_.arrangement(); }

  int remaining_event_capacity(EventId v) const {
    GEACC_CHECK(v >= 0 && v < instance_.num_events())
        << "event id out of range: " << v;
    return admission_.event_seats(v);
  }

 private:
  const Instance& instance_;
  Admission admission_;
  std::vector<bool> arrived_;
};

class OnlineGreedySolver final : public Solver {
 public:
  explicit OnlineGreedySolver(SolverOptions options = {})
      : options_(options) {}

  std::string Name() const override { return "online-greedy"; }
  SolveResult Solve(const Instance& instance) const override;

 private:
  SolverOptions options_;
};

}  // namespace geacc

#endif  // GEACC_ALGO_ONLINE_GREEDY_SOLVER_H_
