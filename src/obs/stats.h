// Zero-overhead-when-disabled instrumentation: monotonic counters, phase
// timers, and scoped trace spans behind a thread-safe StatsRegistry.
//
// Hot paths record through two macros:
//
//   GEACC_STATS_ADD("flow.dijkstra.relaxations", relaxations);
//   { GEACC_PHASE_TIMER("mcf.flow_sweep"); ... }   // span = enclosing scope
//
// Each macro expansion interns its name once (function-local static) into
// the global StatsRegistry, which assigns a dense id; subsequent hits are a
// bounds check plus a single-writer relaxed-atomic add on a per-thread
// cell. No locks, no string hashing, and no cross-thread cache-line
// contention on the hot path — `bench/micro_solvers` measures the enabled
// overhead at under 1% (see DESIGN.md §9).
//
// Aggregation is pull-based: StatsRegistry::Global().Snapshot() sums the
// live per-thread cells (relaxed loads) plus the totals folded in by
// threads that have exited. StatsScope captures only the *calling
// thread's* activity between construction and Harvest(), which is exactly
// one solver run in the experiment harness — solvers are single-threaded
// internally, so per-run counters stay exact even when RunSweep shards
// (point × rep) cells over a pool.
//
// Compile-out story: building with -DGEACC_NO_STATS (CMake option
// GEACC_NO_STATS) expands both macros to `((void)0)` so instrumented code
// carries no branch, no static, and no dependency on this layer's state.
// The registry API itself stays compiled so reporting code links either
// way; it just observes empty snapshots.

#ifndef GEACC_OBS_STATS_H_
#define GEACC_OBS_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/timer.h"

namespace geacc::obs {

// Dense handles interned by RegisterCounter()/RegisterTimer(). Values are
// stable for the process lifetime.
using CounterId = int;
using TimerId = int;

// Aggregate of a named phase timer: total span time and span count.
struct TimerStat {
  double seconds = 0.0;
  int64_t count = 0;
};

// A point-in-time aggregate of counter and timer totals. Only entries with
// activity appear (zero-valued counters are omitted).
struct StatsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, TimerStat> timers;

  // this − earlier, dropping entries that did not change. Used by
  // StatsScope and by benches that diff around a sweep point.
  StatsSnapshot Delta(const StatsSnapshot& earlier) const;
};

// Process-wide catalog of counter/timer names and owner of the per-thread
// cell blocks. All members are thread-safe; registration cost is paid once
// per macro call site.
class StatsRegistry {
 public:
  static StatsRegistry& Global();

  // Interns `name`, returning its dense id (the same id on repeat calls).
  CounterId RegisterCounter(const std::string& name);
  TimerId RegisterTimer(const std::string& name);

  // Adds `delta` to the calling thread's cell for `id`. Monotonic use is
  // the convention (counters count events); nothing enforces it.
  void Add(CounterId id, int64_t delta);
  void RecordTime(TimerId id, double seconds);

  // Folds a harvested TimerStat into the calling thread's cells without
  // bumping the span count per call (seconds += stat.seconds, count +=
  // stat.count). Used when replaying another thread's deltas.
  void RecordTimerStat(TimerId id, const TimerStat& stat);

  // Totals across all threads, live and exited.
  StatsSnapshot Snapshot() const;

  // Totals for the calling thread only (what StatsScope diffs).
  StatsSnapshot ThreadSnapshot() const;

  // Registered names in id order (includes never-incremented entries).
  std::vector<std::string> CounterNames() const;
  std::vector<std::string> TimerNames() const;

  // Convenience: current global total for `name` (0 if unregistered).
  int64_t CounterValue(const std::string& name) const;

 private:
  StatsRegistry() = default;
  struct ThreadCells;
  class Impl;
  Impl& impl() const;
};

// Re-credits `snapshot` (typically a StatsScope harvest from a pool
// worker) to the calling thread's cells, registering names as needed.
// ThreadPool::ParallelFor uses this so intra-solver parallelism keeps the
// "one StatsScope per run" attribution model: worker-side counters and
// phase timers end up on the thread that owns the parallel region. A
// no-op under GEACC_NO_STATS (snapshots are empty there).
void ForwardToCallingThread(const StatsSnapshot& snapshot);

// Captures the calling thread's instrumentation activity over a scope.
// Construct before the work, Harvest() after: the result holds exactly the
// deltas this thread produced in between. Safe to nest.
class StatsScope {
 public:
  StatsScope() : start_(StatsRegistry::Global().ThreadSnapshot()) {}

  StatsSnapshot Harvest() const {
    return StatsRegistry::Global().ThreadSnapshot().Delta(start_);
  }

 private:
  StatsSnapshot start_;
};

namespace internal {

// RAII span: records wall time into a phase timer at scope exit.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(TimerId id) : id_(id) {}
  ~ScopedPhaseTimer() {
    StatsRegistry::Global().RecordTime(id_, timer_.Seconds());
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  TimerId id_;
  WallTimer timer_;
};

}  // namespace internal
}  // namespace geacc::obs

#if defined(GEACC_NO_STATS)

#define GEACC_STATS_ADD(name, delta) ((void)0)
#define GEACC_PHASE_TIMER(name) ((void)0)

#else

// Interns `name` once per call site, then performs a thread-local add.
// `name` must be a string literal (or have static storage duration).
#define GEACC_STATS_ADD(name, delta)                                       \
  do {                                                                     \
    static const ::geacc::obs::CounterId geacc_stats_counter_id_ =         \
        ::geacc::obs::StatsRegistry::Global().RegisterCounter(name);       \
    ::geacc::obs::StatsRegistry::Global().Add(geacc_stats_counter_id_,     \
                                              (delta));                    \
  } while (0)

#define GEACC_PHASE_TIMER_CONCAT2(a, b) a##b
#define GEACC_PHASE_TIMER_CONCAT(a, b) GEACC_PHASE_TIMER_CONCAT2(a, b)

// Times the enclosing scope into phase timer `name`.
#define GEACC_PHASE_TIMER(name)                                            \
  ::geacc::obs::internal::ScopedPhaseTimer GEACC_PHASE_TIMER_CONCAT(       \
      geacc_phase_timer_, __COUNTER__)(                                    \
      []() -> ::geacc::obs::TimerId {                                      \
        static const ::geacc::obs::TimerId id =                            \
            ::geacc::obs::StatsRegistry::Global().RegisterTimer(name);     \
        return id;                                                         \
      }())

#endif  // GEACC_NO_STATS

#endif  // GEACC_OBS_STATS_H_
