#include "algo/prune_solver.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "algo/admission.h"
#include "algo/bounds.h"
#include "algo/greedy_solver.h"
#include "obs/stats.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace geacc {
namespace {

// Immutable precomputed tables shared read-only by every search context:
// the dense similarity table, the per-event "j-NN of v" lists of Section
// IV, and the event order L of Algorithm 3 line 5. Row construction fans
// out over the pool (rows are disjoint); the event sort and the
// sum_remain prefix stay serial — they are O(|V| log |V|) against the
// O(|V|·|U| log |U|) row sorts.
struct SearchTables {
  SearchTables(const Instance& instance, const SolverOptions& options,
               ThreadPool& pool)
      : num_events(instance.num_events()), num_users(instance.num_users()) {
    sim.resize(static_cast<size_t>(num_events) * num_users);
    sorted_users.resize(static_cast<size_t>(num_events) * num_users);
    // One batched-kernel call per table row; with fp_mode="fast" this is
    // the Prune opt-in site for FMA contraction (DESIGN.md §15.3). Warm
    // the blocked mirror before fanning out.
    const simd::FpMode fp = ResolveFpMode(options);
    instance.user_attributes().Blocked();
    pool.ParallelFor(0, num_events, [&](int /*chunk*/, int64_t chunk_begin,
                                        int64_t chunk_end) {
      for (EventId v = static_cast<EventId>(chunk_begin);
           v < static_cast<EventId>(chunk_end); ++v) {
        instance.SimilarityRow(v, fp, sim.data() + Flat(v, 0));
        UserId* row = sorted_users.data() + Flat(v, 0);
        std::iota(row, row + num_users, 0);
        std::sort(row, row + num_users, [&](UserId a, UserId b) {
          const double sa = sim[Flat(v, a)];
          const double sb = sim[Flat(v, b)];
          if (sa != sb) return sa > sb;
          return a < b;
        });
      }
    });

    // L: events in non-increasing s_v * c_v (Algorithm 3 line 5).
    event_order.resize(num_events);
    std::iota(event_order.begin(), event_order.end(), 0);
    if (options.enable_event_ordering) {
      std::sort(event_order.begin(), event_order.end(),
                [&](EventId a, EventId b) {
                  const double pa = BestSim(a) * instance.event_capacity(a);
                  const double pb = BestSim(b) * instance.event_capacity(b);
                  if (pa != pb) return pa > pb;
                  return a < b;
                });
    }

    // sum_remain = Σ_{k ≥ 2} s_{L[k]} * c_{L[k]} (Algorithm 3 line 6).
    initial_sum_remain = 0.0;
    for (int k = 1; k < num_events; ++k) {
      const EventId v = event_order[k];
      initial_sum_remain += BestSim(v) * instance.event_capacity(v);
    }

    // Conflict-aware suffix bounds (algo/bounds.h): suffix_tight[k] caps
    // the joint contribution of event_order[k..) via clique-cover (and
    // optionally LP) cuts. Serial on purpose — the partition and every
    // suffix are pure functions of the instance, so the table is
    // identical at any thread count. An empty conflict graph yields only
    // singleton cliques (the table would equal the Lemma 6 sums), so the
    // layer is skipped entirely and pruning reduces exactly to Lemma 6.
    if (options.enable_pruning && num_events > 0 && num_users > 0 &&
        !instance.conflicts().empty()) {
      const algo::BoundMode mode = algo::ParseBoundMode(options.bound);
      if (mode != algo::BoundMode::kLemma6) {
        std::vector<double> event_bound(num_events);
        std::vector<int> event_caps(num_events);
        std::vector<int> user_caps(num_users);
        for (EventId v = 0; v < num_events; ++v) {
          event_bound[v] = BestSim(v) * instance.event_capacity(v);
          event_caps[v] = instance.event_capacity(v);
        }
        for (UserId u = 0; u < num_users; ++u) {
          user_caps[u] = instance.user_capacity(u);
        }
        const algo::CliquePartition partition =
            algo::GreedyCliquePartition(instance.conflicts());
        algo::BoundInputs inputs;
        inputs.num_events = num_events;
        inputs.num_users = num_users;
        inputs.sim = sim.data();
        inputs.event_bound = event_bound.data();
        inputs.event_capacity = event_caps.data();
        inputs.user_capacity = user_caps.data();
        inputs.conflicts = &instance.conflicts();
        inputs.order = event_order.data();
        suffix_tight = algo::ComputeSuffixBounds(inputs, mode, partition);
      }
    }
  }

  bool use_tight_bound() const { return !suffix_tight.empty(); }

  size_t Flat(EventId v, int j) const {
    return static_cast<size_t>(v) * num_users + j;
  }

  // s_v: similarity of v's nearest user (0 when there are no users).
  double BestSim(EventId v) const {
    if (num_users == 0) return 0.0;
    return sim[Flat(v, sorted_users[Flat(v, 0)])];
  }

  uint64_t ByteEstimate() const {
    return VectorBytes(sim) + VectorBytes(sorted_users) +
           VectorBytes(event_order) + VectorBytes(suffix_tight);
  }

  const int num_events;
  const int num_users;
  std::vector<double> sim;           // dense |V|×|U| similarities
  std::vector<UserId> sorted_users;  // per event, users by sim desc
  std::vector<EventId> event_order;  // L
  double initial_sum_remain = 0.0;
  // Conflict-aware suffix bounds over event_order (size num_events + 1);
  // empty when the Lemma 6 bound is all there is (bound="lemma6", pruning
  // off, or no conflicts).
  std::vector<double> suffix_tight;
};

// A frozen DFS prefix: everything needed to resume the recursion at pair
// (event_pos, user_pos) exactly as the serial search would reach it.
// `matched` records the Add order along the path so the restored
// Arrangement is bit-identical to the serial one.
struct SubtreeTask {
  int event_pos = 0;
  int user_pos = 0;
  std::vector<std::pair<EventId, UserId>> matched;
  std::vector<int> remaining_event_capacity;
  std::vector<int> remaining_user_capacity;
  double current_sum = 0.0;
  double sum_remain = 0.0;
};

// Recursion context for Search-GEACC (Algorithm 4). One per subtree task;
// the precomputed tables are shared and read-only. Three operating modes:
//
//  * plain serial: Run() from the root, recording improvements over the
//    seed (`baseline_sum`) with strict >;
//  * fan-out generation (CaptureInto): the recursion stops at pair depth
//    `capture_depth` and snapshots the state instead of descending. The
//    cut is at most num_events − 1 pairs, and a complete matching visits
//    at least one pair per event, so no MaybeUpdateBest fires above the
//    cut — generation pruning uses only the deterministic seed bound,
//    making the task list a pure function of the instance;
//  * subtree worker (SetSharedBest + Restore): records improvements
//    locally against the seed baseline (deterministic), and additionally
//    prunes when the bound falls strictly below the cross-task incumbent
//    (opportunistic, timing-dependent — see the header for why that
//    cannot change the returned arrangement, only the effort counters).
class SearchContext {
 public:
  SearchContext(const SearchTables& tables, const Instance& instance,
                const SolverOptions& options, SolverStats* stats,
                double baseline_sum)
      : tables_(tables),
        instance_(instance),
        options_(options),
        stats_(stats),
        num_events_(tables.num_events),
        num_users_(tables.num_users),
        best_(num_events_, num_users_),
        best_sum_(baseline_sum),
        current_(num_events_, num_users_),
        sum_remain_(tables.initial_sum_remain) {
    remaining_event_capacity_.resize(num_events_);
    remaining_user_capacity_.resize(num_users_);
    for (EventId v = 0; v < num_events_; ++v) {
      remaining_event_capacity_[v] = instance.event_capacity(v);
    }
    for (UserId u = 0; u < num_users_; ++u) {
      remaining_user_capacity_[u] = instance.user_capacity(u);
    }
  }

  // Switches to generation mode: Search() snapshots into `sink` once
  // `depth` pairs have been visited along the current path.
  void CaptureInto(int depth, std::vector<SubtreeTask>* sink) {
    capture_depth_ = depth;
    capture_sink_ = sink;
  }

  void SetSharedBest(std::atomic<double>* shared_best) {
    shared_best_ = shared_best;
  }

  // Re-applies a generation snapshot (same Add sequence from empty, so the
  // restored state is bit-identical to the serial path's).
  void Restore(const SubtreeTask& task) {
    for (const auto& [v, u] : task.matched) current_.Add(v, u);
    remaining_event_capacity_ = task.remaining_event_capacity;
    remaining_user_capacity_ = task.remaining_user_capacity;
    matched_path_ = task.matched;
    current_sum_ = task.current_sum;
    sum_remain_ = task.sum_remain;
  }

  void Run() {
    if (num_events_ > 0 && num_users_ > 0) Search(0, 0);
  }

  void RunFrom(int event_pos, int user_pos) { Search(event_pos, user_pos); }

  bool improved() const { return improved_; }
  double best_sum() const { return best_sum_; }
  Arrangement TakeBest() { return std::move(best_); }

  uint64_t LocalByteEstimate() const {
    return VectorBytes(remaining_event_capacity_) +
           VectorBytes(remaining_user_capacity_) + VectorBytes(matched_path_) +
           best_.ByteEstimate() + current_.ByteEstimate();
  }

 private:
  size_t Flat(EventId v, int j) const { return tables_.Flat(v, j); }

  // 1-based recursion depth of the pair (event_pos, user_pos), i.e. the
  // number of pairs visited so far along this path — Fig. 6a's depth.
  int64_t Depth(int event_pos, int user_pos) const {
    return static_cast<int64_t>(event_pos) * num_users_ + user_pos + 1;
  }

  bool Truncated() {
    if (options_.max_search_invocations > 0 &&
        stats_->search_invocations >= options_.max_search_invocations) {
      stats_->search_truncated = true;
      return true;
    }
    return false;
  }

  void RecordPrune(int event_pos, int user_pos) {
    ++stats_->prune_events;
    stats_->sum_prune_depth += Depth(event_pos, user_pos);
  }

  void MaybeUpdateBest() {
    ++stats_->complete_searches;
    if (current_sum_ > best_sum_) {
      best_sum_ = current_sum_;
      improved_ = true;
      // Deep-copy the current matching.
      Arrangement copy(num_events_, num_users_);
      for (UserId u = 0; u < num_users_; ++u) {
        for (const EventId v : current_.EventsOf(u)) copy.Add(v, u);
      }
      best_ = std::move(copy);
      if (shared_best_ != nullptr) {
        // CAS-max: publish the new incumbent for cross-task pruning.
        double seen = shared_best_->load(std::memory_order_relaxed);
        while (seen < best_sum_ && !shared_best_->compare_exchange_weak(
                                       seen, best_sum_,
                                       std::memory_order_relaxed)) {
        }
      }
    }
  }

  // Whether the admissible bound `sum_max` justifies descending, under
  // the shared bound-vs-incumbent contract of algo/bounds.h: prune only
  // when the bound falls more than kBoundEps below the incumbent. The
  // slack absorbs the conflict-aware bounds' floating-point reassociation
  // (they accumulate in a different order than the leaf sums); incumbent
  // updates stay strict `>` in MaybeUpdateBest, so a subtree whose bound
  // merely ties the incumbent is descended but can never displace it. The
  // local test against best_sum_ is the serial rule (deterministic); the
  // shared test only adds strictly-below cuts, so a branch whose bound
  // still reaches the incumbent — which an optimal leaf's branch always
  // does — is never cut, no matter what other tasks have published.
  bool ShouldDescend(double sum_max) const {
    if (!options_.enable_pruning) return true;
    if (sum_max + algo::kBoundEps < best_sum_) return false;
    if (shared_best_ != nullptr &&
        sum_max + algo::kBoundEps <
            shared_best_->load(std::memory_order_relaxed)) {
      return false;
    }
    return true;
  }

  // Shared tail of both branches (Algorithm 4 lines 6–17): after fixing
  // the state of the pair at (event_pos, user_pos), descend to the next
  // pair, applying the admissible bound before each descent. The bound is
  // Lemma 6's sum_remain_ tightened (outer min, so it can only prune
  // more) by the conflict-aware suffix table when one was built; a prune
  // that only the tightening achieved is credited to bound_clique_cuts.
  void Advance(int event_pos, int user_pos) {
    const EventId v = tables_.event_order[event_pos];
    if (user_pos + 1 >= num_users_ || remaining_event_capacity_[v] == 0) {
      // Done with v's pairs: move to the next event (lines 6–13).
      if (event_pos + 1 >= num_events_) {
        MaybeUpdateBest();  // all pairs enumerated (lines 7–9)
        return;
      }
      const double lemma_bound = current_sum_ + sum_remain_;
      double bound = lemma_bound;
      if (tables_.use_tight_bound()) {
        bound = std::min(bound,
                         current_sum_ + tables_.suffix_tight[event_pos + 1]);
      }
      if (ShouldDescend(bound)) {
        const EventId next_event = tables_.event_order[event_pos + 1];
        const double next_term =
            tables_.BestSim(next_event) * instance_.event_capacity(next_event);
        sum_remain_ -= next_term;  // line 11
        Search(event_pos + 1, 0);
        sum_remain_ += next_term;  // line 13
      } else {
        RecordPrune(event_pos, user_pos);
        if (bound != lemma_bound && ShouldDescend(lemma_bound)) {
          ++stats_->bound_clique_cuts;
        }
      }
      return;
    }
    // Stay on v, move to its next NN (lines 14–17). The suffix table
    // covers events after v; v's own remaining seats are bounded by its
    // next-NN term either way.
    const UserId next_user = tables_.sorted_users[Flat(v, user_pos + 1)];
    const double bound_term =
        tables_.sim[Flat(v, next_user)] * remaining_event_capacity_[v];
    const double lemma_bound = current_sum_ + sum_remain_ + bound_term;
    double bound = lemma_bound;
    if (tables_.use_tight_bound()) {
      bound = std::min(bound, current_sum_ +
                                  tables_.suffix_tight[event_pos + 1] +
                                  bound_term);
    }
    if (ShouldDescend(bound)) {
      Search(event_pos, user_pos + 1);
    } else {
      RecordPrune(event_pos, user_pos);
      if (bound != lemma_bound && ShouldDescend(lemma_bound)) {
        ++stats_->bound_clique_cuts;
      }
    }
  }

  // Algorithm 4: enumerate both states of the pair at (event_pos,
  // user_pos) where the event is L[event_pos] and the user is its
  // (user_pos+1)-th NN.
  void Search(int event_pos, int user_pos) {
    if (capture_sink_ != nullptr && path_pairs_ == capture_depth_) {
      SubtreeTask task;
      task.event_pos = event_pos;
      task.user_pos = user_pos;
      task.matched = matched_path_;
      task.remaining_event_capacity = remaining_event_capacity_;
      task.remaining_user_capacity = remaining_user_capacity_;
      task.current_sum = current_sum_;
      task.sum_remain = sum_remain_;
      capture_sink_->push_back(std::move(task));
      return;
    }
    ++stats_->search_invocations;
    stats_->max_depth = std::max(stats_->max_depth, Depth(event_pos, user_pos));
    if (Truncated()) return;
    ++path_pairs_;

    const EventId v = tables_.event_order[event_pos];
    const UserId u = tables_.sorted_users[Flat(v, user_pos)];
    const double similarity = tables_.sim[Flat(v, u)];

    const bool addable =
        remaining_event_capacity_[v] > 0 && remaining_user_capacity_[u] > 0 &&
        similarity > 0.0 &&
        FirstConflict(instance_.conflicts(), current_.EventsOf(u), v) ==
            kInvalidEvent;
    if (addable) {
      // Branch 1: {v, u} matched (lines 4–19).
      ++stats_->branches_matched;
      current_.Add(v, u);
      matched_path_.emplace_back(v, u);
      --remaining_event_capacity_[v];
      --remaining_user_capacity_[u];
      current_sum_ += similarity;
      Advance(event_pos, user_pos);
      current_sum_ -= similarity;
      ++remaining_event_capacity_[v];
      ++remaining_user_capacity_[u];
      matched_path_.pop_back();
      current_.Remove(v, u);
    }
    // Branch 2: {v, u} unmatched (line 20).
    Advance(event_pos, user_pos);
    --path_pairs_;
  }

  const SearchTables& tables_;
  const Instance& instance_;
  const SolverOptions& options_;
  SolverStats* stats_;
  const int num_events_;
  const int num_users_;

  std::vector<int> remaining_event_capacity_;
  std::vector<int> remaining_user_capacity_;

  Arrangement best_;
  double best_sum_ = 0.0;
  bool improved_ = false;
  Arrangement current_;
  double current_sum_ = 0.0;
  double sum_remain_ = 0.0;

  // Matched pairs along the current DFS path, in Add order.
  std::vector<std::pair<EventId, UserId>> matched_path_;
  // Pairs visited along the current path (the fan-out cut coordinate).
  int path_pairs_ = 0;
  int capture_depth_ = -1;
  std::vector<SubtreeTask>* capture_sink_ = nullptr;
  std::atomic<double>* shared_best_ = nullptr;
};

// Fan-out cut in pairs: deep enough that the generated tasks outnumber
// the lanes ~8×, shallow enough (≤ num_events − 1) that no complete
// matching can occur above the cut. Pure function of its inputs.
//
// Each level of the search branches over roughly num_users candidate
// partners, so the task count grows like num_users^depth — the cut must
// stay as shallow as that allows. Depth matters doubly here: everything
// above the cut is walked by the SERIAL generator with only the static
// seed bound (no improving incumbent), so an over-deep cut re-runs most
// of the search unpruned and can cost far more than it saves.
int FanoutDepth(int num_events, int num_users, int concurrency) {
  const int64_t target = int64_t{8} * concurrency;
  const int64_t branching = std::max(2, num_users);
  int depth = 1;
  int64_t tasks = branching;
  while (tasks < target && depth < num_events - 1) {
    ++depth;
    tasks *= branching;
  }
  return std::min(depth, num_events - 1);
}

// Field-wise accumulation of per-task stats into the solve total.
void MergeStats(const SolverStats& task, SolverStats* total) {
  total->search_invocations += task.search_invocations;
  total->complete_searches += task.complete_searches;
  total->prune_events += task.prune_events;
  total->branches_matched += task.branches_matched;
  total->bound_clique_cuts += task.bound_clique_cuts;
  total->sum_prune_depth += task.sum_prune_depth;
  total->max_depth = std::max(total->max_depth, task.max_depth);
  total->search_truncated = total->search_truncated || task.search_truncated;
}

}  // namespace

SolveResult PruneSolver::Solve(const Instance& instance) const {
  WallTimer timer;
  SolverStats stats;
  ThreadPool pool(ResolveThreadCount(options_.threads));

  // Algorithm 3 line 1: warm-start with Greedy-GEACC so poor matchings are
  // pruned from the beginning.
  Arrangement seed(instance.num_events(), instance.num_users());
  if (options_.enable_greedy_seed && options_.enable_pruning) {
    GEACC_PHASE_TIMER("prune.greedy_seed");
    GreedySolver greedy(options_);
    seed = greedy.Solve(instance).arrangement;
  }
  const double seed_sum = seed.MaxSum(instance);

  const SearchTables tables = [&] {
    GEACC_PHASE_TIMER("prune.precompute");
    return SearchTables(instance, options_, pool);
  }();

  // The fan-out needs ≥ 2 events (the cut must sit strictly above every
  // complete matching) and an untruncated search (the invocation budget is
  // a single serial count).
  const bool fan_out = pool.concurrency() > 1 && instance.num_events() > 1 &&
                       instance.num_users() > 0 &&
                       options_.max_search_invocations == 0;

  Arrangement best = std::move(seed);
  double best_sum = seed_sum;
  uint64_t context_bytes = 0;
  if (!fan_out) {
    GEACC_PHASE_TIMER("prune.search");
    SearchContext context(tables, instance, options_, &stats, seed_sum);
    context.Run();
    context_bytes = context.LocalByteEstimate();
    if (context.improved()) {
      best_sum = context.best_sum();
      best = context.TakeBest();
    }
  } else {
    // Deterministic task generation: serial DFS over the first
    // FanoutDepth() pairs, pruning against the seed bound only.
    std::vector<SubtreeTask> tasks;
    {
      GEACC_PHASE_TIMER("prune.fanout");
      SearchContext generator(tables, instance, options_, &stats, seed_sum);
      generator.CaptureInto(FanoutDepth(instance.num_events(),
                                        instance.num_users(),
                                        pool.concurrency()),
                            &tasks);
      generator.Run();
      context_bytes = generator.LocalByteEstimate();
    }

    // Subtrees run in DFS order across the pool. Each records locally
    // against the deterministic seed baseline; the shared incumbent only
    // adds strictly-below cuts, which never remove a leaf that could win
    // the fold below.
    GEACC_PHASE_TIMER("prune.search");
    std::atomic<double> shared_best{seed_sum};
    struct TaskResult {
      Arrangement best{0, 0};
      double best_sum = 0.0;
      bool improved = false;
      SolverStats stats;
    };
    std::vector<TaskResult> results(tasks.size());
    pool.ParallelFor(
        0, static_cast<int64_t>(tasks.size()),
        [&](int /*chunk*/, int64_t chunk_begin, int64_t chunk_end) {
          for (int64_t i = chunk_begin; i < chunk_end; ++i) {
            TaskResult& result = results[i];
            SearchContext context(tables, instance, options_, &result.stats,
                                  seed_sum);
            context.SetSharedBest(&shared_best);
            context.Restore(tasks[i]);
            context.RunFrom(tasks[i].event_pos, tasks[i].user_pos);
            result.best_sum = context.best_sum();
            result.improved = context.improved();
            if (result.improved) result.best = context.TakeBest();
          }
        });

    // Strict-> fold in DFS task order reproduces the serial answer: the
    // first task containing the DFS-first optimal leaf always returns
    // exactly that leaf, and it strictly beats everything before it.
    GEACC_STATS_ADD("prune.fanout_tasks", static_cast<int64_t>(tasks.size()));
    for (TaskResult& result : results) {
      MergeStats(result.stats, &stats);
      if (result.improved && result.best_sum > best_sum) {
        best_sum = result.best_sum;
        best = std::move(result.best);
      }
    }
    context_bytes += static_cast<uint64_t>(
        std::min<size_t>(tasks.size(), pool.concurrency()) *
        (context_bytes + sizeof(SubtreeTask)));
  }
  // Flushed once per solve from the SolverStats the recursion already
  // maintains; the search itself stays counter-free.
  GEACC_STATS_ADD("prune.nodes_visited", stats.search_invocations);
  GEACC_STATS_ADD("prune.nodes_pruned", stats.prune_events);
  GEACC_STATS_ADD("prune.complete_searches", stats.complete_searches);
  GEACC_STATS_ADD("prune.branches_matched", stats.branches_matched);
  GEACC_STATS_ADD("prune.bound.clique_cuts", stats.bound_clique_cuts);
  stats.logical_peak_bytes = tables.ByteEstimate() + context_bytes +
                             best.ByteEstimate();
  stats.wall_seconds = timer.Seconds();
  return {std::move(best), stats};
}

}  // namespace geacc
