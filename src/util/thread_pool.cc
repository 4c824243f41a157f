#include "util/thread_pool.h"

#include <algorithm>

#include "obs/stats.h"
#include "util/check.h"

namespace geacc {
namespace {

// Set while a thread runs ThreadPool::WorkerLoop; lets a chunk decide at
// execution time whether its stats need forwarding to the caller (worker
// lane) or already land on the right thread (caller lane).
thread_local const ThreadPool* tl_worker_pool = nullptr;

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

ThreadPool::ThreadPool(int threads) {
  const int workers = std::max(0, ResolveThreadCount(threads) - 1);
  queues_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(int worker_index) {
  tl_worker_pool = this;
  while (true) {
    if (RunOneTask(worker_index)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
    // ParallelFor blocks until its region drains, so destruction never
    // races live tasks: on stop the queues are already empty.
    if (stop_) return;
  }
}

bool ThreadPool::RunOneTask(int home_queue) {
  std::function<void()> task;
  const int n = static_cast<int>(queues_.size());
  if (home_queue >= 0) {
    WorkerQueue& own = *queues_[home_queue];
    const std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    for (int i = 0; i < n && !task; ++i) {
      const int q = (home_queue + 1 + i) % n;
      if (q == home_queue) continue;
      WorkerQueue& victim = *queues_[q];
      const std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
        // The caller draining its own submissions is not a steal.
        if (home_queue >= 0) steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (!task) return false;
  {
    const std::lock_guard<std::mutex> lock(wake_mu_);
    --queued_;
  }
  task();
  return true;
}

int ThreadPool::NumChunks(int64_t begin, int64_t end, int64_t grain) const {
  if (end <= begin) return 0;
  const int64_t range = end - begin;
  const int64_t min_grain = std::max<int64_t>(1, grain);
  const int64_t by_grain = (range + min_grain - 1) / min_grain;
  // Several chunks per lane so a slow chunk can be compensated by steals;
  // an inline pool keeps the single chunk of a plain serial loop.
  const int64_t target =
      queues_.empty() ? 1 : static_cast<int64_t>(concurrency()) * 4;
  return static_cast<int>(std::min({by_grain, range, target}));
}

void ThreadPool::ParallelFor(
    int64_t begin, int64_t end,
    const std::function<void(int chunk, int64_t chunk_begin,
                             int64_t chunk_end)>& chunk_fn,
    int64_t grain) {
  if (end <= begin) return;
  const int chunks = NumChunks(begin, end, grain);
  const int64_t range = end - begin;
  auto chunk_bounds = [&](int chunk) {
    return std::pair<int64_t, int64_t>(
        begin + range * chunk / chunks, begin + range * (chunk + 1) / chunks);
  };
  if (queues_.empty() || chunks == 1) {
    for (int chunk = 0; chunk < chunks; ++chunk) {
      const auto [chunk_begin, chunk_end] = chunk_bounds(chunk);
      chunk_fn(chunk, chunk_begin, chunk_end);
    }
    return;
  }

  // Per-region completion state lives on the caller's stack; tasks cannot
  // outlive the region because this function drains it before returning.
  struct Region {
    std::mutex mu;
    std::condition_variable cv;
    int remaining;
  } region{{}, {}, chunks};
  // Worker-side deltas per chunk, re-credited to this thread afterwards so
  // StatsScope attribution survives the fan-out.
  std::vector<obs::StatsSnapshot> worker_stats(chunks);
  // Read only by the pool.steals counter, which GEACC_NO_STATS compiles out.
  [[maybe_unused]] const int64_t steals_before = steals();

  auto run_chunk = [&](int chunk) {
    const auto [chunk_begin, chunk_end] = chunk_bounds(chunk);
    if (tl_worker_pool == this) {
      const obs::StatsScope scope;
      chunk_fn(chunk, chunk_begin, chunk_end);
      worker_stats[chunk] = scope.Harvest();
    } else {
      chunk_fn(chunk, chunk_begin, chunk_end);
    }
    const std::lock_guard<std::mutex> lock(region.mu);
    if (--region.remaining == 0) region.cv.notify_one();
  };

  for (int chunk = 0; chunk < chunks; ++chunk) {
    const size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                     queues_.size();
    {
      const std::lock_guard<std::mutex> lock(queues_[q]->mu);
      queues_[q]->tasks.emplace_back([&run_chunk, chunk] { run_chunk(chunk); });
    }
    {
      const std::lock_guard<std::mutex> lock(wake_mu_);
      ++queued_;
    }
    wake_cv_.notify_one();
  }

  // The caller is a full lane: help until the queues run dry, then wait
  // for in-flight chunks on worker lanes.
  while (RunOneTask(-1)) {
  }
  {
    std::unique_lock<std::mutex> lock(region.mu);
    region.cv.wait(lock, [&region] { return region.remaining == 0; });
  }

  for (const obs::StatsSnapshot& snapshot : worker_stats) {
    obs::ForwardToCallingThread(snapshot);
  }
  GEACC_STATS_ADD("pool.parallel_fors", 1);
  GEACC_STATS_ADD("pool.chunks", chunks);
  GEACC_STATS_ADD("pool.steals", steals() - steals_before);
}

}  // namespace geacc
