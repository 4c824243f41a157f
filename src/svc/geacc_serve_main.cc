// geacc_serve: stand up an ArrangementService over TCP (DESIGN.md §11).
//
// Boots a synthetic instance (paper Table III knobs), solves it with the
// fallback solver, then serves svc/wire traffic on 127.0.0.1:--port until
// SIGINT/SIGTERM (or --duration_s elapses). If --wal names an existing
// log, the service recovers from it instead of regenerating — restart
// with the same --wal to resume where the last run stopped; add
// --checkpoint to bound recovery to the WAL suffix past the last paged
// checkpoint (DESIGN.md §14). Pair with bench/loadgen:
//
//   geacc_serve --port 7411 --events 500 --users 10000 &
//   loadgen --port 7411 --threads 4 --duration_s 5 --json report.json

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "gen/synthetic.h"
#include "svc/server.h"
#include "svc/service.h"
#include "util/flags.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int /*signal*/) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  int port = 7411;
  int events = 500;
  int users = 10000;
  int dim = 20;
  int64_t seed = 42;
  double conflict_density = 0.25;
  std::string similarity = "euclidean";
  int batch_size = 64;
  int queue_depth = 1024;
  std::string wal;
  std::string checkpoint;
  int64_t checkpoint_every = 64;
  std::string fallback = "greedy";
  int64_t repair_budget = 0;
  double drift_threshold = 0.1;
  bool score_only = false;
  int duration_s = 0;

  geacc::FlagSet flags;
  flags.AddInt("port", &port, "TCP port on 127.0.0.1 (0 = ephemeral)");
  flags.AddInt("events", &events, "synthetic |V|");
  flags.AddInt("users", &users, "synthetic |U|");
  flags.AddInt("dim", &dim, "attribute dimension");
  flags.AddInt("seed", &seed, "generator seed");
  flags.AddDouble("conflict_density", &conflict_density,
                  "synthetic conflict density");
  flags.AddString("similarity", &similarity,
                  "euclidean | cosine | rbf");
  flags.AddInt("batch_size", &batch_size,
               "mutations applied per snapshot publish");
  flags.AddInt("queue_depth", &queue_depth,
               "submit queue bound (full => overloaded)");
  flags.AddString("wal", &wal, "WAL path for crash recovery (empty = off)");
  flags.AddString("checkpoint", &checkpoint,
                  "paged checkpoint path (DESIGN.md §14): recovery replays "
                  "only the WAL suffix past it (empty = full replay)");
  flags.AddInt("checkpoint_every", &checkpoint_every,
               "applied batches between checkpoints");
  flags.AddString("fallback", &fallback, "full-resolve solver");
  flags.AddInt("repair_budget", &repair_budget,
               "cursor steps per repair (0 = unlimited)");
  flags.AddDouble("drift_threshold", &drift_threshold,
                  "full-resolve trigger (<= 0 disables)");
  flags.AddBool("score_only", &score_only,
                "shard-replica mode (DESIGN.md §16): no bootstrap solve and "
                "no repair refill — the coordinator owns the arrangement "
                "and pushes it via install");
  flags.AddInt("duration_s", &duration_s, "exit after this long (0 = forever)");
  flags.Parse(argc, argv);

  geacc::svc::ServiceOptions options;
  options.batch_size = batch_size;
  options.queue_depth = queue_depth;
  options.wal_path = wal;
  options.paged_checkpoint_path = checkpoint;
  options.checkpoint_interval_batches = static_cast<int>(checkpoint_every);
  options.repair.fallback_solver = fallback;
  options.repair.repair_budget = repair_budget;
  options.repair.drift_threshold = drift_threshold;
  if (score_only) {
    options.bootstrap_full_resolve = false;
    options.repair.refill = false;
  }

  // An existing WAL wins over the synthetic knobs: restarting with the
  // same --wal resumes the logged state instead of regenerating (and
  // silently truncating the log).
  std::unique_ptr<geacc::svc::ArrangementService> service;
  if (!wal.empty() && std::ifstream(wal).good()) {
    std::fprintf(stderr, "geacc_serve: recovering from %s...\n", wal.c_str());
    std::string wal_error;
    service = geacc::svc::ArrangementService::Recover(options, &wal_error);
    if (service == nullptr) {
      std::fprintf(stderr, "geacc_serve: recovery failed: %s\n",
                   wal_error.c_str());
      return 1;
    }
  } else {
    geacc::SyntheticConfig config;
    config.num_events = events;
    config.num_users = users;
    config.dim = dim;
    config.seed = static_cast<uint64_t>(seed);
    config.conflict_density = conflict_density;
    config.similarity = similarity;

    std::fprintf(stderr, "geacc_serve: generating |V|=%d |U|=%d d=%d...\n",
                 events, users, dim);
    std::fprintf(stderr, "geacc_serve: bootstrapping arrangement...\n");
    service = std::make_unique<geacc::svc::ArrangementService>(
        GenerateSynthetic(config), options);
  }
  const geacc::svc::ServiceStatsView stats = service->Stats();
  std::fprintf(stderr, "geacc_serve: MaxSum %.4f over %lld pairs\n",
               stats.max_sum, static_cast<long long>(stats.pairs));

  geacc::svc::ServiceServer server(service.get());
  std::string error;
  if (!server.Start(port, &error)) {
    std::fprintf(stderr, "geacc_serve: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // stdout and unbuffered: supervisors (CI smoke) wait for this line.
  std::printf("geacc_serve listening on port %d\n", server.port());
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_s > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(duration_s)) {
      break;
    }
  }

  std::fprintf(stderr, "geacc_serve: shutting down\n");
  server.Stop();
  service->Stop();
  return 0;
}
