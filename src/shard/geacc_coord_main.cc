// geacc_coord: shard coordinator for a multi-node arrangement topology
// (DESIGN.md §16).
//
// Connects to N score-only geacc_serve shards (--shard_ports), builds the
// hashed partition map over them, and either:
//
//   * serve mode (default): optionally bootstraps a synthetic instance
//     (--events/--users routed through the partition map), runs an epoch
//     repair pass --repair_ms after the previous one ends, and serves the
//     svc/wire protocol on --port — the front-end a loadgen fleet points
//     at. Exits on SIGINT/SIGTERM or after --duration_s.
//
//   * replay mode (--replay trace.txt): routes the trace's initial
//     instance and then each mutation in order, running a repair pass
//     every --repair_every mutations plus a final one, then dumps the
//     merged global instance + arrangement (--dump_instance /
//     --dump_arrangement) and prints the final MaxSum with full precision.
//     Deterministic: two replays of the same trace produce bit-identical
//     dumps — including a replay where a shard was SIGKILLed and
//     restarted from its WAL mid-run, which is exactly what the CI
//     failover smoke asserts.
//
//   geacc_serve --port 7421 --events 0 --users 0 --score_only ... &
//   geacc_serve --port 7422 --events 0 --users 0 --score_only ... &
//   geacc_coord --shard_ports 7421,7422 --port 7400 --events 100 --users 800
//
// Shards must be started empty (--events 0 --users 0) and --score_only;
// the coordinator is the sole writer and the only arrangement authority.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/similarity.h"
#include "gen/synthetic.h"
#include "io/trace_io.h"
#include "shard/coordinator.h"
#include "svc/client.h"
#include "svc/server.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int /*signal*/) { g_stop.store(true); }

std::vector<int> ParsePortList(const std::string& list) {
  std::vector<int> ports;
  std::string current;
  for (const char c : list + ",") {
    if (c == ',') {
      if (!current.empty()) ports.push_back(std::atoi(current.c_str()));
      current.clear();
    } else {
      current += c;
    }
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 7400;
  std::string shard_ports = "7421,7422,7423";
  std::string host = "127.0.0.1";
  int events = 0;
  int users = 0;
  int dim = 20;
  int64_t seed = 42;
  double conflict_density = 0.25;
  std::string similarity = "euclidean";
  double similarity_param = 10000.0;
  std::string replay;
  int64_t repair_every = 64;
  int repair_ms = 500;
  int replay_sleep_us = 0;
  std::string dump_instance;
  std::string dump_arrangement;
  int duration_s = 0;
  int max_connections = 256;
  int reconnect_timeout_s = 30;

  geacc::FlagSet flags;
  flags.AddInt("port", &port,
               "front-end TCP port on 127.0.0.1 (0 = ephemeral)");
  flags.AddString("shard_ports", &shard_ports,
                  "comma-separated shard ports on --host");
  flags.AddString("host", &host, "shard host");
  flags.AddInt("events", &events,
               "serve mode: bootstrap synthetic |V| (0 = start empty)");
  flags.AddInt("users", &users, "serve mode: bootstrap synthetic |U|");
  flags.AddInt("dim", &dim,
               "attribute dimension (must match the shards' --dim)");
  flags.AddInt("seed", &seed, "bootstrap generator seed");
  flags.AddDouble("conflict_density", &conflict_density,
                  "bootstrap conflict density");
  flags.AddString("similarity", &similarity,
                  "euclidean | cosine | rbf (must match the shards)");
  flags.AddDouble("similarity_param", &similarity_param,
                  "T for euclidean, bandwidth for rbf");
  flags.AddString("replay", &replay,
                  "replay this geacc-trace file deterministically and exit");
  flags.AddInt("repair_every", &repair_every,
               "replay mode: repair pass every this many mutations");
  flags.AddInt("repair_ms", &repair_ms,
               "serve mode: milliseconds between repair passes");
  flags.AddInt("replay_sleep_us", &replay_sleep_us,
               "replay mode: microseconds slept per mutation (widens the "
               "failover window for the CI kill test)");
  flags.AddString("dump_instance", &dump_instance,
                  "write the merged dense instance here before exit");
  flags.AddString("dump_arrangement", &dump_arrangement,
                  "write the merged dense arrangement here before exit");
  flags.AddInt("duration_s", &duration_s,
               "serve mode: exit after this long (0 = forever)");
  flags.AddInt("max_connections", &max_connections,
               "front-end live-connection cap");
  flags.AddInt("reconnect_timeout_s", &reconnect_timeout_s,
               "give up on a dead shard after this long");
  flags.Parse(argc, argv);

  const std::vector<int> ports = ParsePortList(shard_ports);
  if (ports.empty()) {
    std::fprintf(stderr, "geacc_coord: --shard_ports is empty\n");
    return 2;
  }

  // Replay mode adopts the trace's own dimension and similarity so the
  // mirror scores identically to a single-node replay of the same file.
  std::optional<geacc::MutationTrace> trace;
  if (!replay.empty()) {
    std::string trace_error;
    trace = geacc::ReadTraceFromFile(replay, &trace_error);
    if (!trace) {
      std::fprintf(stderr, "geacc_coord: %s: %s\n", replay.c_str(),
                   trace_error.c_str());
      return 1;
    }
    dim = trace->initial.dim();
  }

  std::unique_ptr<geacc::SimilarityFunction> mirror_similarity =
      trace ? trace->initial.similarity().Clone()
            : geacc::MakeSimilarity(similarity, similarity_param);
  if (mirror_similarity == nullptr) {
    std::fprintf(stderr, "geacc_coord: unknown similarity '%s'\n",
                 similarity.c_str());
    return 2;
  }

  std::vector<std::unique_ptr<geacc::svc::SocketClient>> sockets;
  std::vector<geacc::svc::ServiceClient*> clients;
  for (const int shard_port : ports) {
    auto client = std::make_unique<geacc::svc::SocketClient>();
    std::string connect_error;
    if (!client->Connect(host, shard_port, &connect_error)) {
      std::fprintf(stderr, "geacc_coord: shard %zu: %s\n", sockets.size(),
                   connect_error.c_str());
      return 1;
    }
    clients.push_back(client.get());
    sockets.push_back(std::move(client));
  }
  std::fprintf(stderr, "geacc_coord: %zu shard(s) connected\n",
               sockets.size());

  geacc::shard::CoordinatorOptions options;
  options.reconnect_timeout_ms = reconnect_timeout_s * 1000;
  geacc::shard::ShardCoordinator coordinator(clients, dim,
                                             std::move(mirror_similarity),
                                             options);
  coordinator.set_reconnect_fn([&](int shard) {
    sockets[shard]->Disconnect();
    return sockets[shard]->Connect(host, ports[shard]);
  });

  const auto fail = [&](const std::string& what, const std::string& error) {
    std::fprintf(stderr, "geacc_coord: %s: %s\n", what.c_str(),
                 error.c_str());
    return 1;
  };

  if (trace) {
    std::string error = coordinator.ApplyInstance(trace->initial);
    if (!error.empty()) return fail("seed", error);
    int64_t applied = 0;
    for (const geacc::Mutation& mutation : trace->mutations) {
      error = coordinator.Apply(mutation);
      if (!error.empty()) {
        return fail(geacc::StrFormat("mutation %lld",
                                     static_cast<long long>(applied)),
                    error);
      }
      ++applied;
      if (repair_every > 0 && applied % repair_every == 0) {
        error = coordinator.RepairPass();
        if (!error.empty()) return fail("repair pass", error);
      }
      if (replay_sleep_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(replay_sleep_us));
      }
    }
    error = coordinator.RepairPass();
    if (!error.empty()) return fail("final repair pass", error);
    if (!dump_instance.empty() || !dump_arrangement.empty()) {
      error = coordinator.DumpMerged(dump_instance, dump_arrangement);
      if (!error.empty()) return fail("dump", error);
    }
    std::printf("geacc_coord: replayed %lld mutations, MaxSum %.17g\n",
                static_cast<long long>(applied),
                coordinator.global_max_sum());
    return 0;
  }

  if (events > 0 || users > 0) {
    geacc::SyntheticConfig config;
    config.num_events = events;
    config.num_users = users;
    config.dim = dim;
    config.seed = static_cast<uint64_t>(seed);
    config.conflict_density = conflict_density;
    config.similarity = similarity;
    std::fprintf(stderr,
                 "geacc_coord: bootstrapping |V|=%d |U|=%d across %zu "
                 "shard(s)...\n",
                 events, users, sockets.size());
    std::string error =
        coordinator.ApplyInstance(GenerateSynthetic(config));
    if (!error.empty()) return fail("bootstrap", error);
    error = coordinator.RepairPass();
    if (!error.empty()) return fail("bootstrap repair", error);
    std::fprintf(stderr, "geacc_coord: MaxSum %.4f over %zu pairs\n",
                 coordinator.global_max_sum(),
                 coordinator.arrangement().size());
  }

  geacc::svc::WireServer::Options server_options;
  server_options.max_connections = max_connections;
  geacc::svc::WireServer server(
      [&coordinator](const geacc::svc::WireRequest& request) {
        return coordinator.Dispatch(request);
      },
      server_options);
  std::string server_error;
  if (!server.Start(port, &server_error)) {
    std::fprintf(stderr, "geacc_coord: %s\n", server_error.c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // stdout and unbuffered: supervisors (CI smoke) wait for this line.
  std::printf("geacc_coord listening on port %d\n", server.port());
  std::fflush(stdout);

  std::atomic<bool> repair_stop{false};
  std::thread repair_thread([&] {
    while (!repair_stop.load()) {
      // Counted from the end of the previous pass: a pass that outlasts
      // --repair_ms must not start the next one at once.
      const auto next =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(repair_ms > 0 ? repair_ms : 500);
      while (!repair_stop.load() && std::chrono::steady_clock::now() < next) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (repair_stop.load()) break;
      const std::string error = coordinator.RepairPass();
      if (!error.empty()) {
        std::fprintf(stderr, "geacc_coord: repair pass failed: %s\n",
                     error.c_str());
      }
    }
  });

  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (duration_s > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(duration_s)) {
      break;
    }
  }

  std::fprintf(stderr, "geacc_coord: shutting down\n");
  repair_stop.store(true);
  repair_thread.join();
  server.Stop();

  // One quiescent pass so the dumped arrangement reflects every mutation
  // the fleet managed to submit.
  std::string error = coordinator.RepairPass();
  if (!error.empty()) return fail("final repair pass", error);
  if (!dump_instance.empty() || !dump_arrangement.empty()) {
    error = coordinator.DumpMerged(dump_instance, dump_arrangement);
    if (!error.empty()) return fail("dump", error);
  }
  std::printf("geacc_coord: final MaxSum %.17g over %zu pairs\n",
              coordinator.global_max_sum(), coordinator.arrangement().size());
  return 0;
}
