// Load generator for geacc_serve (DESIGN.md §11).
//
// Drives a running arrangement service over TCP with N client threads,
// each on its own connection, issuing a configurable mix of reads
// (get_assignments / get_attendees / top_k / stats) and mutations. Two
// pacing modes:
//
//   --mode closed   each thread fires its next request the moment the
//                   previous reply lands (throughput test)
//   --mode open     requests are scheduled at --rate QPS total; latency is
//                   measured from the *scheduled* send time, so queueing
//                   delay counts (no coordinated omission)
//
// Reports aggregate throughput and p50/p95/p99 latency, and with --json
// writes a `geacc-bench v1` report whose point carries the new optional
// "latency" object (src/obs/bench_report.h). Overloaded mutate replies are
// counted (svc backpressure working as designed), not errors. Exit is
// non-zero on connect failures or any protocol/network error.
//
//   loadgen --port 7411 --threads 4 --duration_s 5 --json report.json
//
// Fleet mode (--fleet M, DESIGN.md §16): spawns M loadgen *processes*
// against a geacc_coord front-end, unions every child's raw latency
// samples for exact end-to-end percentiles, sums their counters, and
// pulls the coordinator's per-shard RPC view over kShardStats — the
// report's point then carries the optional "shards" section, which CI
// gates with `validate_report --require-shards`. Child processes get
// distinct seeds and, in open mode, an equal slice of --rate.
//
//   loadgen --port 7400 --fleet 4 --threads 4 --duration_s 8 --json fleet.json

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dyn/mutation.h"
#include "exp/metrics.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "svc/client.h"
#include "svc/wire.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using geacc::LatencyRecorder;
using geacc::Mutation;
using geacc::Rng;
using geacc::svc::RpcStatus;
using geacc::svc::ScoredEvent;
using geacc::svc::ServiceStatsView;
using geacc::svc::SocketClient;

struct OpMix {
  double assignments = 0.40;
  double attendees = 0.30;
  double topk = 0.20;
  double stats = 0.05;
  // remainder = mutate
};

struct WorkerResult {
  int64_t requests = 0;
  int64_t assignments = 0;
  int64_t attendees = 0;
  int64_t topk = 0;
  int64_t stats = 0;
  int64_t mutates = 0;
  int64_t overloads = 0;
  int64_t server_errors = 0;
  int64_t protocol_errors = 0;  // protocol + network failures
  LatencyRecorder latency;
};

// Random mutation shaped like trace_gen churn: mostly capacity jitter plus
// some user add/remove, against the id ranges the bootstrap stats report.
Mutation RandomMutation(Rng& rng, const ServiceStatsView& shape, int dim) {
  const double pick = rng.UniformReal(0.0, 1.0);
  if (pick < 0.4) {
    return Mutation::SetUserCapacity(
        rng.UniformInt(0, shape.user_slots - 1), rng.UniformInt(1, 4));
  }
  if (pick < 0.7) {
    return Mutation::SetEventCapacity(
        rng.UniformInt(0, shape.event_slots - 1), rng.UniformInt(1, 50));
  }
  if (pick < 0.9) {
    std::vector<double> attributes(dim);
    for (double& a : attributes) a = rng.UniformReal(0.0, 10000.0);
    return Mutation::AddUser(std::move(attributes), rng.UniformInt(1, 4));
  }
  return Mutation::RemoveUser(rng.UniformInt(0, shape.user_slots - 1));
}

void RunWorker(const std::string& host, int port, double duration_s,
               bool open_loop, double thread_rate, const OpMix& mix, int topk,
               const ServiceStatsView& shape, int dim, uint64_t seed,
               WorkerResult* result) {
  SocketClient client;
  std::string error;
  if (!client.Connect(host, port, &error)) {
    std::fprintf(stderr, "loadgen: %s\n", error.c_str());
    ++result->protocol_errors;
    return;
  }
  Rng rng(seed);
  std::vector<int32_t> ids;
  std::vector<ScoredEvent> scored;
  ServiceStatsView stats;

  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_s));
  const std::chrono::duration<double> interval(
      thread_rate > 0.0 ? 1.0 / thread_rate : 0.0);
  auto scheduled = start;

  while (std::chrono::steady_clock::now() < deadline) {
    if (open_loop) {
      std::this_thread::sleep_until(scheduled);
    }
    const auto issue_time =
        open_loop ? scheduled : std::chrono::steady_clock::now();

    const double pick = rng.UniformReal(0.0, 1.0);
    RpcStatus status;
    if (pick < mix.assignments) {
      status = client.GetAssignments(
          rng.UniformInt(0, shape.user_slots - 1), &ids);
      ++result->assignments;
    } else if (pick < mix.assignments + mix.attendees) {
      status = client.GetAttendees(
          rng.UniformInt(0, shape.event_slots - 1), &ids);
      ++result->attendees;
    } else if (pick < mix.assignments + mix.attendees + mix.topk) {
      status = client.TopKEvents(rng.UniformInt(0, shape.user_slots - 1),
                                 topk, &scored);
      ++result->topk;
    } else if (pick < mix.assignments + mix.attendees + mix.topk + mix.stats) {
      status = client.GetStats(&stats);
      ++result->stats;
    } else {
      status = client.Mutate(RandomMutation(rng, shape, dim), nullptr);
      ++result->mutates;
    }
    ++result->requests;
    result->latency.Record(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - issue_time)
                               .count());

    switch (status) {
      case RpcStatus::kOk:
        break;
      case RpcStatus::kOverloaded:
        ++result->overloads;
        break;
      case RpcStatus::kServerError:
        // Expected under churn: a read can race a remove_user the service
        // applied between our stats snapshot and now — but out-of-range
        // ids never are, so count and report.
        ++result->server_errors;
        break;
      default:
        ++result->protocol_errors;
        std::fprintf(stderr, "loadgen: %s: %s\n", RpcStatusName(status),
                     client.last_error().c_str());
        return;  // connection is gone; stop this worker
    }
    scheduled += std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(interval);
  }
}

// Everything a fleet child needs to inherit from the parent invocation.
struct FleetConfig {
  std::string host;
  int port = 0;
  int threads = 0;
  double duration_s = 0.0;
  std::string mode;
  double rate = 0.0;
  int topk = 0;
  double mutate_fraction = 0.0;
  int dim = 0;
  std::string label;
  int64_t seed = 0;
  int fleet = 0;
  std::string json;
};

std::string SelfExecutable() {
  char buffer[4096];
  const ssize_t n = readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return "";
  buffer[n] = '\0';
  return buffer;
}

// Spawns `config.fleet` child loadgen processes against the coordinator,
// merges their reports and raw latency samples, attaches the
// coordinator's per-shard stats, and writes the aggregate report.
int RunFleet(const FleetConfig& config) {
  const std::string exe = SelfExecutable();
  if (exe.empty()) {
    std::fprintf(stderr, "loadgen: cannot resolve /proc/self/exe\n");
    return 1;
  }
  const char* tmpdir_env = std::getenv("TMPDIR");
  const std::string tmpdir =
      (tmpdir_env != nullptr && tmpdir_env[0] != '\0') ? tmpdir_env : "/tmp";
  const std::string base = geacc::StrFormat(
      "%s/loadgen_fleet_%d", tmpdir.c_str(), static_cast<int>(getpid()));

  std::fprintf(stderr,
               "loadgen: fleet of %d process(es) x %d thread(s) against "
               "%s:%d\n",
               config.fleet, config.threads, config.host.c_str(), config.port);

  std::vector<pid_t> children;
  std::vector<std::string> child_jsons;
  std::vector<std::string> child_samples;
  geacc::WallTimer wall;
  for (int i = 0; i < config.fleet; ++i) {
    child_jsons.push_back(geacc::StrFormat("%s_%d.json", base.c_str(), i));
    child_samples.push_back(
        geacc::StrFormat("%s_%d.samples", base.c_str(), i));
    std::vector<std::string> args;
    args.push_back(exe);
    args.push_back("--host=" + config.host);
    args.push_back(geacc::StrFormat("--port=%d", config.port));
    args.push_back(geacc::StrFormat("--threads=%d", config.threads));
    args.push_back(geacc::StrFormat("--duration_s=%.6f", config.duration_s));
    args.push_back("--mode=" + config.mode);
    args.push_back(geacc::StrFormat("--rate=%.6f",
                                    config.rate / config.fleet));
    args.push_back(geacc::StrFormat("--topk=%d", config.topk));
    args.push_back(geacc::StrFormat("--mutate_fraction=%.6f",
                                    config.mutate_fraction));
    args.push_back(geacc::StrFormat("--dim=%d", config.dim));
    args.push_back(geacc::StrFormat(
        "--seed=%lld",
        static_cast<long long>(config.seed + 1 +
                               static_cast<int64_t>(i) * 1000003)));
    args.push_back("--label=" + config.label);
    args.push_back("--json=" + child_jsons.back());
    args.push_back("--samples_out=" + child_samples.back());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "loadgen: fork: %s\n", std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      execv(exe.c_str(), argv.data());
      std::fprintf(stderr, "loadgen: execv %s: %s\n", exe.c_str(),
                   std::strerror(errno));
      _exit(127);
    }
    children.push_back(pid);
  }

  int failures = 0;
  for (int i = 0; i < config.fleet; ++i) {
    int status = 0;
    if (waitpid(children[i], &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "loadgen: fleet child %d failed (status %d)\n", i,
                   status);
      ++failures;
    }
  }
  const double elapsed = wall.Seconds();

  // Merge: counters summed across children, latency samples unioned for
  // exact fleet-wide percentiles.
  std::map<std::string, int64_t> counters;
  LatencyRecorder all_latency;
  for (int i = 0; i < config.fleet; ++i) {
    std::ifstream in(child_jsons[i]);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    geacc::obs::JsonValue json;
    geacc::obs::BenchReport child;
    std::string error;
    if (!in || !geacc::obs::JsonValue::Parse(buffer.str(), &json, &error) ||
        !child.FromJson(json, &error) || child.points.empty()) {
      std::fprintf(stderr, "loadgen: fleet child %d report %s: %s\n", i,
                   child_jsons[i].c_str(),
                   error.empty() ? "unreadable" : error.c_str());
      ++failures;
      continue;
    }
    for (const auto& [name, value] : child.points[0].counters) {
      // Rates don't sum across processes; recompute QPS below instead.
      if (name == "loadgen.qps") continue;
      counters[name] += value;
    }
    std::ifstream samples(child_samples[i]);
    double sample = 0.0;
    while (samples >> sample) all_latency.Record(sample);
  }
  for (int i = 0; i < config.fleet; ++i) {
    std::remove(child_jsons[i].c_str());
    std::remove(child_samples[i].c_str());
  }

  const int64_t requests = counters["loadgen.requests"];
  const double qps = elapsed > 0.0 ? requests / elapsed : 0.0;
  const double p50_ms = all_latency.Percentile(50.0) * 1e3;
  const double p95_ms = all_latency.Percentile(95.0) * 1e3;
  const double p99_ms = all_latency.Percentile(99.0) * 1e3;
  counters["loadgen.qps"] = static_cast<int64_t>(qps);
  counters["loadgen.fleet"] = config.fleet;

  std::printf("loadgen: fleet %lld requests in %.2fs = %.0f QPS\n",
              static_cast<long long>(requests), elapsed, qps);
  std::printf("loadgen: fleet latency p50 %.3fms  p95 %.3fms  p99 %.3fms "
              "(%lld samples)\n",
              p50_ms, p95_ms, p99_ms,
              static_cast<long long>(all_latency.count()));
  std::printf("loadgen: fleet overloads %lld, server_errors %lld, "
              "protocol_errors %lld\n",
              static_cast<long long>(counters["loadgen.overloads"]),
              static_cast<long long>(counters["loadgen.server_errors"]),
              static_cast<long long>(counters["loadgen.protocol_errors"]));

  // The coordinator's own view: global MaxSum plus per-shard RPC traffic.
  SocketClient probe;
  std::string error;
  geacc::svc::ShardTopologyStats topology;
  bool have_topology = false;
  if (!probe.Connect(config.host, config.port, &error)) {
    std::fprintf(stderr, "loadgen: fleet stats probe: %s\n", error.c_str());
    ++failures;
  } else if (probe.GetShardStats(&topology) != RpcStatus::kOk) {
    std::fprintf(stderr,
                 "loadgen: %s:%d does not serve shard stats (not a "
                 "coordinator?) — omitting the shards section\n",
                 config.host.c_str(), config.port);
  } else {
    have_topology = true;
    for (const geacc::svc::ShardStatsEntry& entry : topology.shards) {
      std::printf("loadgen: shard %d: %lld rpcs, p50 %.3fms p95 %.3fms "
                  "p99 %.3fms, %lld pairs\n",
                  entry.shard, static_cast<long long>(entry.rpc_requests),
                  entry.rpc_p50_ms, entry.rpc_p95_ms, entry.rpc_p99_ms,
                  static_cast<long long>(entry.stats.pairs));
    }
  }

  if (!config.json.empty()) {
    geacc::obs::BenchReport report;
    report.bench = "loadgen";
    report.git_rev = geacc::obs::GitRevision();
    report.flags["fleet"] = geacc::StrFormat("%d", config.fleet);
    report.flags["threads"] = geacc::StrFormat("%d", config.threads);
    report.flags["mode"] = config.mode;
    report.flags["duration_s"] =
        geacc::StrFormat("%g", config.duration_s);
    geacc::obs::BenchPoint point;
    point.label = config.label;
    point.solver = "service";
    point.wall_seconds = elapsed;
    point.counters = counters;
    point.has_latency = true;
    point.latency = {p50_ms, p95_ms, p99_ms, all_latency.count()};
    if (have_topology) {
      point.max_sum = topology.global_max_sum;
      point.has_shards = true;
      point.shards.shard_count = topology.shard_count;
      point.shards.fleet = config.fleet;
      point.shards.qps = qps;
      for (const geacc::svc::ShardStatsEntry& entry : topology.shards) {
        geacc::obs::ShardLatency shard;
        shard.shard = entry.shard;
        shard.requests = entry.rpc_requests;
        shard.p50_ms = entry.rpc_p50_ms;
        shard.p95_ms = entry.rpc_p95_ms;
        shard.p99_ms = entry.rpc_p99_ms;
        point.shards.per_shard.push_back(shard);
      }
    }
    report.points.push_back(std::move(point));
    std::string write_error;
    if (!report.WriteFile(config.json, &write_error)) {
      std::fprintf(stderr, "loadgen: %s\n", write_error.c_str());
      return 1;
    }
    std::printf("wrote geacc-bench v1 report: %s\n", config.json.c_str());
  }

  return failures == 0 && counters["loadgen.protocol_errors"] == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 7411;
  int threads = 4;
  double duration_s = 5.0;
  std::string mode = "closed";
  double rate = 50000.0;
  int topk = 8;
  double mutate_fraction = 0.05;
  int dim = 20;
  std::string json;
  std::string label = "mixed";
  int64_t seed = 42;
  int fleet = 0;
  std::string samples_out;

  geacc::FlagSet flags;
  flags.AddString("host", &host, "server host");
  flags.AddInt("port", &port, "server port");
  flags.AddInt("threads", &threads, "client threads (one connection each)");
  flags.AddDouble("duration_s", &duration_s, "run length in seconds");
  flags.AddString("mode", &mode,
                  "closed (back-to-back) | open (paced by --rate)");
  flags.AddDouble("rate", &rate, "open-loop target QPS across all threads");
  flags.AddInt("topk", &topk, "k for top_k requests");
  flags.AddDouble("mutate_fraction", &mutate_fraction,
                  "fraction of requests that are mutations");
  flags.AddInt("dim", &dim,
               "attribute dimension for add_user mutations (must match the "
               "server; it rejects mismatched arity)");
  flags.AddString("json", &json,
                  "write a geacc-bench v1 JSON report to this path");
  flags.AddString("label", &label, "report point label");
  flags.AddInt("seed", &seed, "base RNG seed");
  flags.AddInt("fleet", &fleet,
               "spawn this many loadgen processes against a geacc_coord "
               "front-end and aggregate (0 = single process)");
  flags.AddString("samples_out", &samples_out,
                  "write raw latency samples (seconds, one per line) here — "
                  "fleet children use this to hand samples to the parent");
  flags.Parse(argc, argv);

  if (mode != "closed" && mode != "open") {
    std::fprintf(stderr, "loadgen: --mode must be 'closed' or 'open'\n");
    return 2;
  }
  if (threads < 1 || duration_s <= 0.0 || mutate_fraction < 0.0 ||
      mutate_fraction > 1.0 || fleet < 0) {
    std::fprintf(stderr, "loadgen: bad --threads/--duration_s/"
                         "--mutate_fraction/--fleet\n");
    return 2;
  }

  if (fleet > 0) {
    FleetConfig config;
    config.host = host;
    config.port = port;
    config.threads = threads;
    config.duration_s = duration_s;
    config.mode = mode;
    config.rate = rate;
    config.topk = topk;
    config.mutate_fraction = mutate_fraction;
    config.dim = dim;
    config.label = label;
    config.seed = seed;
    config.fleet = fleet;
    config.json = json;
    return RunFleet(config);
  }

  // One bootstrap connection: learn the id ranges and prove the server is
  // up before spawning workers.
  SocketClient probe;
  std::string error;
  if (!probe.Connect(host, port, &error)) {
    std::fprintf(stderr, "loadgen: %s\n", error.c_str());
    return 1;
  }
  ServiceStatsView shape;
  if (probe.GetStats(&shape) != RpcStatus::kOk) {
    std::fprintf(stderr, "loadgen: stats probe failed: %s\n",
                 probe.last_error().c_str());
    return 1;
  }
  OpMix mix;
  const double read_scale =
      (1.0 - mutate_fraction) /
      (mix.assignments + mix.attendees + mix.topk + mix.stats);
  mix.assignments *= read_scale;
  mix.attendees *= read_scale;
  mix.topk *= read_scale;
  mix.stats *= read_scale;

  const bool open_loop = mode == "open";
  const double thread_rate = open_loop ? rate / threads : 0.0;

  std::fprintf(stderr,
               "loadgen: %d thread(s), %.1fs, %s loop against %s:%d "
               "(|V| slots %d, |U| slots %d)\n",
               threads, duration_s, mode.c_str(), host.c_str(), port,
               shape.event_slots, shape.user_slots);

  std::vector<WorkerResult> results(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  geacc::WallTimer wall;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(RunWorker, host, port, duration_s, open_loop,
                         thread_rate, mix, topk, shape, dim,
                         static_cast<uint64_t>(seed) + t, &results[t]);
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed = wall.Seconds();

  WorkerResult total;
  LatencyRecorder all_latency;
  for (const WorkerResult& r : results) {
    total.requests += r.requests;
    total.assignments += r.assignments;
    total.attendees += r.attendees;
    total.topk += r.topk;
    total.stats += r.stats;
    total.mutates += r.mutates;
    total.overloads += r.overloads;
    total.server_errors += r.server_errors;
    total.protocol_errors += r.protocol_errors;
    // Exact percentiles need the union of every thread's samples.
    for (const double sample : r.latency.samples()) {
      all_latency.Record(sample);
    }
  }
  const double p50_ms = all_latency.Percentile(50.0) * 1e3;
  const double p95_ms = all_latency.Percentile(95.0) * 1e3;
  const double p99_ms = all_latency.Percentile(99.0) * 1e3;

  if (!samples_out.empty()) {
    std::ofstream out(samples_out);
    for (const double sample : all_latency.samples()) {
      out << geacc::StrFormat("%.9e", sample) << "\n";
    }
    if (!out) {
      std::fprintf(stderr, "loadgen: cannot write %s\n", samples_out.c_str());
      return 1;
    }
  }

  ServiceStatsView final_stats;
  probe.GetStats(&final_stats);

  const double qps = elapsed > 0.0 ? total.requests / elapsed : 0.0;
  std::printf("loadgen: %lld requests in %.2fs = %.0f QPS\n",
              static_cast<long long>(total.requests), elapsed, qps);
  std::printf("loadgen: latency p50 %.3fms  p95 %.3fms  p99 %.3fms "
              "(%lld samples)\n",
              p50_ms, p95_ms, p99_ms,
              static_cast<long long>(all_latency.count()));
  std::printf("loadgen: overloads %lld, server_errors %lld, "
              "protocol_errors %lld\n",
              static_cast<long long>(total.overloads),
              static_cast<long long>(total.server_errors),
              static_cast<long long>(total.protocol_errors));

  if (!json.empty()) {
    geacc::obs::BenchReport report;
    report.bench = "loadgen";
    report.git_rev = geacc::obs::GitRevision();
    for (const auto& [name, value] : flags.Values()) {
      report.flags[name] = value;
    }
    geacc::obs::BenchPoint point;
    point.label = label;
    point.solver = "service";
    point.wall_seconds = elapsed;
    point.max_sum = final_stats.max_sum;
    point.counters["loadgen.requests"] = total.requests;
    point.counters["loadgen.qps"] = static_cast<int64_t>(qps);
    point.counters["loadgen.get_assignments"] = total.assignments;
    point.counters["loadgen.get_attendees"] = total.attendees;
    point.counters["loadgen.top_k"] = total.topk;
    point.counters["loadgen.stats"] = total.stats;
    point.counters["loadgen.mutates"] = total.mutates;
    point.counters["loadgen.overloads"] = total.overloads;
    point.counters["loadgen.server_errors"] = total.server_errors;
    point.counters["loadgen.protocol_errors"] = total.protocol_errors;
    point.counters["svc.applied_seq"] = final_stats.applied_seq;
    point.has_latency = true;
    point.latency = {p50_ms, p95_ms, p99_ms, all_latency.count()};
    report.points.push_back(std::move(point));
    std::string write_error;
    if (!report.WriteFile(json, &write_error)) {
      std::fprintf(stderr, "loadgen: %s\n", write_error.c_str());
      return 1;
    }
    std::printf("wrote geacc-bench v1 report: %s\n", json.c_str());
  }

  return total.protocol_errors == 0 ? 0 : 1;
}
