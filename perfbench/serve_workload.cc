// serve: one ArrangementService behind a ServiceServer on an ephemeral
// loopback port, WAL and paged checkpoint in a fresh directory, every
// other ServiceOptions field at its default, seeded from GenerateTrace at
// |V| = 500, |U| = 10,000, d = 20.
//
// Load (3 threads, 3 connections, for a 4-core host):
//   * two readers run a closed loop over the initial slot ids with
//     loadgen's read mix (get_assignments 40, get_attendees 30,
//     top_k(k = 8) 20, stats 5) from the first write's schedule until
//     the last write is visible, so every read runs beside the writer
//     and every write beside both readers;
//   * one writer sends the trace's mutations in order on a fixed
//     kWriteRate schedule, each at its scheduled time or once the
//     previous write is visible, whichever is later, and times it from
//     the schedule until WaitForTicket returns. One write is outstanding
//     at a time because later mutations name entities earlier ones
//     create, and a wire ack only means "queued". Pacing keeps the
//     writer's snapshot builds from swinging the readers.
// The timed window ends when the last write is visible. The write count
// is fixed per --seconds; the read count is what the host allowed in that
// window. Then a crash-restart: Recover() runs from copies of the WAL and
// checkpoint taken before Stop(), so no final checkpoint exists, and the
// recovered state must equal the live one.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/trace_gen.h"
#include "perfbench/workloads.h"
#include "svc/client.h"
#include "svc/paged_checkpoint.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/wal.h"
#include "util/check.h"
#include "util/rng.h"

namespace geacc::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr double kWriteRate = 40.0;  // writes per second
constexpr int kReaders = 2;
// Read latencies kept per reader: a uniform sample of its reads, so the
// benchmark's own memory does not grow with the read count.
constexpr size_t kReadSamples = size_t{1} << 18;
constexpr int kTopK = 8;
// A traced reader repeats every kQuerySampleEvery-th read in process.
constexpr int kQuerySampleEvery = 32;

enum ReadKind { kAssignments = 0, kAttendees, kTopK_, kStats, kReadKinds };
constexpr const char* kReadNames[kReadKinds] = {
    "get_assignments", "get_attendees", "top_k", "stats"};
// loadgen's read mix, cumulative over 95.
constexpr double kReadMixCumulative[kReadKinds] = {40.0, 70.0, 90.0, 95.0};

TraceGenConfig TraceConfigFor(const RunConfig& config, int num_writes) {
  TraceGenConfig trace;
  trace.initial_events = 500;
  trace.initial_users = 10'000;
  trace.dim = 20;
  trace.num_mutations = num_writes;
  trace.seed = InputSeed(config.seed, 0);
  return trace;
}

obs::JsonValue Provenance(const TraceGenConfig& trace,
                          const RunConfig& config) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("generator", "gen::GenerateTrace");
  out.Set("events", trace.initial_events);
  out.Set("users", trace.initial_users);
  out.Set("dim", trace.dim);
  out.Set("max_attribute", trace.max_attribute);
  out.Set("max_event_capacity", trace.max_event_capacity);
  out.Set("max_user_capacity", trace.max_user_capacity);
  out.Set("mutations_requested", trace.num_mutations);
  out.Set("run_seed", static_cast<int64_t>(config.seed));
  out.Set("trace_seed", std::to_string(trace.seed));
  out.Set("write_rate_per_s", kWriteRate);
  out.Set("readers", kReaders);
  return out;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                      : 0;
}

// Everything one set-up builds; destroyed in reverse order.
struct Deployment {
  std::string dir;
  svc::ServiceOptions options;
  std::unique_ptr<svc::ArrangementService> service;
  std::unique_ptr<svc::ServiceServer> server;
  std::vector<std::unique_ptr<svc::SocketClient>> clients;  // readers, writer

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    service.reset();
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
};

struct ReaderStats {
  int64_t reads = 0;
  // A uniform sample of at most kReadSamples reads (reservoir sampling).
  std::vector<float> latency_us;
  std::vector<uint8_t> kind;
  // Traced run: sampled reads repeated in process.
  std::vector<float> query_us[kReadKinds];
  std::vector<float> transport_us;
  Clock::time_point finished;
  int64_t failed = 0;
  std::string first_error;
};

// Reads in a closed loop until `stop` is set.
void RunReader(svc::SocketClient* client, svc::ArrangementService* service,
               int event_ids, int user_ids, const std::atomic<bool>* stop,
               uint64_t seed, int64_t op_base, Tracer* tracer,
               ReaderStats* out) {
  Rng rng(seed);
  Rng sampler = rng.Fork(1);
  std::vector<EventId> events;
  std::vector<UserId> users;
  std::vector<svc::ScoredEvent> scored;
  svc::ServiceStatsView stats;
  out->latency_us.reserve(kReadSamples);
  out->kind.reserve(kReadSamples);
  for (int64_t read = 0; !stop->load(std::memory_order_relaxed); ++read) {
    const double pick = rng.UniformReal(0.0, kReadMixCumulative[kStats]);
    int kind = 0;
    while (pick >= kReadMixCumulative[kind]) ++kind;
    const UserId user = rng.UniformInt(0, user_ids - 1);
    const EventId event = rng.UniformInt(0, event_ids - 1);
    const bool sampled =
        tracer->enabled() && read % kQuerySampleEvery == 0;
    const int span =
        sampled ? tracer->Begin(kReadNames[kind], op_base + read) : -1;
    const Clock::time_point start = Clock::now();
    svc::RpcStatus status = svc::RpcStatus::kOk;
    switch (kind) {
      case kAssignments:
        status = client->GetAssignments(user, &events);
        break;
      case kAttendees:
        status = client->GetAttendees(event, &users);
        break;
      case kTopK_:
        status = client->TopKEvents(user, kTopK, &scored);
        break;
      default:
        status = client->GetStats(&stats);
        break;
    }
    const float client_us = static_cast<float>(
        SecondsBetween(start, Clock::now()) * 1e6);
    tracer->End(span);
    ++out->reads;
    if (out->latency_us.size() < kReadSamples) {
      out->latency_us.push_back(client_us);
      out->kind.push_back(static_cast<uint8_t>(kind));
    } else if (const int64_t slot = sampler.UniformInt(0, read);
               slot < static_cast<int64_t>(kReadSamples)) {
      out->latency_us[slot] = client_us;
      out->kind[slot] = static_cast<uint8_t>(kind);
    }
    if (status != svc::RpcStatus::kOk) {
      ++out->failed;
      if (out->first_error.empty()) {
        out->first_error = std::string(svc::RpcStatusName(status)) + ": " +
                           client->last_error();
      }
      // The connection is gone: this reader stops.
      if (status == svc::RpcStatus::kNetworkError ||
          status == svc::RpcStatus::kProtocolError) {
        break;
      }
      continue;
    }
    if (!sampled) continue;
    // The same query in process: the service's own cost of the read.
    ScopedSpan query_span(*tracer, "svc.query", op_base + read, span);
    const Clock::time_point query_start = Clock::now();
    switch (kind) {
      case kAssignments:
        service->GetAssignments(user, &events);
        break;
      case kAttendees:
        service->GetAttendees(event, &users);
        break;
      case kTopK_:
        service->TopKEvents(user, kTopK, &scored);
        break;
      default:
        stats = service->Stats();
        break;
    }
    const float query_us = static_cast<float>(
        SecondsBetween(query_start, Clock::now()) * 1e6);
    out->query_us[kind].push_back(query_us);
    out->transport_us.push_back(client_us - query_us);
  }
  out->finished = Clock::now();
}

// Pair set in slot space, one sorted event list per user slot.
std::vector<std::vector<EventId>> SlotPairs(
    const svc::ServiceSnapshot& snapshot) {
  std::vector<std::vector<EventId>> out(snapshot.user_slots());
  for (UserId u = 0; u < snapshot.user_slots(); ++u) {
    out[u] = snapshot.AssignmentsOf(u);
    std::sort(out[u].begin(), out[u].end());
  }
  return out;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

RunResult RunServeWorkload(const RunConfig& config) {
  const int requested_writes =
      std::max(1, static_cast<int>(std::lround(kWriteRate * config.seconds)));
  const TraceGenConfig trace_config = TraceConfigFor(config, requested_writes);
  Tracer tracer(config.trace);
  const Clock::time_point origin = Clock::now();

  RunResult result;
  result.provenance = Provenance(trace_config, config);

  // ---- set-up, kSetupRepetitions times; the last one serves ----
  std::vector<double> setup_s;
  std::optional<MutationTrace> trace;
  std::unique_ptr<Deployment> live;
  RegistryDelta bootstrap_delta;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    live.reset();
    trace.reset();
    auto deployment = std::make_unique<Deployment>();
    deployment->dir = config.work_dir + "/serve-" + std::to_string(rep);
    std::error_code ignored;
    fs::remove_all(deployment->dir, ignored);
    fs::create_directories(deployment->dir);
    deployment->options.wal_path = deployment->dir + "/wal";
    deployment->options.paged_checkpoint_path = deployment->dir + "/ckpt";

    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "gen.trace", rep);
      trace.emplace(GenerateTrace(trace_config));
    }
    {
      RegistryWindow window;
      ScopedSpan span(tracer, "setup.bootstrap", rep);
      deployment->service = std::make_unique<svc::ArrangementService>(
          trace->initial, deployment->options);
      bootstrap_delta = window.Close();
    }
    {
      ScopedSpan span(tracer, "setup.server", rep);
      deployment->server =
          std::make_unique<svc::ServiceServer>(deployment->service.get());
      std::string error;
      GEACC_CHECK(deployment->server->Start(0, &error)) << error;
      for (int c = 0; c <= kReaders; ++c) {
        auto client = std::make_unique<svc::SocketClient>();
        GEACC_CHECK(client->Connect("127.0.0.1", deployment->server->port(),
                                    &error))
            << error;
        deployment->clients.push_back(std::move(client));
      }
    }
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    live = std::move(deployment);
  }
  svc::ArrangementService& service = *live->service;
  // The generator runs past num_mutations to finish an announced event's
  // conflicts; sending exactly the requested prefix (every mutation of it
  // valid at its epoch) keeps the window at --seconds for every seed.
  const int num_writes = std::min(
      requested_writes, static_cast<int>(trace->mutations.size()));
  const int event_ids = trace->initial.num_events();
  const int user_ids = trace->initial.num_users();

  // ---- timed window ----
  const obs::StatsRegistry& registry = obs::StatsRegistry::Global();
  const int64_t batches_before = registry.CounterValue("svc.batches");
  const int64_t ckpt_writes_before = registry.CounterValue("svc.ckpt.writes");
  const uint64_t wal_bytes_before = FileBytes(live->options.wal_path);
  RegistryWindow window;
  std::vector<ReaderStats> readers(kReaders);
  std::vector<Tracer> reader_tracers(kReaders, Tracer(config.trace));
  std::atomic<bool> stop_reads{false};
  std::vector<double> write_ms;
  std::vector<double> lag_ms;
  int64_t write_failures = 0;
  std::string write_error;

  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point window_start = Clock::now();
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(RunReader, live->clients[r].get(), &service,
                         event_ids, user_ids, &stop_reads,
                         InputSeed(config.seed, 1 + r),
                         static_cast<int64_t>(r + 1) << 40,
                         &reader_tracers[r], &readers[r]);
  }
  svc::SocketClient& writer = *live->clients[kReaders];
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kWriteRate));
  Clock::time_point writes_end = window_start;
  for (int i = 0; i < num_writes; ++i) {
    const Clock::time_point scheduled = window_start + i * period;
    std::this_thread::sleep_until(scheduled);
    const Clock::time_point sent = Clock::now();
    lag_ms.push_back(SecondsBetween(scheduled, sent) * 1e3);
    int64_t ticket = -1;
    svc::RpcStatus status = svc::RpcStatus::kOk;
    {
      ScopedSpan span(tracer, "svc.write.ack", i);
      status = writer.Mutate(trace->mutations[i], &ticket);
    }
    svc::SvcStatus visible = svc::SvcStatus::kInvalidArgument;
    if (status == svc::RpcStatus::kOk) {
      ScopedSpan span(tracer, "svc.write.visible", i);
      visible = service.WaitForTicket(ticket);
    }
    writes_end = Clock::now();
    write_ms.push_back(SecondsBetween(scheduled, writes_end) * 1e3);
    if (status != svc::RpcStatus::kOk || visible != svc::SvcStatus::kOk) {
      ++write_failures;
      if (write_error.empty()) {
        write_error = status != svc::RpcStatus::kOk
                          ? std::string(svc::RpcStatusName(status)) + ": " +
                                writer.last_error()
                          : svc::SvcStatusName(visible);
      }
    }
  }
  const double cpu_window = ProcessCpuSeconds() - cpu_start;
  stop_reads.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();

  // ---- crash copy: wait out a checkpoint the last batch started ----
  const int64_t expected_ckpts =
      (registry.CounterValue("svc.batches") - batches_before) /
      live->options.checkpoint_interval_batches;
  const Clock::time_point ckpt_deadline =
      Clock::now() + std::chrono::seconds(30);
  while (registry.CounterValue("svc.ckpt.writes") - ckpt_writes_before <
             expected_ckpts &&
         Clock::now() < ckpt_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const RegistryDelta window_delta = window.Close();
  const uint64_t wal_bytes = FileBytes(live->options.wal_path);
  // The copies live outside the deployment, whose directory goes with it.
  const std::string crash_dir = config.work_dir + "/serve-crash";
  std::error_code ignored;
  fs::remove_all(crash_dir, ignored);
  fs::create_directories(crash_dir);
  svc::ServiceOptions crash = live->options;
  crash.wal_path = crash_dir + "/wal";
  crash.paged_checkpoint_path = crash_dir + "/ckpt";
  fs::copy_file(live->options.wal_path, crash.wal_path,
                fs::copy_options::overwrite_existing);
  fs::copy_file(live->options.paged_checkpoint_path,
                crash.paged_checkpoint_path,
                fs::copy_options::overwrite_existing);
  std::shared_ptr<const svc::ServiceSnapshot> final_snapshot =
      service.snapshot();
  live->clients.clear();
  live->server->Stop();
  service.Stop();

  // ---- checks of the live final state (outside every timed region) ----
  // Only what the checks need outlives the live service, so the restart
  // below runs with one service resident, as a real restart would.
  int64_t check_failures = 0;
  std::vector<std::vector<EventId>> final_pairs;
  uint64_t final_max_sum_bits = 0;
  double quality = 0.0;
  {
    final_pairs = SlotPairs(*final_snapshot);
    final_max_sum_bits = Bits(final_snapshot->max_sum());
    const Instance dense = final_snapshot->ToDenseInstance();
    const Arrangement arrangement = final_snapshot->ToDenseArrangement();
    const double bound = MaxSumUpperBound(dense);
    ScopedSpan span(tracer, "verify.audit", 0);
    const std::string problem =
        AuditGate(dense, arrangement, /*check_maximality=*/false, bound);
    if (!problem.empty()) {
      result.problems.push_back("final snapshot: " + problem);
      ++check_failures;
    }
    quality = arrangement.MaxSum(dense) / bound;
  }
  final_snapshot.reset();
  live.reset();

  // ---- crash-restart ----
  int64_t checkpoint_covers = 0;
  {
    std::string error;
    std::unique_ptr<svc::PagedCheckpointStore> store =
        svc::PagedCheckpointStore::Open(crash.paged_checkpoint_path,
                                        crash.checkpoint_page_size, &error);
    svc::ServiceState state;
    if (store == nullptr ||
        !store->Read(&state, &checkpoint_covers, &error)) {
      checkpoint_covers = 0;
    }
  }
  int64_t wal_mutations = 0;
  if (const std::optional<svc::WalContents> wal = svc::ReadWal(crash.wal_path)) {
    wal_mutations = static_cast<int64_t>(wal->mutations.size());
  }
  RegistryWindow recover_window;
  std::string recover_error;
  const Clock::time_point recover_start = Clock::now();
  std::unique_ptr<svc::ArrangementService> recovered;
  {
    ScopedSpan span(tracer, "svc.recover", 0);
    recovered = svc::ArrangementService::Recover(crash, &recover_error);
  }
  const double recover_s = SecondsBetween(recover_start, Clock::now());
  const RegistryDelta recover_delta = recover_window.Close();
  if (recovered == nullptr) {
    result.problems.push_back("recover failed: " + recover_error);
    ++check_failures;
  } else {
    const std::shared_ptr<const svc::ServiceSnapshot> restarted =
        recovered->snapshot();
    if (SlotPairs(*restarted) != final_pairs ||
        Bits(restarted->max_sum()) != final_max_sum_bits) {
      result.problems.push_back(
          "crash-restart state differs from the live final snapshot");
      ++check_failures;
    }
    recovered->Stop();
  }
  recovered.reset();
  fs::remove_all(crash_dir, ignored);
  const double peak_rss_mb = PeakRssMb();

  // ---- summaries ----
  int64_t reads = 0;
  std::vector<float> read_us;
  int64_t read_failures = 0;
  Clock::time_point reads_end = window_start;
  for (const ReaderStats& reader : readers) {
    reads += reader.reads;
    read_us.insert(read_us.end(), reader.latency_us.begin(),
                   reader.latency_us.end());
    read_failures += reader.failed;
    reads_end = std::max(reads_end, reader.finished);
    if (!reader.first_error.empty()) {
      result.problems.push_back("read failed: " + reader.first_error);
    }
  }
  if (!write_error.empty()) {
    result.problems.push_back("write failed: " + write_error);
  }
  // The two checks (final audit, crash-restart equality) are ops too.
  result.attempted = reads + num_writes + 2;
  result.failed = read_failures + write_failures + check_failures;
  const double ok_ratio =
      static_cast<double>(result.attempted - result.failed) /
      static_cast<double>(result.attempted);
  const double read_p25_ms = Percentile(read_us, 25.0) / 1e3;
  const double read_p50_ms = Percentile(read_us, 50.0) / 1e3;
  const double read_p99_ms = Percentile(read_us, 99.0) / 1e3;
  read_us = {};
  const double read_ops_s =
      static_cast<double>(reads) / SecondsBetween(window_start, reads_end);
  const double cpu_per_op_ms =
      cpu_window * 1e3 / static_cast<double>(reads + num_writes);

  result.end_to_end = {
      {"setup_s", {Median(setup_s), "s"}},
      {"op_p25_ms", {read_p25_ms, "ms"}},
      {"cpu_per_op_ms", {cpu_per_op_ms, "ms"}},
      {"peak_rss_mb", {peak_rss_mb, "MB"}},
      {"quality_ratio", {quality, "ratio"}},
      {"ok_ratio", {ok_ratio, "ratio"}},
  };
  result.workload_metrics = {
      {"read_p50_ms", {read_p50_ms, "ms"}},
      {"read_p99_ms", {read_p99_ms, "ms"}},
      {"read_ops_s", {read_ops_s, "1/s"}},
      {"write_p50_ms", {Percentile(write_ms, 50.0), "ms"}},
      {"write_p99_ms", {Percentile(write_ms, 99.0), "ms"}},
      {"recover_s", {recover_s, "s"}},
      {"setup_first_s", {setup_s.front(), "s"}},
      {"reads", {static_cast<double>(reads), "count"}},
      {"writes", {static_cast<double>(num_writes), "count"}},
  };
  result.samples = {{"setup_s", setup_s}};
  result.provenance.Set("mutations", num_writes);
  if (!config.trace) return result;

  // ---- per-layer (traced run) ----
  for (const Tracer& reader_tracer : reader_tracers) {
    tracer.Absorb(reader_tracer);
  }
  Metrics& layer = result.per_layer;
  for (const char* name : {"read_p50_ms", "read_p99_ms", "read_ops_s",
                           "write_p50_ms", "write_p99_ms", "recover_s"}) {
    layer[name] = result.workload_metrics[name];
  }
  layer["gen.trace_ms"] = {Median(tracer.DurationsMs("gen.trace")), "ms"};
  layer["setup.bootstrap_ms"] = {
      Median(tracer.DurationsMs("setup.bootstrap")), "ms"};
  layer["setup.server_ms"] = {Median(tracer.DurationsMs("setup.server")),
                              "ms"};
  // The bootstrap's greedy solve (last set-up).
  AddSolveLayerMetrics({bootstrap_delta}, &layer);

  std::vector<float> latency[kReadKinds];
  std::vector<float> query[kReadKinds];
  std::vector<float> transport_us;
  for (const ReaderStats& reader : readers) {
    for (size_t i = 0; i < reader.latency_us.size(); ++i) {
      latency[reader.kind[i]].push_back(reader.latency_us[i]);
    }
    for (int kind = 0; kind < kReadKinds; ++kind) {
      query[kind].insert(query[kind].end(), reader.query_us[kind].begin(),
                         reader.query_us[kind].end());
    }
    transport_us.insert(transport_us.end(), reader.transport_us.begin(),
                        reader.transport_us.end());
  }
  for (int kind = 0; kind < kReadKinds; ++kind) {
    const std::string read = std::string("svc.read.") + kReadNames[kind];
    layer[read + ".p50_us"] = {Percentile(latency[kind], 50.0), "us"};
    layer[read + ".p99_us"] = {Percentile(latency[kind], 99.0), "us"};
    layer[std::string("svc.query.") + kReadNames[kind] + "_us"] = {
        Percentile(query[kind], 50.0), "us"};
  }
  layer["svc.transport_us"] = {Percentile(transport_us, 50.0), "us"};
  layer["load.write_lag_ms"] = {Percentile(lag_ms, 99.0), "ms"};
  std::vector<double> ack_ms = tracer.DurationsMs("svc.write.ack");
  std::vector<double> visible_ms = tracer.DurationsMs("svc.write.visible");
  layer["svc.write.ack_us"] = {Median(ack_ms) * 1e3, "us"};
  layer["svc.write.visible_ms"] = {Median(visible_ms), "ms"};

  const RegistryDelta& w = window_delta;
  auto per = [](double total, int64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  auto count = [&](const char* name) {
    return static_cast<double>(w.Count(name));
  };
  const int64_t batches = w.Count("svc.batches");
  layer["svc.batches"] = {count("svc.batches"), "count"};
  layer["svc.batch_apply_ms"] = {
      per(w.TimerMs("svc.batch_apply"), w.TimerCount("svc.batch_apply")),
      "ms"};
  layer["svc.snapshot_build_ms"] = {
      per(w.TimerMs("svc.snapshot_build"), w.TimerCount("svc.snapshot_build")),
      "ms"};
  layer["svc.mutations_per_batch"] = {
      per(count("svc.mutations_applied"), batches), "count"};
  layer["svc.wal.bytes_per_write"] = {
      per(static_cast<double>(wal_bytes - wal_bytes_before),
          w.Count("svc.mutations_applied")),
      "B"};
  layer["svc.ckpt.write_ms"] = {
      per(w.TimerMs("svc.ckpt.write"), w.TimerCount("svc.ckpt.write")), "ms"};
  layer["svc.ckpt.writes"] = {count("svc.ckpt.writes"), "count"};
  layer["svc.ckpt.pages_written"] = {count("svc.ckpt.pages_written"),
                                     "count"};
  const double clean = count("svc.ckpt.pages_clean");
  const double written = count("svc.ckpt.pages_written");
  layer["svc.ckpt.clean_ratio"] = {
      clean + written > 0.0 ? clean / (clean + written) : 0.0, "ratio"};
  layer["svc.rejected"] = {count("svc.rejected"), "count"};
  layer["svc.overloads"] = {count("svc.overloads"), "count"};
  layer["dyn.mutations"] = {count("dyn.mutations"), "count"};
  layer["dyn.evictions"] = {count("dyn.evictions"), "count"};
  layer["dyn.refill_steps"] = {count("dyn.refill_steps"), "count"};
  layer["dyn.assignment_changes"] = {count("dyn.assignment_changes"),
                                     "count"};
  layer["dyn.full_resolves"] = {count("dyn.full_resolves"), "count"};
  layer["dyn.full_resolve_ms"] = {
      per(w.TimerMs("dyn.full_resolve"), w.TimerCount("dyn.full_resolve")),
      "ms"};
  layer["storage.file.pages_written"] = {count("storage.file.pages_written"),
                                         "count"};
  layer["storage.file.commits"] = {count("storage.file.commits"), "count"};
  layer["storage.file.pages_read"] = {
      static_cast<double>(recover_delta.Count("storage.file.pages_read")),
      "count"};
  layer["svc.recover.suffix_mutations"] = {
      static_cast<double>(wal_mutations - checkpoint_covers), "count"};
  if (!config.trace_path.empty() &&
      !tracer.WriteJson(config.trace_path, origin)) {
    result.problems.push_back("cannot write spans to " + config.trace_path);
  }
  return result;
}

}  // namespace geacc::perfbench
