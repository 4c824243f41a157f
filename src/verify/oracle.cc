#include "verify/oracle.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "algo/solvers.h"
#include "dyn/dynamic_instance.h"
#include "dyn/incremental_arranger.h"
#include "gen/synthetic.h"
#include "gen/trace_gen.h"
#include "io/instance_io.h"
#include "algo/prune_solver.h"
#include "core/time_window.h"
#include "shard/coordinator.h"
#include "slot/slot_solvers.h"
#include "slot/slotted.h"
#include "slot/slotted_gen.h"
#include "svc/client.h"
#include "svc/service.h"
#include "svc/snapshot.h"
#include "svc/wal.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "verify/audit.h"

namespace geacc::verify {
namespace {

constexpr double kEps = 1e-9;

// Shared solver configuration for the whole matrix: the campaign's bound
// mode must hold everywhere (non-exact solvers ignore it).
SolverOptions BaseOptions(const CampaignConfig& config) {
  SolverOptions options;
  options.seed = config.seed;
  options.bound = config.bound;
  return options;
}

// Memoizes solver runs within one instance's check sweep. The
// exponential oracles (brute force, unpruned exhaustive search)
// dominate campaign cost, and several checks want the same solve —
// without the cache each instance pays for them three times over.
// Results are keyed by (instance address, cache key); RunCampaign
// invalidates at every instance and shrink-candidate boundary, and a
// mismatched address invalidates defensively.
class OracleCache {
 public:
  void Invalidate() {
    instance_ = nullptr;
    results_.clear();
  }

  const SolveResult& Solve(const std::string& key, const std::string& solver,
                           const SolverOptions& options,
                           const Instance& instance) {
    if (&instance != instance_) {
      Invalidate();
      instance_ = &instance;
    }
    auto it = results_.find(key);
    if (it == results_.end()) {
      it = results_
               .emplace(key, CreateSolver(solver, options)->Solve(instance))
               .first;
    }
    return it->second;
  }

 private:
  const Instance* instance_ = nullptr;
  std::map<std::string, SolveResult> results_;
};

// The campaign's canonical exhaustive-oracle run: warm start and
// pruning both off, so the returned arrangement is the DFS-first
// optimal leaf the bit-identity check compares against. Shared by
// audit/exhaustive, exact/exhaustive, and exact/bitwise.
const SolveResult& ExhaustiveOracle(OracleCache& cache,
                                    const CampaignConfig& config,
                                    const Instance& instance) {
  SolverOptions options = BaseOptions(config);
  options.enable_greedy_seed = false;
  options.enable_pruning = false;
  return cache.Solve("exhaustive", "exhaustive", options, instance);
}

std::string Serialize(const Instance& instance) {
  std::ostringstream os;
  WriteInstance(instance, os);
  return os.str();
}

// Appends the first absent pair (any similarity) to `arrangement`. On a
// maximal arrangement this forces a violation — capacity, conflict, or
// non-positive similarity — which is exactly what the harness self-test
// wants the auditor to catch. Returns false when every pair is matched
// (possible only on degenerate shrunken instances).
bool InjectExtraPair(const Instance& instance, Arrangement* arrangement) {
  for (EventId v = 0; v < instance.num_events(); ++v) {
    for (UserId u = 0; u < instance.num_users(); ++u) {
      if (!arrangement->Contains(v, u)) {
        arrangement->Add(v, u);
        return true;
      }
    }
  }
  return false;
}

// "" when `name`'s arrangement passes the auditor on `instance`.
std::string CheckSolverAudit(const CampaignConfig& config, OracleCache& cache,
                             const std::string& name,
                             const Instance& instance) {
  // The exhaustive solver audits its canonical (seedless, unpruned)
  // oracle run so the expensive solve is shared with the exact/* checks;
  // every other solver runs under the campaign's base options. The
  // arrangement is copied because fault injection mutates it.
  Arrangement arrangement =
      name == "exhaustive"
          ? ExhaustiveOracle(cache, config, instance).arrangement
          : cache.Solve(name, name, BaseOptions(config), instance).arrangement;
  if (config.inject == "extra-pair" && name == "greedy") {
    InjectExtraPair(instance, &arrangement);
  }
  AuditOptions audit;
  audit.check_maximality = SolverGuaranteesMaximality(name);
  const AuditReport report = AuditArrangement(instance, arrangement, audit);
  return report.Summary();
}

double MaxSumOf(const std::string& name, const Instance& instance,
                const CampaignConfig& config, OracleCache& cache) {
  if (name == "exhaustive") {
    return ExhaustiveOracle(cache, config, instance)
        .arrangement.MaxSum(instance);
  }
  return cache.Solve(name, name, BaseOptions(config), instance)
      .arrangement.MaxSum(instance);
}

std::string CheckExact(const CampaignConfig& config, OracleCache& cache,
                       const std::string& name, const Instance& instance) {
  const double oracle = MaxSumOf("bruteforce", instance, config, cache);
  const double got = MaxSumOf(name, instance, config, cache);
  if (std::fabs(got - oracle) > kEps) {
    return StrFormat("%s MaxSum %.12g != brute-force optimum %.12g",
                     name.c_str(), got, oracle);
  }
  return "";
}

// Bit-identity differential for the tightened pruning (algo/bounds.h):
// without the greedy warm start, Prune-GEACC's incumbent trajectory is
// exactly the exhaustive search's improvement sequence, so the pruned
// search must return the same arrangement pair-for-pair — at every bound
// level. A bound that ever cut the DFS-first optimal leaf (e.g. an
// inadmissible clique cap) diverges here even when the value happens to
// tie.
std::string CheckExactBitwise(const CampaignConfig& config,
                              OracleCache& cache, const Instance& instance) {
  SolverOptions seedless = BaseOptions(config);
  seedless.enable_greedy_seed = false;
  const auto pruned_pairs =
      cache.Solve("prune#seedless", "prune", seedless, instance)
          .arrangement.SortedPairs();
  const auto exhaustive_pairs =
      ExhaustiveOracle(cache, config, instance).arrangement.SortedPairs();
  if (pruned_pairs != exhaustive_pairs) {
    return StrFormat(
        "seedless prune arrangement (%zu pairs, bound=%s) != exhaustive "
        "(%zu pairs)",
        pruned_pairs.size(), config.bound.c_str(), exhaustive_pairs.size());
  }
  return "";
}

std::string CheckGreedyBound(const CampaignConfig& config, OracleCache& cache,
                             const Instance& instance) {
  const double optimum = MaxSumOf("prune", instance, config, cache);
  const double greedy = MaxSumOf("greedy", instance, config, cache);
  const int alpha = instance.max_user_capacity();
  if (greedy + kEps < optimum / (1.0 + alpha)) {
    return StrFormat(
        "greedy MaxSum %.12g below Theorem 3 bound OPT/(1+%d) = %.12g", greedy,
        alpha, optimum / (1.0 + alpha));
  }
  if (greedy > optimum + kEps) {
    return StrFormat("greedy MaxSum %.12g exceeds optimum %.12g", greedy,
                     optimum);
  }
  return "";
}

std::string CheckMinCostFlowBound(const CampaignConfig& config,
                                  OracleCache& cache,
                                  const Instance& instance) {
  const double optimum = MaxSumOf("prune", instance, config, cache);
  const double mcf = MaxSumOf("mincostflow", instance, config, cache);
  const int alpha = instance.max_user_capacity();
  if (alpha > 0 && mcf + kEps < optimum / alpha) {
    return StrFormat(
        "mincostflow MaxSum %.12g below Theorem 2 bound OPT/%d = %.12g", mcf,
        alpha, optimum / alpha);
  }
  if (mcf > optimum + kEps) {
    return StrFormat("mincostflow MaxSum %.12g exceeds optimum %.12g", mcf,
                     optimum);
  }
  if (instance.conflicts().empty() && std::fabs(mcf - optimum) > kEps) {
    return StrFormat(
        "CF = empty but mincostflow MaxSum %.12g != optimum %.12g (Lemma 1)",
        mcf, optimum);
  }
  return "";
}

std::string CheckThreadIdentity(const CampaignConfig& config,
                                OracleCache& cache, const std::string& name,
                                const Instance& instance) {
  const SolverOptions serial = BaseOptions(config);
  SolverOptions threaded = serial;
  threaded.threads = config.threads;
  const auto serial_pairs = cache.Solve(name, name, serial, instance)
                                .arrangement.SortedPairs();
  const auto threaded_pairs =
      cache.Solve(name + "#threads", name, threaded, instance)
          .arrangement.SortedPairs();
  if (serial_pairs != threaded_pairs) {
    return StrFormat(
        "%s arrangement differs between threads=1 (%zu pairs) and "
        "threads=%d (%zu pairs)",
        name.c_str(), serial_pairs.size(), config.threads,
        threaded_pairs.size());
  }
  return "";
}

// Sharded-topology differential (DESIGN.md §16): a ShardCoordinator over
// `num_shards` in-process score-only shard services, seeded with
// `instance`, must repair to the bit-identical greedy-sortall arrangement
// — the distributed admission loop is *specified* to be that solver run
// over the union of shard-local candidate streams.
std::string CheckShardedIdentity(const CampaignConfig& config,
                                 const Instance& instance, int num_shards) {
  // Empty score-only shards sharing the instance's similarity function.
  svc::ServiceOptions shard_options;
  shard_options.bootstrap_full_resolve = false;
  shard_options.repair.refill = false;
  std::vector<std::unique_ptr<svc::ArrangementService>> services;
  std::vector<std::unique_ptr<svc::InProcessClient>> owned_clients;
  std::vector<svc::ServiceClient*> clients;
  for (int s = 0; s < num_shards; ++s) {
    Instance empty(AttributeMatrix(0, instance.dim()), {},
                   AttributeMatrix(0, instance.dim()), {}, ConflictGraph(0),
                   instance.similarity().Clone());
    services.push_back(std::make_unique<svc::ArrangementService>(
        std::move(empty), shard_options));
    owned_clients.push_back(
        std::make_unique<svc::InProcessClient>(services.back().get()));
    clients.push_back(owned_clients.back().get());
  }
  const auto stop_all = [&services] {
    for (auto& service : services) service->Stop();
  };

  shard::ShardCoordinator coordinator(clients, instance.dim(),
                                      instance.similarity().Clone());
  std::string error = coordinator.ApplyInstance(instance);
  if (error.empty()) error = coordinator.RepairPass();
  if (!error.empty()) {
    stop_all();
    return StrFormat("N=%d coordinator: %s", num_shards, error.c_str());
  }

  SolverOptions options;
  options.seed = config.seed;
  const SolveResult reference =
      CreateSolver("greedy-sortall", options)->Solve(instance);
  const auto reference_pairs = reference.arrangement.SortedPairs();

  Arrangement merged(instance.num_events(), instance.num_users());
  double admission_order_sum = 0.0;
  for (const auto& [event, user] : coordinator.arrangement()) {
    merged.Add(event, user);
    admission_order_sum += instance.Similarity(event, user);
  }
  stop_all();

  if (merged.SortedPairs() != reference_pairs) {
    return StrFormat(
        "N=%d sharded arrangement (%zu pairs) != greedy-sortall (%zu pairs)",
        num_shards, coordinator.arrangement().size(), reference_pairs.size());
  }
  // Same admission order ⇒ the coordinator's accumulated MaxSum must be
  // bit-identical to re-accumulating the mirror-side similarities.
  if (coordinator.global_max_sum() != admission_order_sum) {
    return StrFormat(
        "N=%d sharded MaxSum %.17g != admission-order reference %.17g",
        num_shards, coordinator.global_max_sum(), admission_order_sum);
  }
  const AuditReport audit = AuditArrangement(instance, merged);
  if (!audit.ok()) {
    return StrFormat("N=%d merged arrangement audit failed:\n%s", num_shards,
                     audit.Summary().c_str());
  }
  return "";
}

using InstanceCheck = std::function<std::string(const Instance&)>;

std::vector<std::pair<std::string, InstanceCheck>> BuildInstanceChecks(
    const CampaignConfig& config, OracleCache& cache) {
  std::vector<std::pair<std::string, InstanceCheck>> checks;
  for (const std::string& name : SolverNames()) {
    checks.emplace_back("audit/" + name,
                        [&config, &cache, name](const Instance& i) {
                          return CheckSolverAudit(config, cache, name, i);
                        });
  }
  for (const char* name : {"prune", "exhaustive"}) {
    checks.emplace_back(std::string("exact/") + name,
                        [&config, &cache, name](const Instance& i) {
                          return CheckExact(config, cache, name, i);
                        });
  }
  checks.emplace_back("exact/bitwise", [&config, &cache](const Instance& i) {
    return CheckExactBitwise(config, cache, i);
  });
  checks.emplace_back("bounds/greedy", [&config, &cache](const Instance& i) {
    return CheckGreedyBound(config, cache, i);
  });
  checks.emplace_back("bounds/mincostflow",
                      [&config, &cache](const Instance& i) {
                        return CheckMinCostFlowBound(config, cache, i);
                      });
  for (const char* name : {"greedy", "mincostflow", "prune"}) {
    checks.emplace_back(std::string("threads/") + name,
                        [&config, &cache, name](const Instance& i) {
                          return CheckThreadIdentity(config, cache, name, i);
                        });
  }
  return checks;
}

TraceGenConfig TraceConfigFor(const CampaignConfig& config, uint64_t index) {
  TraceGenConfig trace;
  trace.initial_events = 6;
  trace.initial_users = 12;
  trace.dim = 3;
  trace.max_attribute = 100.0;
  trace.max_event_capacity = 5;
  trace.max_user_capacity = 3;
  trace.num_mutations = config.trace_mutations;
  trace.seed = config.seed * 7919 + index;
  return trace;
}

// Repair differential: replay a trace through the incremental engine,
// asserting feasibility after every mutation, bookkeeping consistency,
// a clean dense-snapshot audit, and a feasible fresh re-solve.
std::string CheckRepairTrace(const CampaignConfig& config, uint64_t index) {
  const MutationTrace trace = GenerateTrace(TraceConfigFor(config, index));
  DynamicInstance dyn(trace.initial);
  IncrementalArranger arranger(&dyn, {});
  arranger.FullResolve();
  for (size_t m = 0; m < trace.mutations.size(); ++m) {
    arranger.Apply(trace.mutations[m]);
    const std::string error = arranger.Validate();
    if (!error.empty()) {
      return StrFormat("infeasible after mutation %zu (%s): %s", m,
                       trace.mutations[m].DebugString().c_str(),
                       error.c_str());
    }
  }
  const double recomputed = arranger.RecomputeMaxSum();
  if (std::fabs(recomputed - arranger.max_sum()) > 1e-6) {
    return StrFormat("incremental MaxSum %.12g != recomputed %.12g",
                     arranger.max_sum(), recomputed);
  }

  DynamicInstance::SnapshotMap map;
  const Instance snapshot = dyn.Snapshot(&map);
  Arrangement dense(snapshot.num_events(), snapshot.num_users());
  const Arrangement& live = arranger.arrangement();
  for (UserId u = 0; u < live.num_users(); ++u) {
    for (const EventId v : live.EventsOf(u)) {
      if (map.user_to_dense[u] < 0 || map.event_to_dense[v] < 0) {
        return StrFormat("pair {%d,%d} matches a tombstoned entity", v, u);
      }
      dense.Add(map.event_to_dense[v], map.user_to_dense[u]);
    }
  }
  const AuditReport audit = AuditArrangement(snapshot, dense);
  if (!audit.ok()) {
    return "dense snapshot audit failed:\n" + audit.Summary();
  }

  SolverOptions options;
  options.seed = config.seed;
  const SolveResult fresh = CreateSolver("greedy", options)->Solve(snapshot);
  AuditOptions fresh_audit;
  fresh_audit.check_maximality = true;
  const AuditReport fresh_report =
      AuditArrangement(snapshot, fresh.arrangement, fresh_audit);
  if (!fresh_report.ok()) {
    return "fresh re-solve audit failed:\n" + fresh_report.Summary();
  }
  return "";
}

// What a recovery must reproduce bit for bit: MaxSum, the slot-space
// pairs in deterministic order, and the epoch.
struct ServiceFacts {
  double max_sum = 0.0;
  std::vector<std::pair<UserId, EventId>> pairs;
  int64_t epoch = 0;
};

ServiceFacts FactsOf(const svc::ArrangementService& service) {
  const auto snapshot = service.snapshot();
  ServiceFacts facts;
  facts.max_sum = snapshot->max_sum();
  for (UserId u = 0; u < snapshot->user_slots(); ++u) {
    for (const EventId v : snapshot->AssignmentsOf(u)) {
      facts.pairs.emplace_back(u, v);
    }
  }
  facts.epoch = snapshot->epoch();
  return facts;
}

// "" when `recovered` equals `live` bit for bit, else the first difference.
std::string CompareFacts(const ServiceFacts& recovered,
                         const ServiceFacts& live) {
  if (recovered.max_sum != live.max_sum) {  // bit-identical by contract
    return StrFormat("recovered MaxSum %.17g != live %.17g",
                     recovered.max_sum, live.max_sum);
  }
  if (recovered.pairs != live.pairs) {
    return StrFormat("recovered pair set (%zu pairs) != live (%zu pairs)",
                     recovered.pairs.size(), live.pairs.size());
  }
  if (recovered.epoch != live.epoch) {
    return StrFormat("recovered epoch %lld != live %lld",
                     static_cast<long long>(recovered.epoch),
                     static_cast<long long>(live.epoch));
  }
  return "";
}

// A per-process, per-iteration scratch file for the WAL checks.
std::string ScratchPath(const CampaignConfig& config, uint64_t index,
                        const char* suffix) {
  const std::filesystem::path dir =
      config.scratch_dir.empty()
          ? std::filesystem::temp_directory_path()
          : std::filesystem::path(config.scratch_dir);
  return (dir / StrFormat("geacc_audit_%d_%llu%s", static_cast<int>(::getpid()),
                          static_cast<unsigned long long>(index), suffix))
      .string();
}

// Submits `mutations` in order; "" when every Submit is accepted.
std::string SubmitAll(svc::ArrangementService& service,
                      const std::vector<Mutation>& mutations) {
  for (const Mutation& mutation : mutations) {
    const svc::SubmitResult submitted = service.Submit(mutation);
    if (submitted.status != svc::SvcStatus::kOk) {
      return StrFormat("Submit returned %s mid-trace",
                       svc::SvcStatusName(submitted.status));
    }
  }
  return "";
}

// Recovers a service from `options` and returns what it serves; on
// failure returns nullopt and sets `detail`.
std::optional<ServiceFacts> RecoveredFacts(const svc::ServiceOptions& options,
                                           std::string* detail) {
  std::string error;
  const auto recovered = svc::ArrangementService::Recover(options, &error);
  if (recovered == nullptr) {
    *detail = "Recover failed: " + error;
    return std::nullopt;
  }
  ServiceFacts facts = FactsOf(*recovered);
  recovered->Stop();
  return facts;
}

// WAL differential: live service state after a trace ≡ recovered state.
std::string CheckWalRecovery(const CampaignConfig& config, uint64_t index) {
  const MutationTrace trace =
      GenerateTrace(TraceConfigFor(config, index * 31 + 17));
  svc::ServiceOptions options;
  options.wal_path = ScratchPath(config, index, ".wal");

  ServiceFacts live;
  {
    svc::ArrangementService service(trace.initial, options);
    const std::string problem = SubmitAll(service, trace.mutations);
    if (!problem.empty()) {
      std::filesystem::remove(options.wal_path);
      return problem;
    }
    service.Flush();
    live = FactsOf(service);
    service.Stop();
  }

  std::string detail;
  if (const auto recovered = RecoveredFacts(options, &detail)) {
    detail = CompareFacts(*recovered, live);
  }
  std::filesystem::remove(options.wal_path);
  return detail;
}

}  // namespace

std::string WriteDecoyWal(const std::string& from, const std::string& to) {
  std::string error;
  const std::optional<svc::WalContents> log = svc::ReadWal(from, &error);
  if (!log) return "cannot read the WAL copy: " + error;
  const Instance& initial = log->initial;
  std::vector<int> event_capacities(initial.num_events());
  for (EventId v = 0; v < initial.num_events(); ++v) {
    event_capacities[v] = initial.event_capacity(v);
  }
  std::vector<int> user_capacities(initial.num_users());
  for (UserId u = 0; u < initial.num_users(); ++u) {
    user_capacities[u] = initial.user_capacity(u);
  }
  std::unique_ptr<SimilarityFunction> similarity = MakeSimilarity(
      initial.similarity().Name(), 2.0 * initial.similarity().Param());
  GEACC_CHECK(similarity != nullptr);
  const Instance decoy(initial.event_attributes(), std::move(event_capacities),
                       initial.user_attributes(), std::move(user_capacities),
                       initial.conflicts(), std::move(similarity));
  svc::WalWriter writer;
  if (!writer.Open(to, decoy, &error)) {
    return "cannot write the decoy WAL: " + error;
  }
  bool written = true;
  for (const Mutation& mutation : log->mutations) {
    written = writer.Append(mutation) && written;
  }
  written = writer.Sync() && written;
  writer.Close();
  return written ? "" : "cannot write the decoy WAL";
}

namespace {

// Checkpoint + WAL-suffix differential. A service runs the first half of
// a trace with a paged checkpoint and stops, which checkpoints it; it is
// recovered, applies the second half, and its WAL and checkpoint are
// copied while it still runs. Recovery from the copies must serve the
// live MaxSum bits, pair set and epoch.
//
// Equal bits alone cannot tell checkpoint recovery from the full-replay
// fallback, and a stats counter reads 0 under GEACC_NO_STATS. So the same
// recovery is also run over a decoy WAL: the copied mutation log under a
// doubled similarity parameter. Recovery from the checkpoint reads that
// log's suffix only and still lands on the live bits; a full replay of
// the decoy (checked to differ) would not.
std::string CheckCheckpointRecovery(const CampaignConfig& config,
                                    uint64_t index) {
  const MutationTrace trace =
      GenerateTrace(TraceConfigFor(config, index * 31 + 23));
  // A service that applies no batch writes no checkpoint.
  if (trace.mutations.empty()) return "";
  const size_t half = (trace.mutations.size() + 1) / 2;
  const std::vector<Mutation> first(trace.mutations.begin(),
                                    trace.mutations.begin() + half);
  const std::vector<Mutation> second(trace.mutations.begin() + half,
                                     trace.mutations.end());

  svc::ServiceOptions options;
  options.wal_path = ScratchPath(config, index, "-ckpt.wal");
  options.paged_checkpoint_path = ScratchPath(config, index, "-ckpt.pages");
  // Only Stop() checkpoints, so no checkpoint is being written while the
  // files are copied.
  options.checkpoint_interval_batches =
      static_cast<int>(trace.mutations.size()) + 1;
  svc::ServiceOptions copy = options;
  copy.wal_path = ScratchPath(config, index, "-copy.wal");
  copy.paged_checkpoint_path = ScratchPath(config, index, "-copy.pages");
  svc::ServiceOptions decoy = options;
  decoy.wal_path = ScratchPath(config, index, "-decoy.wal");
  decoy.paged_checkpoint_path = ScratchPath(config, index, "-decoy.pages");
  svc::ServiceOptions decoy_replay = decoy;
  decoy_replay.paged_checkpoint_path.clear();
  const auto clean_up = [&] {
    for (const svc::ServiceOptions* files : {&options, &copy, &decoy}) {
      std::filesystem::remove(files->wal_path);
      std::filesystem::remove(files->paged_checkpoint_path);
    }
  };

  {
    svc::ArrangementService service(trace.initial, options);
    const std::string problem = SubmitAll(service, first);
    if (!problem.empty()) {
      clean_up();
      return problem;
    }
    service.Stop();
  }
  std::string error;
  const auto resumed = svc::ArrangementService::Recover(options, &error);
  if (resumed == nullptr) {
    clean_up();
    return "Recover after the first half failed: " + error;
  }
  std::string detail = SubmitAll(*resumed, second);
  resumed->Flush();
  const ServiceFacts live = FactsOf(*resumed);
  // The recovery from `copy` rewrites its checkpoint at Stop(), so the
  // decoy gets a checkpoint copy of its own.
  const auto overwrite = std::filesystem::copy_options::overwrite_existing;
  std::error_code copy_error;
  std::filesystem::copy_file(options.wal_path, copy.wal_path, overwrite,
                             copy_error);
  for (const std::string* to :
       {&copy.paged_checkpoint_path, &decoy.paged_checkpoint_path}) {
    if (!copy_error) {
      std::filesystem::copy_file(options.paged_checkpoint_path, *to,
                                 overwrite, copy_error);
    }
  }
  resumed->Stop();
  if (detail.empty() && copy_error) {
    detail = "cannot copy the WAL or checkpoint: " + copy_error.message();
  }

  if (detail.empty()) {
    if (const auto recovered = RecoveredFacts(copy, &detail)) {
      detail = CompareFacts(*recovered, live);
    }
  }
  if (detail.empty()) detail = WriteDecoyWal(copy.wal_path, decoy.wal_path);
  if (detail.empty()) {
    if (const auto replayed = RecoveredFacts(decoy_replay, &detail)) {
      if (replayed->max_sum == live.max_sum) {
        detail = "a full replay of the decoy WAL reaches the live MaxSum, so "
                 "it cannot show which path recovery took";
      }
    }
  }
  if (detail.empty()) {
    if (const auto recovered = RecoveredFacts(decoy, &detail)) {
      detail = CompareFacts(*recovered, live);
      if (!detail.empty()) {
        detail = "recovery replayed the WAL prefix its checkpoint covers: " +
                 detail;
      }
    }
  }
  clean_up();
  return detail;
}

// The slotted campaign family: small enough that the full slotting space
// (≤ 3^4 slottings × tiny exact leaf solves) stays cheap, varied enough
// to hit both availability regimes and both travel-rule settings.
slot::SlottedGenConfig SlottedConfigFor(const CampaignConfig& config,
                                        uint64_t index) {
  Rng rng(config.seed * 0xda942042e4dd58b5ULL + index);
  slot::SlottedGenConfig slotted;
  slotted.num_events = static_cast<int>(rng.UniformInt(2, 4));
  slotted.num_users = static_cast<int>(rng.UniformInt(3, 6));
  slotted.dim = 3;
  slotted.max_attribute = 100.0;
  slotted.event_capacity = DistributionSpec::Uniform(1.0, 3.0);
  slotted.user_capacity = DistributionSpec::Uniform(1.0, 2.0);
  slotted.num_slots = static_cast<int>(rng.UniformInt(2, 3));
  slotted.horizon_hours = 8.0;
  slotted.min_duration_hours = 1.0;
  slotted.max_duration_hours = 4.0;
  slotted.city_km = 20.0;
  slotted.travel_speed_kmph = rng.Bernoulli(0.5) ? 25.0 : 0.0;
  slotted.allow_probability = 0.5;
  slotted.availability_count =
      rng.Bernoulli(0.5)
          ? DistributionSpec::Uniform(
                1.0, static_cast<double>(slotted.num_slots))
          : DistributionSpec::Zipf(
                1.3, static_cast<double>(slotted.num_slots));
  slotted.seed = rng.NextUint64();
  return slotted;
}

// Shared deterministic re-sum: sorted pairs, base similarity (identical
// to the slot solvers' own accumulation order).
double SlottedMaxSum(const Arrangement& arrangement, const Instance& base) {
  double sum = 0.0;
  for (const auto& [v, u] : arrangement.SortedPairs()) {
    sum += base.Similarity(v, u);
  }
  return sum;
}

// slot-greedy differential: joint feasibility via AuditSlotted, derived
// conflicts consistent with the WindowsConflict predicate, and the
// reported MaxSum bit-identical to a from-scratch re-sum.
std::string CheckSlottedGreedy(const CampaignConfig& config, uint64_t index) {
  const slot::SlottedInstance slotted =
      slot::GenerateSlotted(SlottedConfigFor(config, index));
  const SolverOptions options = BaseOptions(config);
  const slot::SlotSolveResult result =
      slot::CreateSlotSolver("slot-greedy", options)->Solve(slotted);

  const std::string audit =
      slot::AuditSlotted(slotted, result.slotting, result.arrangement);
  if (!audit.empty()) return "joint audit failed: " + audit;

  const ConflictGraph derived =
      slot::DeriveConflicts(slotted, result.slotting);
  for (EventId v = 0; v < slotted.base.num_events(); ++v) {
    if (result.slotting[v] == kInvalidSlot) continue;
    for (EventId w = v + 1; w < slotted.base.num_events(); ++w) {
      if (result.slotting[w] == kInvalidSlot) continue;
      const bool expect = WindowsConflict(
          slotted.slots.windows[result.slotting[v]],
          slotted.slots.windows[result.slotting[w]], slotted.slots.speed_kmph);
      if (derived.AreConflicting(v, w) != expect) {
        return StrFormat(
            "DeriveConflicts(%d,%d) = %d inconsistent with WindowsConflict",
            v, w, derived.AreConflicting(v, w) ? 1 : 0);
      }
    }
  }

  const double recomputed = SlottedMaxSum(result.arrangement, slotted.base);
  if (recomputed != result.max_sum) {  // same summation order ⇒ bit-equal
    return StrFormat("slot-greedy MaxSum %.17g != recomputed %.17g",
                     result.max_sum, recomputed);
  }
  return "";
}

// slot-exact differential: the branch-and-bound must match brute-force
// enumeration of every complete slotting (same lexicographic order, same
// exact leaf solver, strict-improvement incumbent) bit for bit.
std::string CheckSlottedExact(const CampaignConfig& config, uint64_t index) {
  const slot::SlottedInstance slotted =
      slot::GenerateSlotted(SlottedConfigFor(config, index));
  const SolverOptions options = BaseOptions(config);
  const slot::SlotSolveResult result =
      slot::CreateSlotSolver("slot-exact", options)->Solve(slotted);

  const std::string audit =
      slot::AuditSlotted(slotted, result.slotting, result.arrangement);
  if (!audit.empty()) return "joint audit failed: " + audit;

  const int num_events = slotted.base.num_events();
  std::vector<std::vector<SlotId>> choices(num_events);
  for (EventId v = 0; v < num_events; ++v) {
    for (SlotId s = 0; s < slotted.num_slots(); ++s) {
      if ((slotted.event_allowed[v] >> s) & 1u) choices[v].push_back(s);
    }
  }
  const PruneSolver leaf_solver(options);
  slot::Slotting best_slotting;
  Arrangement best_arrangement;
  double best_sum = -std::numeric_limits<double>::infinity();
  std::vector<size_t> cursor(num_events, 0);
  slot::Slotting slotting(num_events, kInvalidSlot);
  bool done = false;
  while (!done) {
    for (EventId v = 0; v < num_events; ++v) {
      slotting[v] = choices[v][cursor[v]];
    }
    const Instance sub = slot::MakeSubInstance(slotted, slotting);
    SolveResult leaf = leaf_solver.Solve(sub);
    const double sum = SlottedMaxSum(leaf.arrangement, sub);
    if (sum > best_sum) {
      best_sum = sum;
      best_slotting = slotting;
      best_arrangement = std::move(leaf.arrangement);
    }
    done = true;
    for (int v = num_events - 1; v >= 0; --v) {
      if (++cursor[v] < choices[v].size()) {
        done = false;
        break;
      }
      cursor[v] = 0;
    }
  }

  if (result.slotting != best_slotting) {
    return "slot-exact slotting differs from exhaustive enumeration";
  }
  if (result.arrangement.SortedPairs() != best_arrangement.SortedPairs()) {
    return StrFormat(
        "slot-exact arrangement (%zu pairs) != exhaustive (%zu pairs)",
        result.arrangement.SortedPairs().size(),
        best_arrangement.SortedPairs().size());
  }
  if (result.max_sum != best_sum) {  // bit-identical by construction
    return StrFormat("slot-exact MaxSum %.17g != exhaustive %.17g",
                     result.max_sum, best_sum);
  }
  return "";
}

}  // namespace

Instance MakeCampaignInstance(const CampaignConfig& config, uint64_t index) {
  Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + index);
  SyntheticConfig synth;
  synth.num_events =
      static_cast<int>(rng.UniformInt(3, std::max(3, config.max_events)));
  synth.num_users =
      static_cast<int>(rng.UniformInt(2, std::max(2, config.max_users)));
  synth.dim = 3;
  synth.max_attribute = 100.0;
  synth.event_attribute = DistributionSpec::Uniform(0.0, 100.0);
  synth.user_attribute = DistributionSpec::Uniform(0.0, 100.0);
  synth.event_capacity = DistributionSpec::Uniform(1.0, 4.0);
  synth.user_capacity = DistributionSpec::Uniform(
      1.0, static_cast<double>(rng.UniformInt(1, 3)));
  const double densities[] = {0.0, 0.25, 0.5, 1.0};
  synth.conflict_density = config.conflict_density >= 0.0
                               ? config.conflict_density
                               : densities[rng.UniformInt(0, 3)];
  synth.seed = rng.NextUint64();
  return GenerateSynthetic(synth);
}

CampaignResult RunCampaign(const CampaignConfig& config, std::ostream* log) {
  CampaignResult result;
  OracleCache cache;
  const auto checks = BuildInstanceChecks(config, cache);

  auto record_failure = [&](std::string check, std::string detail,
                            uint64_t seed, const Instance* instance) {
    CampaignFailure failure;
    failure.check = std::move(check);
    failure.detail = std::move(detail);
    failure.seed = seed;
    if (instance != nullptr) failure.instance_text = Serialize(*instance);
    if (log != nullptr) {
      *log << "FAIL " << failure.check << " (seed " << seed
           << "): " << failure.detail << "\n";
    }
    result.failures.push_back(std::move(failure));
  };

  for (int i = 0; i < config.instances; ++i) {
    if (static_cast<int>(result.failures.size()) >= config.max_failures) {
      if (log != nullptr) {
        *log << "stopping after " << result.failures.size() << " failures\n";
      }
      break;
    }
    const uint64_t index = static_cast<uint64_t>(i);
    const Instance instance = MakeCampaignInstance(config, index);
    cache.Invalidate();
    ++result.instances;

    for (const auto& [name, check] : checks) {
      ++result.checks;
      std::string detail = check(instance);
      if (detail.empty()) continue;
      record_failure(name, std::move(detail), index, &instance);
      CampaignFailure& failure = result.failures.back();
      if (config.shrink) {
        const auto& fn = check;
        // Shrink candidates come and go at reused addresses, so the
        // per-instance cache must be dropped at every candidate (and
        // again afterwards, before the next check reuses `instance`).
        const Instance shrunk = ShrinkInstance(
            instance,
            [&fn, &cache](const Instance& candidate) {
              cache.Invalidate();
              return !fn(candidate).empty();
            },
            config.shrink_options, &failure.shrink_stats);
        cache.Invalidate();
        failure.shrunk_instance_text = Serialize(shrunk);
        if (log != nullptr) {
          *log << "  shrunk to |V|=" << shrunk.num_events()
               << " |U|=" << shrunk.num_users() << " after "
               << failure.shrink_stats.predicate_calls
               << " predicate calls\n";
        }
      }
    }

    if (config.repair_period > 0 && i % config.repair_period == 0) {
      ++result.checks;
      std::string detail = CheckRepairTrace(config, index);
      if (!detail.empty()) {
        record_failure("repair/trace", std::move(detail), index, nullptr);
      }
    }
    if (config.wal_period > 0 && i % config.wal_period == 0) {
      ++result.checks;
      std::string detail = CheckWalRecovery(config, index);
      if (!detail.empty()) {
        record_failure("wal/recovery", std::move(detail), index, nullptr);
      }
      ++result.checks;
      detail = CheckCheckpointRecovery(config, index);
      if (!detail.empty()) {
        record_failure("wal/recovery-ckpt", std::move(detail), index,
                       nullptr);
      }
    }
    if (config.shard_period > 0 && i % config.shard_period == 0) {
      for (const int num_shards : {2, 3}) {
        ++result.checks;
        std::string detail =
            CheckShardedIdentity(config, instance, num_shards);
        if (!detail.empty()) {
          record_failure(StrFormat("sharded/N=%d", num_shards),
                         std::move(detail), index, &instance);
        }
      }
    }
    if (config.slot_period > 0 && i % config.slot_period == 0) {
      ++result.checks;
      std::string detail = CheckSlottedGreedy(config, index);
      if (!detail.empty()) {
        record_failure("slotted/greedy", std::move(detail), index, nullptr);
      }
      ++result.checks;
      detail = CheckSlottedExact(config, index);
      if (!detail.empty()) {
        record_failure("slotted/exact", std::move(detail), index, nullptr);
      }
    }

    if (log != nullptr && (i + 1) % 50 == 0) {
      *log << "campaign: " << (i + 1) << "/" << config.instances
           << " instances, " << result.checks << " checks, "
           << result.failures.size() << " failures\n";
    }
  }
  return result;
}

}  // namespace geacc::verify
