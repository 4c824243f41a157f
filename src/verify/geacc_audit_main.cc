// geacc_audit: differential correctness harness CLI (DESIGN.md §13).
//
// Two modes:
//
//   * File audit (default): audit an arrangement against an instance and
//     print every violation, machine-readably with --json.
//
//       geacc_audit instance.txt arrangement.txt [--maximal] [--json r.json]
//
//   * Campaign (--campaign): sweep seeded instances through the solver
//     matrix (see verify/oracle.h for the full check list). On failure,
//     --shrink minimizes each counterexample with delta debugging and
//     --repro_dir writes the (original + shrunken) instances as repro
//     artifacts.
//
//       geacc_audit --campaign --instances 200 --seed 42 --shrink
//                   --repro_dir repro/ --json campaign.json
//
// The harness self-test injects a fault into the greedy solver's output
// and asserts the campaign catches it:
//
//       geacc_audit --campaign --inject extra-pair --shrink --expect_detect
//
// Exit status: 0 = clean (or, under --expect_detect, fault detected),
// 1 = violations found (or fault missed), 2 = usage/IO error.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "io/instance_io.h"
#include "obs/json.h"
#include "util/check.h"
#include "util/flags.h"
#include "verify/audit.h"
#include "verify/oracle.h"

namespace {

using geacc::obs::JsonValue;
using geacc::verify::AuditOptions;
using geacc::verify::AuditReport;
using geacc::verify::CampaignConfig;
using geacc::verify::CampaignFailure;
using geacc::verify::CampaignResult;

bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) return false;
  os << text;
  return os.good();
}

// "audit/greedy" -> "audit_greedy" for artifact file names.
std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

int RunFileAudit(const std::string& instance_path,
                 const std::string& arrangement_path, bool maximal,
                 const std::string& json_path) {
  std::string error;
  auto instance = geacc::ReadInstanceFromFile(instance_path, &error);
  if (!instance.has_value()) {
    std::fprintf(stderr, "geacc_audit: cannot read %s: %s\n",
                 instance_path.c_str(), error.c_str());
    return 2;
  }
  auto arrangement =
      geacc::ReadArrangementFromFile(arrangement_path, *instance, &error);
  if (!arrangement.has_value()) {
    std::fprintf(stderr, "geacc_audit: cannot read %s: %s\n",
                 arrangement_path.c_str(), error.c_str());
    return 2;
  }
  AuditOptions options;
  options.check_maximality = maximal;
  const AuditReport report =
      AuditArrangement(*instance, *arrangement, options);
  if (!json_path.empty() &&
      !WriteTextFile(json_path, report.ToJson().Dump(2) + "\n")) {
    std::fprintf(stderr, "geacc_audit: cannot write %s\n", json_path.c_str());
    return 2;
  }
  if (report.ok()) {
    std::printf("OK: arrangement passes the audit (%d events, %d users)\n",
                instance->num_events(), instance->num_users());
    return 0;
  }
  std::printf("%zu violation(s):\n%s\n", report.violations.size(),
              report.Summary().c_str());
  return 1;
}

JsonValue CampaignJson(const CampaignConfig& config,
                       const CampaignResult& result) {
  JsonValue json = JsonValue::Object();
  json.Set("schema", "geacc-audit-campaign v1");
  json.Set("ok", result.ok());
  json.Set("instances", result.instances);
  json.Set("checks", result.checks);
  json.Set("seed", static_cast<int64_t>(config.seed));
  json.Set("bound", config.bound);
  json.Set("conflict_density", config.conflict_density);
  json.Set("inject", config.inject);
  JsonValue failures = JsonValue::Array();
  for (const CampaignFailure& failure : result.failures) {
    JsonValue entry = JsonValue::Object();
    entry.Set("check", failure.check);
    entry.Set("detail", failure.detail);
    entry.Set("seed", static_cast<int64_t>(failure.seed));
    if (!failure.shrunk_instance_text.empty()) {
      entry.Set("shrink_rounds", failure.shrink_stats.rounds);
      entry.Set("shrink_predicate_calls",
                failure.shrink_stats.predicate_calls);
    }
    failures.Append(std::move(entry));
  }
  json.Set("failures", std::move(failures));
  return json;
}

// Writes <repro_dir>/<i>_<check>.instance (+ .min.instance when shrunk).
// Returns the number of artifacts written, -1 on IO error.
int WriteRepros(const std::string& repro_dir, const CampaignResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(repro_dir, ec);
  if (ec) return -1;
  int written = 0;
  for (size_t i = 0; i < result.failures.size(); ++i) {
    const CampaignFailure& failure = result.failures[i];
    if (failure.instance_text.empty()) continue;  // trace-level check
    const std::string stem =
        repro_dir + "/" + std::to_string(i) + "_" + Sanitize(failure.check);
    if (!WriteTextFile(stem + ".instance", failure.instance_text)) return -1;
    ++written;
    if (!failure.shrunk_instance_text.empty()) {
      if (!WriteTextFile(stem + ".min.instance",
                         failure.shrunk_instance_text)) {
        return -1;
      }
      ++written;
    }
  }
  return written;
}

}  // namespace

int main(int argc, char** argv) {
  bool campaign = false;
  CampaignConfig config;
  int64_t seed = static_cast<int64_t>(config.seed);
  bool maximal = false;
  bool expect_detect = false;
  std::string json_path;
  std::string repro_dir;

  geacc::FlagSet flags;
  flags.AddBool("campaign", &campaign,
                "run the differential campaign instead of a file audit");
  flags.AddInt("instances", &config.instances, "campaign instance count");
  flags.AddInt("seed", &seed, "campaign base seed");
  flags.AddInt("max_events", &config.max_events, "campaign family max |V|");
  flags.AddInt("max_users", &config.max_users, "campaign family max |U|");
  flags.AddDouble("conflict_density", &config.conflict_density,
                  "force every campaign instance to this conflict density "
                  "(< 0 = draw from the mixed family {0, 0.25, 0.5, 1})");
  flags.AddString("bound", &config.bound,
                  "exact-solver bound mode for the whole matrix: lemma6, "
                  "clique, or clique-lp");
  flags.AddInt("threads", &config.threads,
               "lane count for the serial-vs-threaded identity check");
  flags.AddInt("repair_period", &config.repair_period,
               "run the incremental-repair differential every k instances");
  flags.AddInt("wal_period", &config.wal_period,
               "run the WAL-recovery differential every k instances");
  flags.AddInt("shard_period", &config.shard_period,
               "run the sharded-vs-single-node differential (N = 2, 3 "
               "in-process shards) every k instances (0 = never)");
  flags.AddInt("slot_period", &config.slot_period,
               "run the slotted joint-solver differentials (slot-greedy "
               "audit, slot-exact vs exhaustive slottings) every k "
               "instances (0 = never)");
  flags.AddBool("shrink", &config.shrink,
                "delta-debug failing instances to minimal repros");
  flags.AddInt("shrink_calls", &config.shrink_options.max_predicate_calls,
               "predicate-call budget per shrink (0 = unlimited)");
  flags.AddInt("max_failures", &config.max_failures,
               "stop the campaign after this many failures");
  flags.AddString("scratch_dir", &config.scratch_dir,
                  "directory for WAL scratch files (default: system temp)");
  flags.AddString("inject", &config.inject,
                  "harness self-test fault: '' or 'extra-pair'");
  flags.AddBool("expect_detect", &expect_detect,
                "invert exit status: succeed iff failures were detected");
  flags.AddBool("maximal", &maximal,
                "file audit: also check greedy maximality");
  flags.AddString("json", &json_path, "write a JSON report to this path");
  flags.AddString("repro_dir", &repro_dir,
                  "campaign: write failing (and shrunken) instances here");
  flags.Parse(argc, argv);
  config.seed = static_cast<uint64_t>(seed);
  GEACC_CHECK(config.inject.empty() || config.inject == "extra-pair")
      << "unknown inject mode '" << config.inject << "'";

  if (!campaign) {
    if (flags.positional().size() != 2) {
      std::fprintf(stderr,
                   "usage: geacc_audit <instance> <arrangement> [--maximal]\n"
                   "       geacc_audit --campaign [flags]  (see --help)\n");
      return 2;
    }
    return RunFileAudit(flags.positional()[0], flags.positional()[1], maximal,
                        json_path);
  }

  const CampaignResult result = RunCampaign(config, &std::cerr);
  std::printf("campaign: %d instances, %lld checks, %zu failure(s)\n",
              result.instances, static_cast<long long>(result.checks),
              result.failures.size());

  if (!json_path.empty() &&
      !WriteTextFile(json_path, CampaignJson(config, result).Dump(2) + "\n")) {
    std::fprintf(stderr, "geacc_audit: cannot write %s\n", json_path.c_str());
    return 2;
  }
  if (!repro_dir.empty()) {
    const int written = WriteRepros(repro_dir, result);
    if (written < 0) {
      std::fprintf(stderr, "geacc_audit: cannot write repros to %s\n",
                   repro_dir.c_str());
      return 2;
    }
    if (written > 0) {
      std::printf("wrote %d repro artifact(s) to %s\n", written,
                  repro_dir.c_str());
    }
  }

  if (expect_detect) {
    if (result.ok()) {
      std::fprintf(stderr,
                   "geacc_audit: --expect_detect but the campaign found "
                   "nothing — the harness is not detecting faults\n");
      return 1;
    }
    if (config.shrink) {
      bool any_shrunk = false;
      for (const CampaignFailure& failure : result.failures) {
        if (!failure.shrunk_instance_text.empty()) any_shrunk = true;
      }
      if (!any_shrunk) {
        std::fprintf(stderr,
                     "geacc_audit: --expect_detect --shrink but no failure "
                     "was shrunk to a repro\n");
        return 1;
      }
    }
    std::printf("expect_detect: injected fault detected as expected\n");
    return 0;
  }
  return result.ok() ? 0 : 1;
}
