#include "svc/wal.h"

#include <utility>

#include "io/instance_io.h"
#include "io/line_reader.h"
#include "io/trace_io.h"
#include "util/string_util.h"

namespace geacc::svc {
namespace {

using io_internal::Fail;
using io_internal::LineReader;
using io_internal::Tokens;

constexpr char kWalHeader[] = "geacc-svc-wal";
constexpr char kWalSentinel[] = "wal-mutations";

}  // namespace

bool WalWriter::Open(const std::string& path, const Instance& initial,
                     std::string* error) {
  out_.open(path, std::ios::trunc);
  if (!out_) {
    Fail(error, "cannot open '" + path + "' for writing");
    return false;
  }
  out_ << kWalHeader << " v1\n";
  WriteInstance(initial, out_);
  out_ << kWalSentinel << "\n";
  return Sync();
}

bool WalWriter::OpenForAppend(const std::string& path, std::string* error) {
  out_.open(path, std::ios::app);
  if (!out_) {
    Fail(error, "cannot open '" + path + "' for appending");
    return false;
  }
  return true;
}

bool WalWriter::Append(const Mutation& mutation) {
  if (!out_.is_open()) return false;
  line_.clear();
  AppendMutationLine(mutation, &line_);
  line_.push_back('\n');
  out_ << line_;
  return static_cast<bool>(out_);
}

bool WalWriter::Sync() {
  if (!out_.is_open()) return false;
  out_.flush();
  return static_cast<bool>(out_);
}

void WalWriter::Close() {
  if (out_.is_open()) {
    out_.flush();
    out_.close();
  }
}

std::optional<WalContents> ReadWal(const std::string& path,
                                   std::string* error) {
  std::ifstream is(path);
  if (!is) {
    Fail(error, "cannot open '" + path + "'");
    return std::nullopt;
  }

  {
    LineReader header(is);
    const Tokens& tokens = header.NextTokens();
    if (tokens.size() != 2 || tokens[0] != kWalHeader || tokens[1] != "v1") {
      Fail(error, "expected header 'geacc-svc-wal v1'");
      return std::nullopt;
    }
  }

  std::string instance_error;
  std::optional<Instance> initial = ReadInstance(is, &instance_error);
  if (!initial) {
    Fail(error, "embedded instance: " + instance_error);
    return std::nullopt;
  }
  const int dim = initial->dim();

  {
    LineReader sentinel(is);
    const Tokens& tokens = sentinel.NextTokens();
    // A sentinel without its newline was torn while the WAL was being
    // created, like any other cut in the header region: appending after
    // it would fuse the first mutation onto it.
    if (tokens.size() != 1 || tokens[0] != kWalSentinel || is.eof()) {
      Fail(error, "expected a '" + std::string(kWalSentinel) +
                      "' line after the embedded instance");
      return std::nullopt;
    }
  }

  WalContents contents{std::move(*initial), {}, 0,
                       static_cast<uint64_t>(is.tellg())};
  // Parse mutation lines to EOF by hand (not LineReader) so a torn final
  // line — no trailing newline, the crash signature — is distinguishable
  // from corruption in the middle of the log.
  std::string line;
  std::string pending_error;
  bool pending = false;
  int64_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (pending) {
      // The malformed line had lines after it: real corruption.
      Fail(error, StrFormat("mutation line %lld: %s",
                            static_cast<long long>(line_number - 1),
                            pending_error.c_str()));
      return std::nullopt;
    }
    if (is.eof()) {
      // No newline after it: the append was torn. Drop it even when it
      // parses — `set_user_capacity 3 12` torn to `... 3 1` does.
      pending = true;
      break;
    }
    const std::string_view trimmed = Trim(line);
    if (!trimmed.empty() && trimmed[0] != '#') {
      std::string mutation_error;
      std::optional<Mutation> mutation =
          ParseMutationLine(trimmed, dim, &mutation_error);
      if (!mutation) {
        pending = true;
        pending_error = mutation_error;
        continue;
      }
      contents.mutations.push_back(std::move(*mutation));
    }
    contents.valid_bytes += line.size() + 1;
  }
  if (pending) contents.dropped_tail_lines = 1;
  return contents;
}

}  // namespace geacc::svc
