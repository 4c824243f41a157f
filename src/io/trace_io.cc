#include "io/trace_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <utility>
#include <vector>

#include "io/instance_io.h"
#include "io/line_reader.h"
#include "util/string_util.h"

namespace geacc {
namespace {

using io_internal::At;
using io_internal::Fail;
using io_internal::LineReader;
using io_internal::ParseCountLine;
using io_internal::Tokens;

// Upper bound on speculative reserve() from untrusted count lines: a
// garbage count must not become a multi-GiB allocation before the first
// malformed line is even reached.
constexpr int64_t kMaxSpeculativeReserve = 1 << 16;

// Parses the tokens after the keyword of an add_user/add_event line:
// "<capacity> <attr...>" with exactly `dim` attributes.
bool ParseAddOperands(const Tokens& tokens, int dim, Mutation& mutation) {
  if (dim < 0 || tokens.size() != static_cast<size_t>(dim) + 2) return false;
  const auto capacity = ParseInt(tokens[1]);
  if (!capacity || *capacity < 1) return false;
  mutation.capacity = static_cast<int>(*capacity);
  mutation.attributes.resize(dim);
  for (int j = 0; j < dim; ++j) {
    const auto value = ParseDouble(tokens[2 + j]);
    // Reject "nan"/"inf" (ParseDouble accepts both): these lines come from
    // the wire and the WAL, and a NaN attribute poisons every similarity.
    if (!value || !std::isfinite(*value)) return false;
    mutation.attributes[j] = *value;
  }
  return true;
}

// Parses "<keyword> <id>" or "<keyword> <a> <b>" operand lists of
// non-negative integers into `out` (size names the arity).
bool ParseIntOperands(const Tokens& tokens, std::vector<int64_t>& out) {
  if (tokens.size() != out.size() + 1) return false;
  for (size_t i = 0; i < out.size(); ++i) {
    const auto value = ParseInt(tokens[1 + i]);
    if (!value || *value < 0 || *value > INT32_MAX) return false;
    out[i] = *value;
  }
  return true;
}

// Shared core of ParseMutationLine and the trace reader: decodes one
// tokenized mutation line, or returns nullopt with a reason.
std::optional<Mutation> ParseMutationTokens(const Tokens& tokens, int dim,
                                            std::string* error) {
  if (tokens.empty()) {
    Fail(error, "empty mutation line");
    return std::nullopt;
  }
  const std::string_view keyword = tokens[0];
  Mutation mutation;
  bool ok = false;
  if (keyword == "add_user" || keyword == "add_event") {
    mutation.kind = keyword == "add_user" ? Mutation::Kind::kAddUser
                                          : Mutation::Kind::kAddEvent;
    ok = ParseAddOperands(tokens, dim, mutation);
  } else if (keyword == "remove_user" || keyword == "remove_event") {
    mutation.kind = keyword == "remove_user" ? Mutation::Kind::kRemoveUser
                                             : Mutation::Kind::kRemoveEvent;
    std::vector<int64_t> operands(1);
    ok = ParseIntOperands(tokens, operands);
    if (ok) mutation.id = static_cast<int32_t>(operands[0]);
  } else if (keyword == "add_conflict") {
    mutation.kind = Mutation::Kind::kAddConflict;
    std::vector<int64_t> operands(2);
    ok = ParseIntOperands(tokens, operands) && operands[0] != operands[1];
    if (ok) {
      mutation.id = static_cast<int32_t>(operands[0]);
      mutation.other = static_cast<int32_t>(operands[1]);
    }
  } else if (keyword == "set_event_capacity" ||
             keyword == "set_user_capacity") {
    mutation.kind = keyword == "set_event_capacity"
                        ? Mutation::Kind::kSetEventCapacity
                        : Mutation::Kind::kSetUserCapacity;
    std::vector<int64_t> operands(2);
    ok = ParseIntOperands(tokens, operands) && operands[1] >= 1;
    if (ok) {
      mutation.id = static_cast<int32_t>(operands[0]);
      mutation.capacity = static_cast<int>(operands[1]);
    }
  } else if (keyword == "set_event_slot") {
    mutation.kind = Mutation::Kind::kSetEventSlot;
    std::vector<int64_t> operands(2);
    // Slot ids are structurally bounded by kMaxTimeSlots; anything larger
    // is an unknown slot regardless of instance state.
    ok = ParseIntOperands(tokens, operands) && operands[1] < kMaxTimeSlots;
    if (ok) {
      mutation.id = static_cast<int32_t>(operands[0]);
      mutation.other = static_cast<int32_t>(operands[1]);
    }
  } else if (keyword == "set_user_availability") {
    mutation.kind = Mutation::Kind::kSetUserAvailability;
    // The mask operand exceeds ParseIntOperands' INT32_MAX ceiling (it is
    // a kMaxTimeSlots-bit word), so it gets its own parse: non-negative —
    // a leading '-' never parses — and < 2^kMaxTimeSlots.
    if (tokens.size() == 3) {
      const auto id = ParseInt(tokens[1]);
      const auto mask = ParseInt(tokens[2]);
      ok = id && *id >= 0 && *id <= INT32_MAX && mask && *mask >= 0 &&
           *mask < (int64_t{1} << kMaxTimeSlots);
      if (ok) {
        mutation.id = static_cast<int32_t>(*id);
        mutation.mask = *mask;
      }
    }
  } else {
    Fail(error, "unknown mutation '" + std::string(keyword) + "'");
    return std::nullopt;
  }
  if (!ok) {
    Fail(error, "malformed '" + std::string(keyword) + "' mutation");
    return std::nullopt;
  }
  return mutation;
}

}  // namespace

void AppendMutationLine(const Mutation& mutation, std::string* out) {
  out->append(MutationKindName(mutation.kind));
  const auto append_ints = [out](int64_t a, int64_t b) {
    out->push_back(' ');
    AppendInt(out, a);
    out->push_back(' ');
    AppendInt(out, b);
  };
  switch (mutation.kind) {
    case Mutation::Kind::kAddUser:
    case Mutation::Kind::kAddEvent:
      out->push_back(' ');
      AppendInt(out, mutation.capacity);
      for (const double x : mutation.attributes) {
        out->push_back(' ');
        AppendDouble(out, x);
      }
      break;
    case Mutation::Kind::kRemoveUser:
    case Mutation::Kind::kRemoveEvent:
      out->push_back(' ');
      AppendInt(out, mutation.id);
      break;
    case Mutation::Kind::kAddConflict:
    case Mutation::Kind::kSetEventSlot:
      append_ints(mutation.id, mutation.other);
      break;
    case Mutation::Kind::kSetEventCapacity:
    case Mutation::Kind::kSetUserCapacity:
      append_ints(mutation.id, mutation.capacity);
      break;
    case Mutation::Kind::kSetUserAvailability:
      append_ints(mutation.id, mutation.mask);
      break;
  }
}

std::string FormatMutationLine(const Mutation& mutation) {
  std::string line;
  AppendMutationLine(mutation, &line);
  return line;
}

std::optional<Mutation> ParseMutationLine(std::string_view line, int dim,
                                          std::string* error) {
  Tokens tokens;
  SplitWhitespace(line, &tokens);
  return ParseMutationTokens(tokens, dim, error);
}

void WriteTrace(const MutationTrace& trace, std::ostream& os) {
  os << "geacc-trace v1\n";
  WriteInstance(trace.initial, os);
  os << "mutations " << trace.mutations.size() << "\n";
  std::string line;
  for (const Mutation& mutation : trace.mutations) {
    line.clear();
    AppendMutationLine(mutation, &line);
    line.push_back('\n');
    os << line;
  }
}

std::optional<MutationTrace> ReadTrace(std::istream& is, std::string* error) {
  {
    LineReader header(is);
    const Tokens& tokens = header.NextTokens();
    if (tokens.size() != 2 || tokens[0] != "geacc-trace" ||
        tokens[1] != "v1") {
      Fail(error, At(header, "expected header 'geacc-trace v1'"));
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

  LineReader reader(is);
  const int64_t num_mutations =
      ParseCountLine(reader.NextTokens(), "mutations");
  if (num_mutations < 0) {
    Fail(error, At(reader, "expected 'mutations <count>'"));
    return std::nullopt;
  }

  MutationTrace trace{std::move(*initial), {}};
  trace.mutations.reserve(static_cast<size_t>(
      std::min(num_mutations, kMaxSpeculativeReserve)));
  for (int64_t i = 0; i < num_mutations; ++i) {
    const Tokens& tokens = reader.NextTokens();
    if (tokens.empty()) {
      Fail(error, At(reader, "unexpected end of mutation list"));
      return std::nullopt;
    }
    std::string mutation_error;
    std::optional<Mutation> mutation =
        ParseMutationTokens(tokens, dim, &mutation_error);
    if (!mutation) {
      Fail(error, At(reader, mutation_error));
      return std::nullopt;
    }
    trace.mutations.push_back(std::move(*mutation));
  }
  return trace;
}

bool WriteTraceToFile(const MutationTrace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  WriteTrace(trace, os);
  return static_cast<bool>(os);
}

std::optional<MutationTrace> ReadTraceFromFile(const std::string& path,
                                               std::string* error) {
  std::ifstream is(path);
  if (!is) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  return ReadTrace(is, error);
}

}  // namespace geacc
