#include "io/instance_io.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <vector>

#include "io/line_reader.h"
#include "util/string_util.h"

namespace geacc {
namespace {

using io_internal::At;
using io_internal::Fail;
using io_internal::LineReader;
using io_internal::ParseCountLine;
using io_internal::Tokens;

// Parses an entity line "<keyword> <capacity> <attr...>"; appends the
// attributes to `matrix` (via the scratch `row`) and the capacity.
// Returns false on malformed input.
bool ParseEntityLine(const Tokens& tokens, std::string_view keyword,
                     std::vector<double>& row, AttributeMatrix& matrix,
                     std::vector<int>& capacities) {
  const int dim = matrix.dim();
  if (tokens.size() != static_cast<size_t>(dim) + 2 || tokens[0] != keyword) {
    return false;
  }
  const auto capacity = ParseInt(tokens[1]);
  if (!capacity) return false;
  row.resize(dim);
  for (int j = 0; j < dim; ++j) {
    const auto value = ParseDouble(tokens[2 + j]);
    // ParseDouble yields "nan"/"inf"; no finite writer emits them, so
    // treat them as corruption rather than let NaN poison similarities.
    if (!value || !std::isfinite(*value)) return false;
    row[j] = *value;
  }
  matrix.AppendRow(row);
  capacities.push_back(static_cast<int>(*capacity));
  return true;
}

// "<keyword> <capacity> <attr...>" plus newline, into `line`.
void AppendEntityLine(std::string* line, std::string_view keyword,
                      int capacity, const double* row, int dim) {
  line->append(keyword);
  line->push_back(' ');
  AppendInt(line, capacity);
  for (int j = 0; j < dim; ++j) {
    line->push_back(' ');
    AppendDouble(line, row[j]);
  }
  line->push_back('\n');
}

}  // namespace

void WriteInstance(const Instance& instance, std::ostream& os) {
  // Lines are encoded into one reused buffer; the whole instance in one
  // string would double the writer's memory peak at service scale.
  std::string line;
  AppendDouble(&line, instance.similarity().Param());
  os << "geacc-instance v1\n";
  os << "similarity " << instance.similarity().Name() << " " << line << "\n";
  os << "dim " << instance.dim() << "\n";
  os << "events " << instance.num_events() << "\n";
  for (EventId v = 0; v < instance.num_events(); ++v) {
    line.clear();
    AppendEntityLine(&line, "event", instance.event_capacity(v),
                     instance.event_attributes().Row(v), instance.dim());
    os << line;
  }
  os << "users " << instance.num_users() << "\n";
  for (UserId u = 0; u < instance.num_users(); ++u) {
    line.clear();
    AppendEntityLine(&line, "user", instance.user_capacity(u),
                     instance.user_attributes().Row(u), instance.dim());
    os << line;
  }
  os << "conflicts " << instance.conflicts().num_conflict_pairs() << "\n";
  for (EventId v = 0; v < instance.num_events(); ++v) {
    for (const EventId w : instance.conflicts().ConflictsOf(v)) {
      if (w <= v) continue;
      line = "conflict ";
      AppendInt(&line, v);
      line.push_back(' ');
      AppendInt(&line, w);
      line.push_back('\n');
      os << line;
    }
  }
}

std::optional<Instance> ReadInstance(std::istream& is, std::string* error) {
  LineReader reader(is);

  Tokens tokens = reader.NextTokens();
  if (tokens.size() != 2 || tokens[0] != "geacc-instance" ||
      tokens[1] != "v1") {
    Fail(error, At(reader, "expected header 'geacc-instance v1'"));
    return std::nullopt;
  }

  tokens = reader.NextTokens();
  if (tokens.size() != 3 || tokens[0] != "similarity") {
    Fail(error, At(reader, "expected 'similarity <name> <param>'"));
    return std::nullopt;
  }
  const std::string similarity_name(tokens[1]);
  const auto similarity_param = ParseDouble(tokens[2]);
  if (!similarity_param) {
    Fail(error, At(reader, "bad similarity parameter"));
    return std::nullopt;
  }
  std::unique_ptr<SimilarityFunction> similarity =
      MakeSimilarity(similarity_name, *similarity_param);
  if (similarity == nullptr) {
    Fail(error,
         At(reader, "unknown similarity '" + similarity_name + "'"));
    return std::nullopt;
  }

  tokens = reader.NextTokens();
  if (tokens.size() != 2 || tokens[0] != "dim") {
    Fail(error, At(reader, "expected 'dim <d>'"));
    return std::nullopt;
  }
  const auto dim = ParseInt(tokens[1]);
  if (!dim || *dim < 0 || *dim > INT32_MAX) {
    Fail(error, At(reader, "bad dimension"));
    return std::nullopt;
  }

  const int64_t num_events = ParseCountLine(reader.NextTokens(), "events");
  if (num_events < 0) {
    Fail(error, At(reader, "expected 'events <count>'"));
    return std::nullopt;
  }
  std::vector<double> row;
  AttributeMatrix events(0, static_cast<int>(*dim));
  std::vector<int> event_capacities;
  for (int64_t i = 0; i < num_events; ++i) {
    if (!ParseEntityLine(reader.NextTokens(), "event", row, events,
                         event_capacities)) {
      Fail(error, At(reader, "malformed event line"));
      return std::nullopt;
    }
  }

  const int64_t num_users = ParseCountLine(reader.NextTokens(), "users");
  if (num_users < 0) {
    Fail(error, At(reader, "expected 'users <count>'"));
    return std::nullopt;
  }
  AttributeMatrix users(0, static_cast<int>(*dim));
  std::vector<int> user_capacities;
  for (int64_t i = 0; i < num_users; ++i) {
    if (!ParseEntityLine(reader.NextTokens(), "user", row, users,
                         user_capacities)) {
      Fail(error, At(reader, "malformed user line"));
      return std::nullopt;
    }
  }

  const int64_t num_conflicts =
      ParseCountLine(reader.NextTokens(), "conflicts");
  if (num_conflicts < 0) {
    Fail(error, At(reader, "expected 'conflicts <count>'"));
    return std::nullopt;
  }
  ConflictGraph conflicts(static_cast<int>(num_events));
  for (int64_t i = 0; i < num_conflicts; ++i) {
    tokens = reader.NextTokens();
    if (tokens.size() != 3 || tokens[0] != "conflict") {
      Fail(error, At(reader, "malformed conflict line"));
      return std::nullopt;
    }
    const auto a = ParseInt(tokens[1]);
    const auto b = ParseInt(tokens[2]);
    if (!a || !b || *a < 0 || *b < 0 || *a >= num_events ||
        *b >= num_events || *a == *b) {
      Fail(error, At(reader, "conflict ids out of range"));
      return std::nullopt;
    }
    conflicts.AddConflict(static_cast<EventId>(*a),
                          static_cast<EventId>(*b));
  }

  return Instance(std::move(events), std::move(event_capacities),
                  std::move(users), std::move(user_capacities),
                  std::move(conflicts), std::move(similarity));
}

bool WriteInstanceToFile(const Instance& instance, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  WriteInstance(instance, os);
  return static_cast<bool>(os);
}

std::optional<Instance> ReadInstanceFromFile(const std::string& path,
                                             std::string* error) {
  std::ifstream is(path);
  if (!is) {
    Fail(error, "cannot open '" + path + "'");
    return std::nullopt;
  }
  return ReadInstance(is, error);
}

void WriteArrangement(const Arrangement& arrangement, std::ostream& os) {
  os << "geacc-arrangement v1\n";
  os << "pairs " << arrangement.size() << "\n";
  for (const auto& [v, u] : arrangement.SortedPairs()) {
    os << "pair " << v << " " << u << "\n";
  }
}

std::optional<Arrangement> ReadArrangement(std::istream& is,
                                           const Instance& instance,
                                           std::string* error) {
  LineReader reader(is);
  Tokens tokens = reader.NextTokens();
  if (tokens.size() != 2 || tokens[0] != "geacc-arrangement" ||
      tokens[1] != "v1") {
    Fail(error, At(reader, "expected header 'geacc-arrangement v1'"));
    return std::nullopt;
  }
  const int64_t num_pairs = ParseCountLine(reader.NextTokens(), "pairs");
  if (num_pairs < 0) {
    Fail(error, At(reader, "expected 'pairs <count>'"));
    return std::nullopt;
  }
  Arrangement arrangement(instance.num_events(), instance.num_users());
  for (int64_t i = 0; i < num_pairs; ++i) {
    tokens = reader.NextTokens();
    if (tokens.size() != 3 || tokens[0] != "pair") {
      Fail(error, At(reader, "malformed pair line"));
      return std::nullopt;
    }
    const auto v = ParseInt(tokens[1]);
    const auto u = ParseInt(tokens[2]);
    if (!v || !u || *v < 0 || *u < 0 || *v >= instance.num_events() ||
        *u >= instance.num_users()) {
      Fail(error, At(reader, "pair ids out of range"));
      return std::nullopt;
    }
    if (arrangement.Contains(static_cast<EventId>(*v),
                             static_cast<UserId>(*u))) {
      Fail(error, At(reader, "duplicate pair"));
      return std::nullopt;
    }
    arrangement.Add(static_cast<EventId>(*v), static_cast<UserId>(*u));
  }
  return arrangement;
}

bool WriteArrangementToFile(const Arrangement& arrangement,
                            const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  WriteArrangement(arrangement, os);
  return static_cast<bool>(os);
}

std::optional<Arrangement> ReadArrangementFromFile(const std::string& path,
                                                   const Instance& instance,
                                                   std::string* error) {
  std::ifstream is(path);
  if (!is) {
    Fail(error, "cannot open '" + path + "'");
    return std::nullopt;
  }
  return ReadArrangement(is, instance, error);
}

}  // namespace geacc
