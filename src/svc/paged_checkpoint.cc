#include "svc/paged_checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <initializer_list>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/stats.h"
#include "util/string_util.h"

namespace geacc::svc {
namespace {

using Tokens = std::vector<std::string_view>;

// Appends " <value>" per value.
void AppendFields(std::string* out, std::initializer_list<int64_t> values) {
  for (const int64_t value : values) {
    out->push_back(' ');
    AppendInt(out, value);
  }
}

// Appends the line "<keyword> <values...>".
void AppendLine(std::string* out, std::string_view keyword,
                std::initializer_list<int64_t> values) {
  out->append(keyword);
  AppendFields(out, values);
  out->push_back('\n');
}

// Appends the line "<keyword> <count> <values...>".
template <typename Int>
void AppendCountedLine(std::string* out, std::string_view keyword,
                       const std::vector<Int>& values) {
  out->append(keyword);
  AppendFields(out, {static_cast<int64_t>(values.size())});
  for (const Int value : values) AppendFields(out, {value});
  out->push_back('\n');
}

// Appends the line "<keyword> <capacity> <active> <attributes...>" of
// entity slot `row`.
void AppendSlotLine(std::string* out, std::string_view keyword, int capacity,
                    uint8_t active, const AttributeMatrix& matrix, int row) {
  out->append(keyword);
  AppendFields(out, {capacity, active});
  const double* values = matrix.Row(row);
  for (int j = 0; j < matrix.dim(); ++j) {
    out->push_back(' ');
    AppendDouble(out, values[j]);
  }
  out->push_back('\n');
}

// Line-oriented decoder over the encoded text (viewed, not copied):
// strict, position-independent errors.
struct Decoder {
  std::string_view rest;
  int line_number = 0;
  std::string* error;

  Decoder(std::string_view text, std::string* error)
      : rest(text), error(error) {}

  bool Fail(const std::string& message) {
    if (error != nullptr) {
      *error = StrFormat("paged checkpoint line %d: %s", line_number,
                         message.c_str());
    }
    return false;
  }

  bool NextTokens(Tokens* tokens) {
    if (rest.empty()) return Fail("unexpected end of state");
    const size_t end = std::min(rest.find('\n'), rest.size());
    SplitWhitespace(rest.substr(0, end), tokens);
    rest.remove_prefix(std::min(end + 1, rest.size()));
    ++line_number;
    return true;
  }
};

bool ParseIdList(Decoder& decoder, const Tokens& tokens, const char* keyword,
                 std::vector<int32_t>* out) {
  if (tokens.size() < 2 || tokens[0] != keyword) {
    return decoder.Fail(StrFormat("expected '%s <count> <ids...>'", keyword));
  }
  const auto count = ParseInt(tokens[1]);
  if (!count || *count < 0 ||
      tokens.size() != static_cast<size_t>(*count) + 2) {
    return decoder.Fail(StrFormat("bad '%s' count", keyword));
  }
  out->resize(*count);
  for (int64_t i = 0; i < *count; ++i) {
    const auto id = ParseInt(tokens[2 + i]);
    if (!id) return decoder.Fail("bad id");
    (*out)[i] = static_cast<int32_t>(*id);
  }
  return true;
}

bool ParseHexBits(std::string_view token, uint64_t* out) {
  if (token.empty() || token.size() > 16) return false;
  uint64_t value = 0;
  for (const char c : token) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *out = value;
  return true;
}

}  // namespace

std::string EncodeServiceState(const ServiceState& state) {
  const DynamicInstance::SlotState& slot = state.slot;
  std::string out;
  out.reserve(256 +
              static_cast<size_t>(slot.event_attributes.rows() +
                                  slot.user_attributes.rows()) *
                  (static_cast<size_t>(slot.dim) + 2) * 26);
  out += "geacc-svc-state v1\nsimilarity ";
  out += state.similarity_name;
  out += ' ';
  AppendDouble(&out, state.similarity_param);
  out += '\n';
  AppendLine(&out, "dim", {slot.dim});
  AppendLine(&out, "epoch", {slot.epoch});
  AppendLine(&out, "event_slots", {slot.event_attributes.rows()});
  for (int v = 0; v < slot.event_attributes.rows(); ++v) {
    AppendSlotLine(&out, "event", slot.event_capacities[v],
                   slot.event_active[v], slot.event_attributes, v);
  }
  AppendLine(&out, "user_slots", {slot.user_attributes.rows()});
  for (int u = 0; u < slot.user_attributes.rows(); ++u) {
    AppendSlotLine(&out, "user", slot.user_capacities[u],
                   slot.user_active[u], slot.user_attributes, u);
  }
  AppendLine(&out, "conflicts", {static_cast<int64_t>(slot.conflicts.size())});
  for (const auto& [a, b] : slot.conflicts) {
    AppendLine(&out, "conflict", {a, b});
  }
  // Time-slot annotations are emitted only when present (ExportSlotState
  // leaves both vectors empty until the first slot mutation), so pre-slot
  // checkpoints stay byte-identical to the original format.
  if (!slot.event_time_slots.empty() || !slot.user_availability.empty()) {
    AppendCountedLine(&out, "event_time_slots", slot.event_time_slots);
    AppendCountedLine(&out, "user_availability", slot.user_availability);
  }
  const IncrementalArranger::ArrangerState& arranger = state.arranger;
  out += "arranger\n";
  for (const std::vector<EventId>& events : arranger.user_events) {
    AppendCountedLine(&out, "ue", events);
  }
  for (const std::vector<UserId>& users : arranger.event_users) {
    AppendCountedLine(&out, "eu", users);
  }
  out += StrFormat("max_sum_bits %016" PRIx64 "\n", arranger.max_sum_bits);
  out += StrFormat("drift_bits %016" PRIx64 "\n", arranger.drift_bits);
  out += "end\n";
  return out;
}

bool DecodeServiceState(const std::string& text, ServiceState* state,
                        std::string* error) {
  Decoder decoder(text, error);
  Tokens tokens;

  if (!decoder.NextTokens(&tokens)) return false;
  if (tokens.size() != 2 || tokens[0] != "geacc-svc-state" ||
      tokens[1] != "v1") {
    return decoder.Fail("expected header 'geacc-svc-state v1'");
  }
  if (!decoder.NextTokens(&tokens)) return false;
  if (tokens.size() != 3 || tokens[0] != "similarity") {
    return decoder.Fail("expected 'similarity <name> <param>'");
  }
  state->similarity_name = std::string(tokens[1]);
  const auto param = ParseDouble(tokens[2]);
  if (!param) return decoder.Fail("bad similarity parameter");
  state->similarity_param = *param;

  DynamicInstance::SlotState& slot = state->slot;
  if (!decoder.NextTokens(&tokens)) return false;
  if (tokens.size() != 2 || tokens[0] != "dim") {
    return decoder.Fail("expected 'dim <d>'");
  }
  const auto dim = ParseInt(tokens[1]);
  if (!dim || *dim < 0 || *dim > INT32_MAX) {
    return decoder.Fail("bad dimension");
  }
  slot.dim = static_cast<int>(*dim);

  if (!decoder.NextTokens(&tokens)) return false;
  if (tokens.size() != 2 || tokens[0] != "epoch") {
    return decoder.Fail("expected 'epoch <e>'");
  }
  const auto epoch = ParseInt(tokens[1]);
  if (!epoch || *epoch < 0) return decoder.Fail("bad epoch");
  slot.epoch = *epoch;

  const auto parse_entities =
      [&](const char* plural, const char* singular, AttributeMatrix* matrix,
          std::vector<int>* capacities, std::vector<uint8_t>* active) {
        if (!decoder.NextTokens(&tokens)) return false;
        if (tokens.size() != 2 || tokens[0] != plural) {
          return decoder.Fail(StrFormat("expected '%s <count>'", plural));
        }
        const auto count = ParseInt(tokens[1]);
        if (!count || *count < 0) return decoder.Fail("bad slot count");
        *matrix = AttributeMatrix(0, slot.dim);
        capacities->clear();
        active->clear();
        std::vector<double> row;
        for (int64_t i = 0; i < *count; ++i) {
          if (!decoder.NextTokens(&tokens)) return false;
          if (tokens.size() != static_cast<size_t>(slot.dim) + 3 ||
              tokens[0] != singular) {
            return decoder.Fail(
                StrFormat("expected '%s <cap> <active> <attrs...>'",
                          singular));
          }
          const auto capacity = ParseInt(tokens[1]);
          const auto is_active = ParseInt(tokens[2]);
          if (!capacity || !is_active ||
              (*is_active != 0 && *is_active != 1)) {
            return decoder.Fail("bad capacity/active flag");
          }
          row.resize(slot.dim);  // sized only once a line has the tokens
          for (int j = 0; j < slot.dim; ++j) {
            const auto value = ParseDouble(tokens[3 + j]);
            if (!value) return decoder.Fail("bad attribute");
            row[j] = *value;
          }
          matrix->AppendRow(row);
          capacities->push_back(static_cast<int>(*capacity));
          active->push_back(static_cast<uint8_t>(*is_active));
        }
        return true;
      };
  if (!parse_entities("event_slots", "event", &slot.event_attributes,
                      &slot.event_capacities, &slot.event_active)) {
    return false;
  }
  if (!parse_entities("user_slots", "user", &slot.user_attributes,
                      &slot.user_capacities, &slot.user_active)) {
    return false;
  }

  if (!decoder.NextTokens(&tokens)) return false;
  if (tokens.size() != 2 || tokens[0] != "conflicts") {
    return decoder.Fail("expected 'conflicts <count>'");
  }
  const auto conflict_count = ParseInt(tokens[1]);
  if (!conflict_count || *conflict_count < 0) {
    return decoder.Fail("bad conflict count");
  }
  slot.conflicts.clear();
  slot.conflicts.reserve(*conflict_count);
  for (int64_t i = 0; i < *conflict_count; ++i) {
    if (!decoder.NextTokens(&tokens)) return false;
    if (tokens.size() != 3 || tokens[0] != "conflict") {
      return decoder.Fail("expected 'conflict <a> <b>'");
    }
    const auto a = ParseInt(tokens[1]);
    const auto b = ParseInt(tokens[2]);
    if (!a || !b) return decoder.Fail("bad conflict pair");
    slot.conflicts.emplace_back(static_cast<EventId>(*a),
                                static_cast<EventId>(*b));
  }

  if (!decoder.NextTokens(&tokens)) return false;
  slot.event_time_slots.clear();
  slot.user_availability.clear();
  if (!tokens.empty() && tokens[0] == "event_time_slots") {
    const auto count = tokens.size() >= 2 ? ParseInt(tokens[1]) : std::nullopt;
    if (!count || *count < 0 ||
        tokens.size() != static_cast<size_t>(*count) + 2) {
      return decoder.Fail("bad 'event_time_slots' count");
    }
    slot.event_time_slots.reserve(*count);
    for (int64_t i = 0; i < *count; ++i) {
      const auto s = ParseInt(tokens[2 + i]);
      if (!s) return decoder.Fail("bad event time slot");
      slot.event_time_slots.push_back(static_cast<SlotId>(*s));
    }
    if (!decoder.NextTokens(&tokens)) return false;
    const auto users = tokens.size() >= 2 && tokens[0] == "user_availability"
                           ? ParseInt(tokens[1])
                           : std::nullopt;
    if (!users || *users < 0 ||
        tokens.size() != static_cast<size_t>(*users) + 2) {
      return decoder.Fail("expected 'user_availability <count> <masks...>'");
    }
    slot.user_availability.reserve(*users);
    for (int64_t i = 0; i < *users; ++i) {
      const auto mask = ParseInt(tokens[2 + i]);
      if (!mask) return decoder.Fail("bad availability mask");
      slot.user_availability.push_back(*mask);
    }
    if (!decoder.NextTokens(&tokens)) return false;
  }
  if (tokens.size() != 1 || tokens[0] != "arranger") {
    return decoder.Fail("expected 'arranger'");
  }
  IncrementalArranger::ArrangerState& arranger = state->arranger;
  arranger.user_events.resize(slot.user_attributes.rows());
  for (auto& events : arranger.user_events) {
    if (!decoder.NextTokens(&tokens)) return false;
    if (!ParseIdList(decoder, tokens, "ue", &events)) return false;
  }
  arranger.event_users.resize(slot.event_attributes.rows());
  for (auto& users : arranger.event_users) {
    if (!decoder.NextTokens(&tokens)) return false;
    if (!ParseIdList(decoder, tokens, "eu", &users)) return false;
  }

  if (!decoder.NextTokens(&tokens)) return false;
  if (tokens.size() != 2 || tokens[0] != "max_sum_bits" ||
      !ParseHexBits(tokens[1], &arranger.max_sum_bits)) {
    return decoder.Fail("expected 'max_sum_bits <hex>'");
  }
  if (!decoder.NextTokens(&tokens)) return false;
  if (tokens.size() != 2 || tokens[0] != "drift_bits" ||
      !ParseHexBits(tokens[1], &arranger.drift_bits)) {
    return decoder.Fail("expected 'drift_bits <hex>'");
  }
  if (!decoder.NextTokens(&tokens)) return false;
  if (tokens.size() != 1 || tokens[0] != "end") {
    return decoder.Fail("expected 'end'");
  }
  return true;
}

std::unique_ptr<PagedCheckpointStore> PagedCheckpointStore::Open(
    const std::string& path, uint32_t page_size, std::string* error) {
  std::string open_error;
  std::unique_ptr<storage::PageFile> file =
      storage::PageFile::Open(path, &open_error);
  if (file != nullptr && file->page_size() != page_size) {
    // Page-size change: start over (the WAL still has everything).
    file.reset();
  }
  if (file == nullptr) {
    file = storage::PageFile::Create(path, page_size, error);
    if (file == nullptr) return nullptr;
  }
  return std::unique_ptr<PagedCheckpointStore>(
      new PagedCheckpointStore(std::move(file)));
}

bool PagedCheckpointStore::Write(const ServiceState& state,
                                 int64_t applied_mutations, WriteStats* stats,
                                 std::string* error) {
  GEACC_PHASE_TIMER("svc.ckpt.write");
  const std::string encoded = EncodeServiceState(state);
  const uint32_t capacity = file_->payload_capacity();
  const uint32_t pages =
      static_cast<uint32_t>((encoded.size() + capacity - 1) / capacity);
  WriteStats local;
  local.pages_total = static_cast<int>(pages);
  while (file_->allocated_pages() < pages) file_->Allocate();
  const uint32_t committed = file_->meta().data_pages;
  for (uint32_t i = 0; i < pages; ++i) {
    const size_t offset = static_cast<size_t>(i) * capacity;
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<size_t>(capacity, encoded.size() - offset));
    const uint8_t* payload =
        reinterpret_cast<const uint8_t*>(encoded.data()) + offset;
    if (i < committed) {
      // Dirty-page diff: skip the write when the stored checksum already
      // matches this exact content (PageChecksum is content-determined).
      uint64_t stored = 0;
      if (file_->ReadPageChecksum(i, &stored, error) &&
          stored == storage::PageChecksum(i, storage::kPageTypeCheckpoint,
                                          payload, chunk)) {
        continue;
      }
    }
    if (!file_->WritePage(i, storage::kPageTypeCheckpoint, payload, chunk,
                          error)) {
      return false;
    }
    ++local.pages_written;
  }
  storage::PageFile::Meta meta;
  meta.data_pages = std::max(pages, file_->allocated_pages());
  meta.state_bytes = encoded.size();
  meta.state_checksum =
      storage::Fnv1a64(encoded.data(), encoded.size());
  meta.applied_seq = applied_mutations;
  if (!file_->Commit(meta, error)) return false;
  if (stats != nullptr) *stats = local;
  GEACC_STATS_ADD("svc.ckpt.writes", 1);
  GEACC_STATS_ADD("svc.ckpt.pages_written", local.pages_written);
  GEACC_STATS_ADD("svc.ckpt.pages_clean",
                  local.pages_total - local.pages_written);
  return true;
}

bool PagedCheckpointStore::Read(ServiceState* state,
                                int64_t* applied_mutations,
                                std::string* error) {
  const storage::PageFile::Meta& meta = file_->meta();
  if (meta.state_bytes == 0) {
    if (error != nullptr) *error = "checkpoint store is empty";
    return false;
  }
  const uint32_t capacity = file_->payload_capacity();
  const uint32_t pages = static_cast<uint32_t>(
      (meta.state_bytes + capacity - 1) / capacity);
  if (pages > meta.data_pages) {
    if (error != nullptr) *error = "checkpoint meta references missing pages";
    return false;
  }
  std::string encoded;
  encoded.reserve(meta.state_bytes);
  std::vector<uint8_t> payload(capacity);
  for (uint32_t i = 0; i < pages; ++i) {
    uint16_t type = 0;
    uint32_t payload_bytes = 0;
    if (!file_->ReadPage(i, payload.data(), &type, &payload_bytes, error)) {
      return false;
    }
    if (type != storage::kPageTypeCheckpoint) {
      if (error != nullptr) *error = "unexpected page type in checkpoint";
      return false;
    }
    encoded.append(reinterpret_cast<const char*>(payload.data()),
                   payload_bytes);
  }
  if (encoded.size() != meta.state_bytes) {
    if (error != nullptr) *error = "checkpoint byte count mismatch";
    return false;
  }
  // The decisive torn-state check: in-place dirty-page rewrites can leave
  // individually-valid pages from two different checkpoints; only the
  // whole-state checksum proves these pages belong together.
  if (storage::Fnv1a64(encoded.data(), encoded.size()) !=
      meta.state_checksum) {
    if (error != nullptr) {
      *error = "checkpoint state checksum mismatch (torn write)";
    }
    return false;
  }
  if (!DecodeServiceState(encoded, state, error)) return false;
  if (applied_mutations != nullptr) *applied_mutations = meta.applied_seq;
  GEACC_STATS_ADD("svc.ckpt.reads", 1);
  return true;
}

}  // namespace geacc::svc
