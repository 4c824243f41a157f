#include "svc/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/check.h"
#include "util/string_util.h"

namespace geacc::svc {
namespace {

void PutU8(std::string* buffer, uint8_t value) {
  buffer->push_back(static_cast<char>(value));
}

void PutU32(std::string* buffer, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buffer->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutI32(std::string* buffer, int32_t value) {
  PutU32(buffer, static_cast<uint32_t>(value));
}

void PutU64(std::string* buffer, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buffer->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string* buffer, int64_t value) {
  PutU64(buffer, static_cast<uint64_t>(value));
}

void PutF64(std::string* buffer, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(buffer, bits);
}

void PutBytes(std::string* buffer, const std::string& bytes) {
  PutU32(buffer, static_cast<uint32_t>(bytes.size()));
  buffer->append(bytes);
}

// Bounds-checked cursor over a received body. Every Read* fails (and
// latches) instead of walking past `size`.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* value) {
    if (!Require(1)) return false;
    *value = data_[pos_++];
    return true;
  }

  bool ReadU32(uint32_t* value) {
    if (!Require(4)) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    *value = v;
    return true;
  }

  bool ReadI32(int32_t* value) {
    uint32_t v;
    if (!ReadU32(&v)) return false;
    *value = static_cast<int32_t>(v);
    return true;
  }

  bool ReadU64(uint64_t* value) {
    if (!Require(8)) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    *value = v;
    return true;
  }

  bool ReadI64(int64_t* value) {
    uint64_t v;
    if (!ReadU64(&v)) return false;
    *value = static_cast<int64_t>(v);
    return true;
  }

  bool ReadF64(double* value) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(value, &bits, sizeof(bits));
    return true;
  }

  bool ReadBytes(std::string* value) {
    uint32_t length;
    if (!ReadU32(&length)) return false;
    if (!Require(length)) return false;
    value->assign(reinterpret_cast<const char*>(data_ + pos_), length);
    pos_ += length;
    return true;
  }

  bool AtEnd() const { return ok_ && pos_ == size_; }
  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool Require(size_t bytes) {
    if (!ok_ || size_ - pos_ < bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// The ten ServiceStatsView fields in wire order: a kStatsReply body and
// every kShardStatsReply entry carry them alike.
void PutStats(std::string* buffer, const ServiceStatsView& stats) {
  PutI64(buffer, stats.epoch);
  PutI64(buffer, stats.applied_seq);
  PutI64(buffer, stats.pairs);
  PutI32(buffer, stats.active_events);
  PutI32(buffer, stats.active_users);
  PutI32(buffer, stats.event_slots);
  PutI32(buffer, stats.user_slots);
  PutF64(buffer, stats.max_sum);
  PutI32(buffer, stats.queued);
  PutI64(buffer, stats.overloads);
}

bool ReadStats(Reader* reader, ServiceStatsView* stats) {
  return reader->ReadI64(&stats->epoch) &&
         reader->ReadI64(&stats->applied_seq) &&
         reader->ReadI64(&stats->pairs) &&
         reader->ReadI32(&stats->active_events) &&
         reader->ReadI32(&stats->active_users) &&
         reader->ReadI32(&stats->event_slots) &&
         reader->ReadI32(&stats->user_slots) &&
         reader->ReadF64(&stats->max_sum) &&
         reader->ReadI32(&stats->queued) &&
         reader->ReadI64(&stats->overloads);
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string SealFrame(std::string body) {
  std::string frame;
  frame.reserve(body.size() + 4);
  PutU32(&frame, static_cast<uint32_t>(body.size()));
  frame.append(body);
  return frame;
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kGetAssignments:
      return "get_assignments";
    case MsgType::kGetAttendees:
      return "get_attendees";
    case MsgType::kTopK:
      return "top_k";
    case MsgType::kStats:
      return "stats";
    case MsgType::kMutate:
      return "mutate";
    case MsgType::kCandidates:
      return "candidates";
    case MsgType::kInstallArrangement:
      return "install_arrangement";
    case MsgType::kShardStats:
      return "shard_stats";
    case MsgType::kPong:
      return "pong";
    case MsgType::kIdList:
      return "id_list";
    case MsgType::kScoredList:
      return "scored_list";
    case MsgType::kStatsReply:
      return "stats_reply";
    case MsgType::kMutateAck:
      return "mutate_ack";
    case MsgType::kOverloaded:
      return "overloaded";
    case MsgType::kError:
      return "error";
    case MsgType::kCandidateList:
      return "candidate_list";
    case MsgType::kShardStatsReply:
      return "shard_stats_reply";
  }
  return "unknown";
}

std::string EncodeRequestFrame(const WireRequest& request) {
  std::string body;
  PutU8(&body, kWireVersion);
  PutU8(&body, static_cast<uint8_t>(request.type));
  switch (request.type) {
    case MsgType::kPing:
    case MsgType::kStats:
      break;
    case MsgType::kGetAssignments:
    case MsgType::kGetAttendees:
      PutI32(&body, request.id);
      break;
    case MsgType::kTopK:
      PutI32(&body, request.id);
      PutI32(&body, request.k);
      break;
    case MsgType::kMutate:
      PutBytes(&body, request.payload);
      break;
    case MsgType::kCandidates:
      PutI32(&body, request.id);
      PutI32(&body, request.k);
      break;
    case MsgType::kInstallArrangement:
      PutU64(&body, request.max_sum_bits);
      PutU32(&body, static_cast<uint32_t>(request.pairs.size()));
      for (const auto& [event, user] : request.pairs) {
        PutI32(&body, event);
        PutI32(&body, user);
      }
      break;
    case MsgType::kShardStats:
      break;
    default:
      GEACC_CHECK(false) << "not a request type: "
                         << static_cast<int>(request.type);
  }
  return SealFrame(std::move(body));
}

std::string EncodeResponseFrame(const WireResponse& response) {
  std::string body;
  PutU8(&body, kWireVersion);
  PutU8(&body, static_cast<uint8_t>(response.type));
  switch (response.type) {
    case MsgType::kPong:
    case MsgType::kOverloaded:
      break;
    case MsgType::kIdList:
      PutU32(&body, static_cast<uint32_t>(response.ids.size()));
      for (const int32_t id : response.ids) PutI32(&body, id);
      break;
    case MsgType::kScoredList:
      PutU32(&body, static_cast<uint32_t>(response.scored.size()));
      for (const ScoredEvent& scored : response.scored) {
        PutI32(&body, scored.event);
        PutF64(&body, scored.similarity);
      }
      break;
    case MsgType::kStatsReply:
      PutStats(&body, response.stats);
      break;
    case MsgType::kMutateAck:
      PutI64(&body, response.ticket);
      break;
    case MsgType::kError:
      PutBytes(&body, response.message);
      break;
    case MsgType::kCandidateList:
      PutU32(&body, static_cast<uint32_t>(response.candidates.size()));
      for (const ScoredCandidate& c : response.candidates) {
        PutI32(&body, c.user);
        PutI32(&body, c.event);
        PutF64(&body, c.similarity);
      }
      break;
    case MsgType::kShardStatsReply: {
      const ShardTopologyStats& ts = response.shard_stats;
      PutI32(&body, ts.shard_count);
      PutI64(&body, ts.repair_epoch);
      PutF64(&body, ts.global_max_sum);
      PutI64(&body, ts.repair_candidates);
      PutI64(&body, ts.repair_admitted);
      PutI64(&body, ts.repair_rejected_capacity);
      PutI64(&body, ts.repair_rejected_conflict);
      PutI64(&body, ts.cross_edge_rejects);
      PutU32(&body, static_cast<uint32_t>(ts.shards.size()));
      for (const ShardStatsEntry& entry : ts.shards) {
        PutI32(&body, entry.shard);
        PutStats(&body, entry.stats);
        PutI64(&body, entry.rpc_requests);
        PutI64(&body, entry.rpc_errors);
        PutF64(&body, entry.rpc_p50_ms);
        PutF64(&body, entry.rpc_p95_ms);
        PutF64(&body, entry.rpc_p99_ms);
      }
      break;
    }
    default:
      GEACC_CHECK(false) << "not a response type: "
                         << static_cast<int>(response.type);
  }
  return SealFrame(std::move(body));
}

namespace {

// Shared prologue: version byte, type byte, and type-range check.
bool DecodeHeader(Reader* reader, bool want_request, MsgType* type,
                  std::string* error) {
  uint8_t version;
  if (!reader->ReadU8(&version)) return Fail(error, "truncated frame");
  if (version != kWireVersion) {
    return Fail(error, StrFormat("unsupported wire version %d",
                                 static_cast<int>(version)));
  }
  uint8_t raw;
  if (!reader->ReadU8(&raw)) return Fail(error, "truncated frame");
  const bool is_request = raw >= static_cast<uint8_t>(MsgType::kPing) &&
                          raw <= static_cast<uint8_t>(MsgType::kShardStats);
  const bool is_response =
      raw >= static_cast<uint8_t>(MsgType::kPong) &&
      raw <= static_cast<uint8_t>(MsgType::kShardStatsReply);
  if (want_request ? !is_request : !is_response) {
    return Fail(error, StrFormat("unexpected message type %d",
                                 static_cast<int>(raw)));
  }
  *type = static_cast<MsgType>(raw);
  return true;
}

bool CheckEnd(const Reader& reader, std::string* error) {
  if (!reader.AtEnd()) {
    return Fail(error, reader.ok() ? "trailing bytes after body"
                                   : "truncated body");
  }
  return true;
}

}  // namespace

bool DecodeRequest(const uint8_t* data, size_t size, WireRequest* out,
                   std::string* error) {
  Reader reader(data, size);
  *out = WireRequest();
  if (!DecodeHeader(&reader, /*want_request=*/true, &out->type, error)) {
    return false;
  }
  switch (out->type) {
    case MsgType::kPing:
    case MsgType::kStats:
      break;
    case MsgType::kGetAssignments:
    case MsgType::kGetAttendees:
      if (!reader.ReadI32(&out->id)) return Fail(error, "truncated body");
      break;
    case MsgType::kTopK:
      if (!reader.ReadI32(&out->id) || !reader.ReadI32(&out->k)) {
        return Fail(error, "truncated body");
      }
      break;
    case MsgType::kMutate:
      if (!reader.ReadBytes(&out->payload)) {
        return Fail(error, "truncated mutation payload");
      }
      break;
    case MsgType::kCandidates:
      if (!reader.ReadI32(&out->id) || !reader.ReadI32(&out->k)) {
        return Fail(error, "truncated body");
      }
      break;
    case MsgType::kInstallArrangement: {
      if (!reader.ReadU64(&out->max_sum_bits)) {
        return Fail(error, "truncated body");
      }
      uint32_t count;
      if (!reader.ReadU32(&count)) return Fail(error, "truncated body");
      if (count > reader.remaining() / 8) {
        return Fail(error, "pair count exceeds body size");
      }
      out->pairs.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!reader.ReadI32(&out->pairs[i].first) ||
            !reader.ReadI32(&out->pairs[i].second)) {
          return Fail(error, "truncated pair");
        }
      }
      break;
    }
    case MsgType::kShardStats:
      break;
    default:
      return Fail(error, "unexpected message type");
  }
  return CheckEnd(reader, error);
}

bool DecodeResponse(const uint8_t* data, size_t size, WireResponse* out,
                    std::string* error) {
  Reader reader(data, size);
  *out = WireResponse();
  if (!DecodeHeader(&reader, /*want_request=*/false, &out->type, error)) {
    return false;
  }
  switch (out->type) {
    case MsgType::kPong:
    case MsgType::kOverloaded:
      break;
    case MsgType::kIdList: {
      uint32_t count;
      if (!reader.ReadU32(&count)) return Fail(error, "truncated body");
      // count is claimed, not trusted: each id is 4 bytes, so the body
      // itself bounds how many can be real.
      if (count > reader.remaining() / 4) {
        return Fail(error, "id count exceeds body size");
      }
      out->ids.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!reader.ReadI32(&out->ids[i])) return Fail(error, "truncated id");
      }
      break;
    }
    case MsgType::kScoredList: {
      uint32_t count;
      if (!reader.ReadU32(&count)) return Fail(error, "truncated body");
      if (count > reader.remaining() / 12) {
        return Fail(error, "entry count exceeds body size");
      }
      out->scored.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!reader.ReadI32(&out->scored[i].event) ||
            !reader.ReadF64(&out->scored[i].similarity)) {
          return Fail(error, "truncated entry");
        }
      }
      break;
    }
    case MsgType::kStatsReply:
      if (!ReadStats(&reader, &out->stats)) {
        return Fail(error, "truncated stats body");
      }
      break;
    case MsgType::kMutateAck:
      if (!reader.ReadI64(&out->ticket)) return Fail(error, "truncated body");
      break;
    case MsgType::kError:
      if (!reader.ReadBytes(&out->message)) {
        return Fail(error, "truncated error body");
      }
      break;
    case MsgType::kCandidateList: {
      uint32_t count;
      if (!reader.ReadU32(&count)) return Fail(error, "truncated body");
      if (count > reader.remaining() / 16) {
        return Fail(error, "candidate count exceeds body size");
      }
      out->candidates.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (!reader.ReadI32(&out->candidates[i].user) ||
            !reader.ReadI32(&out->candidates[i].event) ||
            !reader.ReadF64(&out->candidates[i].similarity)) {
          return Fail(error, "truncated candidate");
        }
      }
      break;
    }
    case MsgType::kShardStatsReply: {
      ShardTopologyStats& ts = out->shard_stats;
      if (!reader.ReadI32(&ts.shard_count) ||
          !reader.ReadI64(&ts.repair_epoch) ||
          !reader.ReadF64(&ts.global_max_sum) ||
          !reader.ReadI64(&ts.repair_candidates) ||
          !reader.ReadI64(&ts.repair_admitted) ||
          !reader.ReadI64(&ts.repair_rejected_capacity) ||
          !reader.ReadI64(&ts.repair_rejected_conflict) ||
          !reader.ReadI64(&ts.cross_edge_rejects)) {
        return Fail(error, "truncated shard stats body");
      }
      uint32_t count;
      if (!reader.ReadU32(&count)) return Fail(error, "truncated body");
      // Each entry is at least 96 bytes of fixed-width fields.
      if (count > reader.remaining() / 96) {
        return Fail(error, "shard count exceeds body size");
      }
      ts.shards.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        ShardStatsEntry& entry = ts.shards[i];
        if (!reader.ReadI32(&entry.shard) ||
            !ReadStats(&reader, &entry.stats) ||
            !reader.ReadI64(&entry.rpc_requests) ||
            !reader.ReadI64(&entry.rpc_errors) ||
            !reader.ReadF64(&entry.rpc_p50_ms) ||
            !reader.ReadF64(&entry.rpc_p95_ms) ||
            !reader.ReadF64(&entry.rpc_p99_ms)) {
          return Fail(error, "truncated shard entry");
        }
      }
      break;
    }
    default:
      return Fail(error, "unexpected message type");
  }
  return CheckEnd(reader, error);
}

bool ParseFrameLength(std::string_view frame, uint32_t* length) {
  Reader reader(reinterpret_cast<const uint8_t*>(frame.data()), frame.size());
  *length = 0;
  return reader.ReadU32(length) && *length >= 2 && *length <= kMaxFrameBytes;
}

namespace {

bool ReadFull(int fd, char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = read(fd, data + done, size - done);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

FrameRead ReadFrame(int fd, std::string* body, uint32_t* length) {
  char prefix[4];
  if (!ReadFull(fd, prefix, sizeof(prefix))) return FrameRead::kClosed;
  if (!ParseFrameLength(std::string_view(prefix, sizeof(prefix)), length)) {
    return FrameRead::kBadLength;
  }
  body->resize(*length);
  return ReadFull(fd, body->data(), body->size()) ? FrameRead::kOk
                                                  : FrameRead::kClosed;
}

bool WriteFull(int fd, std::string_view bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace geacc::svc
