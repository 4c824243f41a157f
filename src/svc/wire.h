// Binary framing for the arrangement service's TCP protocol
// (DESIGN.md §11).
//
// Every message travels as one length-prefixed frame:
//
//   u32 length (LE) | u8 version | u8 type | body
//
// where `length` counts everything after itself (version byte included)
// and is capped at kMaxFrameBytes so a hostile peer cannot make either
// side allocate unbounded memory. Integers are little-endian two's
// complement; doubles are IEEE-754 bit patterns memcpy'd through a u64.
//
// Mutations ride the wire as their trace_io text line (io/trace_io
// FormatMutationLine / ParseMutationLine) inside a kMutate frame — one
// mutation codec for trace files, the WAL, and the network, so hardening
// the parser hardens all three.
//
// Decoding is strict: unknown version or type, truncated bodies, trailing
// bytes, and out-of-bounds counts all fail with a diagnostic instead of
// guessing. Encode*Frame produce full frames (length prefix included);
// Decode* consume exactly the bytes after the prefix, which is what a
// socket loop that reads the prefix first naturally has in hand.

#ifndef GEACC_SVC_WIRE_H_
#define GEACC_SVC_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "svc/service.h"
#include "svc/snapshot.h"

namespace geacc::svc {

inline constexpr uint8_t kWireVersion = 1;

// Hard cap on `length`. Most bodies are id lists and one-line mutations;
// the one that grows with the instance, a kCandidateList reply, is paged
// by its requester to fit (kMaxCandidatesPerFrame).
inline constexpr uint32_t kMaxFrameBytes = 1 << 20;

// Most candidates one kCandidateList reply can carry under kMaxFrameBytes:
// its length counts the version and type bytes and a u32 count, then 16
// bytes per candidate.
inline constexpr int kMaxCandidatesPerFrame = (kMaxFrameBytes - 6) / 16;

enum class MsgType : uint8_t {
  // Requests.
  kPing = 1,
  kGetAssignments = 2,  // body: i32 user
  kGetAttendees = 3,    // body: i32 event
  kTopK = 4,            // body: i32 user, i32 k
  kStats = 5,
  kMutate = 6,  // body: u32 len, trace_io mutation line (no newline)
  // Shard protocol (DESIGN.md §16). kCandidates streams a shard's scoring
  // edges to the coordinator's repair pass; kInstallArrangement pushes the
  // globally admitted slice back; kShardStats asks a coordinator for its
  // per-shard breakdown (a plain shard answers kError).
  kCandidates = 7,           // body: i32 first_user, i32 user_count
  kInstallArrangement = 8,   // body: u64 max_sum_bits, u32 count,
                             //       count × (i32 event, i32 user)
  kShardStats = 9,

  // Responses.
  kPong = 64,
  kIdList = 65,      // body: u32 count, count × i32
  kScoredList = 66,  // body: u32 count, count × (i32 id, f64 similarity)
  kStatsReply = 67,  // body: ServiceStatsView fields, fixed layout
  kMutateAck = 68,   // body: i64 ticket
  kOverloaded = 69,  // queue full — retry later
  kError = 70,       // body: u32 len, diagnostic bytes
  kCandidateList = 71,   // body: u32 count, count × (i32 user, i32 event,
                         //       f64 similarity)
  kShardStatsReply = 72, // body: ShardTopologyStats, fixed layout
};

const char* MsgTypeName(MsgType type);

// Per-shard line of a coordinator's kShardStatsReply: the shard's own
// ServiceStatsView plus the coordinator-observed RPC traffic to it.
struct ShardStatsEntry {
  int32_t shard = 0;
  ServiceStatsView stats;
  int64_t rpc_requests = 0;
  int64_t rpc_errors = 0;
  double rpc_p50_ms = 0.0;
  double rpc_p95_ms = 0.0;
  double rpc_p99_ms = 0.0;
};

// Coordinator-level stats for kShardStatsReply: global repair-pass
// counters plus one ShardStatsEntry per shard.
struct ShardTopologyStats {
  int32_t shard_count = 0;
  int64_t repair_epoch = 0;        // completed repair passes
  double global_max_sum = 0.0;     // Σ sim admitted by the last pass
  int64_t repair_candidates = 0;   // edges scanned, cumulative
  int64_t repair_admitted = 0;
  int64_t repair_rejected_capacity = 0;
  int64_t repair_rejected_conflict = 0;
  // Conflict rejections attributed to an edge whose owner shard (lowest
  // endpoint home) differs from the candidate user's shard.
  int64_t cross_edge_rejects = 0;
  std::vector<ShardStatsEntry> shards;
};

// One decoded request. Only the fields for `type` are meaningful: `id`
// for GetAssignments/GetAttendees/TopK (and first_user for Candidates),
// `k` for TopK (user_count for Candidates), `payload` (the mutation line)
// for Mutate, `pairs`/`max_sum_bits` for InstallArrangement.
struct WireRequest {
  MsgType type = MsgType::kPing;
  int32_t id = -1;
  int32_t k = 0;
  std::string payload{};
  std::vector<std::pair<int32_t, int32_t>> pairs{};  // (event, user)
  uint64_t max_sum_bits = 0;
};

// One decoded response; per-type fields as in WireRequest. `stats` for
// kStatsReply, `ids` for kIdList, `scored` for kScoredList, `ticket` for
// kMutateAck, `message` for kError, `candidates` for kCandidateList,
// `shard_stats` for kShardStatsReply.
struct WireResponse {
  MsgType type = MsgType::kPong;
  std::vector<int32_t> ids;
  std::vector<ScoredEvent> scored;
  ServiceStatsView stats;
  int64_t ticket = -1;
  std::string message;
  std::vector<ScoredCandidate> candidates;
  ShardTopologyStats shard_stats;
};

// Serialize a full frame, length prefix included, ready for write().
std::string EncodeRequestFrame(const WireRequest& request);
std::string EncodeResponseFrame(const WireResponse& response);

// Parse the bytes *after* the length prefix (version | type | body).
// False with a diagnostic on any malformation; `out` is unspecified then.
bool DecodeRequest(const uint8_t* data, size_t size, WireRequest* out,
                   std::string* error = nullptr);
bool DecodeResponse(const uint8_t* data, size_t size, WireResponse* out,
                    std::string* error = nullptr);

// Reads the length prefix at the front of `frame` (4 bytes or more).
// False when it lies outside [2, kMaxFrameBytes]: no such frame is
// accepted, over a socket or in process.
bool ParseFrameLength(std::string_view frame, uint32_t* length);

// ----- frames over a connected socket -----
// Short transfers and EINTR are retried; writes use send(MSG_NOSIGNAL),
// so a peer that closed mid-frame cannot SIGPIPE the process.

enum class FrameRead {
  kOk,
  kClosed,     // EOF or a read error
  kBadLength,  // the prefix failed ParseFrameLength; no body was read
};

// Reads one frame from `fd`, leaving the bytes after its prefix in `body`
// and the prefix in `*length` (also when it is out of range).
FrameRead ReadFrame(int fd, std::string* body, uint32_t* length);

// Writes all of `bytes` to `fd`; false on a send error.
bool WriteFull(int fd, std::string_view bytes);

}  // namespace geacc::svc

#endif  // GEACC_SVC_WIRE_H_
