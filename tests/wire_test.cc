// The wire codec faces untrusted bytes: every frame must either decode to
// exactly what was encoded or fail with a diagnostic — never crash, never
// over-allocate, never accept trailing garbage. Truncation is swept at
// every byte offset and corruption at every byte position, fuzz-style but
// deterministic.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "svc/wire.h"
#include "util/rng.h"

namespace geacc::svc {
namespace {

// A request or response with the fields a case names; the rest keep
// their defaults.
WireRequest Request(MsgType type, int32_t id = -1, int32_t k = 0,
                    std::string payload = "") {
  WireRequest request;
  request.type = type;
  request.id = id;
  request.k = k;
  request.payload = std::move(payload);
  return request;
}

WireResponse Response(MsgType type, std::string message = "") {
  WireResponse response;
  response.type = type;
  response.message = std::move(message);
  return response;
}

// Bytes after the length prefix — what Decode* consumes.
std::vector<uint8_t> Payload(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  return std::vector<uint8_t>(frame.begin() + 4, frame.end());
}

uint32_t PrefixOf(const std::string& frame) {
  uint32_t length = 0;
  std::memcpy(&length, frame.data(), 4);
  return length;
}

TEST(Wire, RequestRoundTripsEveryType) {
  std::vector<WireRequest> requests;
  requests.push_back(Request(MsgType::kPing));
  requests.push_back(Request(MsgType::kGetAssignments, 42));
  requests.push_back(Request(MsgType::kGetAttendees, 7));
  requests.push_back(Request(MsgType::kTopK, 3, 10));
  requests.push_back(Request(MsgType::kStats));
  requests.push_back(
      Request(MsgType::kMutate, -1, 0, "add_user 2 0.5 1.25 3.75 100"));

  for (const WireRequest& request : requests) {
    const std::string frame = EncodeRequestFrame(request);
    ASSERT_EQ(PrefixOf(frame), frame.size() - 4)
        << MsgTypeName(request.type);
    const std::vector<uint8_t> body = Payload(frame);
    WireRequest decoded;
    std::string error;
    ASSERT_TRUE(DecodeRequest(body.data(), body.size(), &decoded, &error))
        << MsgTypeName(request.type) << ": " << error;
    EXPECT_EQ(decoded.type, request.type);
    EXPECT_EQ(decoded.id, request.id) << MsgTypeName(request.type);
    EXPECT_EQ(decoded.k, request.k) << MsgTypeName(request.type);
    EXPECT_EQ(decoded.payload, request.payload);
  }
}

TEST(Wire, ResponseRoundTripsEveryType) {
  std::vector<WireResponse> responses;
  responses.push_back(Response(MsgType::kPong));
  WireResponse ids = Response(MsgType::kIdList);
  ids.ids = {3, 1, 4, 1, 5};
  responses.push_back(ids);
  WireResponse scored;
  scored.type = MsgType::kScoredList;
  scored.scored = {{7, 0.875}, {2, 0.5}, {9, 0.0}};
  responses.push_back(scored);
  WireResponse stats;
  stats.type = MsgType::kStatsReply;
  stats.stats.epoch = 123;
  stats.stats.applied_seq = 456;
  stats.stats.pairs = 789;
  stats.stats.active_events = 10;
  stats.stats.active_users = 20;
  stats.stats.event_slots = 11;
  stats.stats.user_slots = 22;
  stats.stats.max_sum = 3.14159;
  stats.stats.queued = 5;
  stats.stats.overloads = 99;
  responses.push_back(stats);
  WireResponse ack;
  ack.type = MsgType::kMutateAck;
  ack.ticket = 1234567890123LL;
  responses.push_back(ack);
  responses.push_back(Response(MsgType::kOverloaded));
  responses.push_back(Response(MsgType::kError, "no active user 7"));

  for (const WireResponse& response : responses) {
    const std::string frame = EncodeResponseFrame(response);
    ASSERT_EQ(PrefixOf(frame), frame.size() - 4)
        << MsgTypeName(response.type);
    const std::vector<uint8_t> body = Payload(frame);
    WireResponse decoded;
    std::string error;
    ASSERT_TRUE(DecodeResponse(body.data(), body.size(), &decoded, &error))
        << MsgTypeName(response.type) << ": " << error;
    EXPECT_EQ(decoded.type, response.type);
    EXPECT_EQ(decoded.ids, response.ids);
    EXPECT_EQ(decoded.scored, response.scored);
    EXPECT_EQ(decoded.ticket, response.ticket);
    EXPECT_EQ(decoded.message, response.message);
    if (response.type == MsgType::kStatsReply) {
      EXPECT_EQ(decoded.stats.epoch, response.stats.epoch);
      EXPECT_EQ(decoded.stats.applied_seq, response.stats.applied_seq);
      EXPECT_EQ(decoded.stats.pairs, response.stats.pairs);
      EXPECT_EQ(decoded.stats.active_events, response.stats.active_events);
      EXPECT_EQ(decoded.stats.active_users, response.stats.active_users);
      EXPECT_EQ(decoded.stats.event_slots, response.stats.event_slots);
      EXPECT_EQ(decoded.stats.user_slots, response.stats.user_slots);
      EXPECT_EQ(decoded.stats.max_sum, response.stats.max_sum);
      EXPECT_EQ(decoded.stats.queued, response.stats.queued);
      EXPECT_EQ(decoded.stats.overloads, response.stats.overloads);
    }
  }
}

TEST(Wire, ShardRequestsRoundTrip) {
  WireRequest candidates;
  candidates.type = MsgType::kCandidates;
  candidates.id = 128;
  candidates.k = 1024;
  WireRequest install;
  install.type = MsgType::kInstallArrangement;
  install.pairs = {{3, 0}, {1, 7}, {0, 2}};
  install.max_sum_bits = 0x400921FB54442D18ULL;  // π's bit pattern
  WireRequest shard_stats;
  shard_stats.type = MsgType::kShardStats;

  for (const WireRequest& request : {candidates, install, shard_stats}) {
    const std::string frame = EncodeRequestFrame(request);
    ASSERT_EQ(PrefixOf(frame), frame.size() - 4)
        << MsgTypeName(request.type);
    const std::vector<uint8_t> body = Payload(frame);
    WireRequest decoded;
    std::string error;
    ASSERT_TRUE(DecodeRequest(body.data(), body.size(), &decoded, &error))
        << MsgTypeName(request.type) << ": " << error;
    EXPECT_EQ(decoded.type, request.type);
    EXPECT_EQ(decoded.id, request.id) << MsgTypeName(request.type);
    EXPECT_EQ(decoded.k, request.k) << MsgTypeName(request.type);
    EXPECT_EQ(decoded.pairs, request.pairs) << MsgTypeName(request.type);
    EXPECT_EQ(decoded.max_sum_bits, request.max_sum_bits)
        << MsgTypeName(request.type);
  }
}

TEST(Wire, ShardResponsesRoundTrip) {
  WireResponse candidates;
  candidates.type = MsgType::kCandidateList;
  candidates.candidates = {{0, 3, 0.875}, {0, 1, 0.5}, {2, 0, 0.0625}};

  WireResponse topology;
  topology.type = MsgType::kShardStatsReply;
  ShardTopologyStats& ts = topology.shard_stats;
  ts.shard_count = 2;
  ts.repair_epoch = 17;
  ts.global_max_sum = 123.456;
  ts.repair_candidates = 900;
  ts.repair_admitted = 140;
  ts.repair_rejected_capacity = 700;
  ts.repair_rejected_conflict = 60;
  ts.cross_edge_rejects = 13;
  for (int shard = 0; shard < 2; ++shard) {
    ShardStatsEntry entry;
    entry.shard = shard;
    entry.stats.epoch = 100 + shard;
    entry.stats.applied_seq = 200 + shard;
    entry.stats.pairs = 70 + shard;
    entry.stats.max_sum = 61.75 + shard;
    entry.rpc_requests = 5000 + shard;
    entry.rpc_errors = shard;
    entry.rpc_p50_ms = 0.05;
    entry.rpc_p95_ms = 0.21;
    entry.rpc_p99_ms = 0.9;
    ts.shards.push_back(entry);
  }

  for (const WireResponse& response : {candidates, topology}) {
    const std::string frame = EncodeResponseFrame(response);
    ASSERT_EQ(PrefixOf(frame), frame.size() - 4)
        << MsgTypeName(response.type);
    const std::vector<uint8_t> body = Payload(frame);
    WireResponse decoded;
    std::string error;
    ASSERT_TRUE(DecodeResponse(body.data(), body.size(), &decoded, &error))
        << MsgTypeName(response.type) << ": " << error;
    EXPECT_EQ(decoded.type, response.type);
    EXPECT_EQ(decoded.candidates, response.candidates);
    const ShardTopologyStats& got = decoded.shard_stats;
    const ShardTopologyStats& want = response.shard_stats;
    EXPECT_EQ(got.shard_count, want.shard_count);
    EXPECT_EQ(got.repair_epoch, want.repair_epoch);
    EXPECT_EQ(got.global_max_sum, want.global_max_sum);
    EXPECT_EQ(got.repair_candidates, want.repair_candidates);
    EXPECT_EQ(got.repair_admitted, want.repair_admitted);
    EXPECT_EQ(got.repair_rejected_capacity, want.repair_rejected_capacity);
    EXPECT_EQ(got.repair_rejected_conflict, want.repair_rejected_conflict);
    EXPECT_EQ(got.cross_edge_rejects, want.cross_edge_rejects);
    ASSERT_EQ(got.shards.size(), want.shards.size());
    for (size_t i = 0; i < want.shards.size(); ++i) {
      EXPECT_EQ(got.shards[i].shard, want.shards[i].shard);
      EXPECT_EQ(got.shards[i].stats.epoch, want.shards[i].stats.epoch);
      EXPECT_EQ(got.shards[i].stats.pairs, want.shards[i].stats.pairs);
      EXPECT_EQ(got.shards[i].stats.max_sum, want.shards[i].stats.max_sum);
      EXPECT_EQ(got.shards[i].rpc_requests, want.shards[i].rpc_requests);
      EXPECT_EQ(got.shards[i].rpc_errors, want.shards[i].rpc_errors);
      EXPECT_EQ(got.shards[i].rpc_p50_ms, want.shards[i].rpc_p50_ms);
      EXPECT_EQ(got.shards[i].rpc_p95_ms, want.shards[i].rpc_p95_ms);
      EXPECT_EQ(got.shards[i].rpc_p99_ms, want.shards[i].rpc_p99_ms);
    }
  }
}

// Lower-case hex of every byte of `frame`.
std::string Hex(const std::string& frame) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : frame) {
    const auto byte = static_cast<uint8_t>(c);
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

// The stats fields' bytes on the wire, recorded before kStatsReply and
// kShardStatsReply shared one stats encoder: a round trip cannot see two
// fields swapped on both sides, these bytes can.
TEST(Wire, StatsRepliesKeepTheirBytes) {
  ServiceStatsView stats;
  stats.epoch = 0x0102;
  stats.applied_seq = 0x0304;
  stats.pairs = 0x0506;
  stats.active_events = 0x07;
  stats.active_users = 0x08;
  stats.event_slots = 0x09;
  stats.user_slots = 0x0a;
  stats.max_sum = 1.5;
  stats.queued = 0x0b;
  stats.overloads = 0x0c;

  WireResponse reply = Response(MsgType::kStatsReply);
  reply.stats = stats;
  EXPECT_EQ(Hex(EncodeResponseFrame(reply)),
            "3e00000001430201000000000000040300000000000006050000000000000700"
            "000008000000090000000a000000000000000000f83f0b0000000c0000000000"
            "0000");

  WireResponse topology = Response(MsgType::kShardStatsReply);
  ShardTopologyStats& ts = topology.shard_stats;
  ts.shard_count = 2;
  ts.repair_epoch = 0x11;
  ts.global_max_sum = 2.25;
  ts.repair_candidates = 0x12;
  ts.repair_admitted = 0x13;
  ts.repair_rejected_capacity = 0x14;
  ts.repair_rejected_conflict = 0x15;
  ts.cross_edge_rejects = 0x16;
  for (int shard = 0; shard < 2; ++shard) {
    ShardStatsEntry entry;
    entry.shard = shard;
    entry.stats = stats;
    entry.stats.epoch += 0x100 * shard;
    entry.rpc_requests = 0x21 + shard;
    entry.rpc_errors = 0x23 + shard;
    entry.rpc_p50_ms = 0.5;
    entry.rpc_p95_ms = 0.75;
    entry.rpc_p99_ms = 4.0;
    ts.shards.push_back(entry);
  }
  EXPECT_EQ(Hex(EncodeResponseFrame(topology)),
            "1201000001480200000011000000000000000000000000000240120000000000"
            "0000130000000000000014000000000000001500000000000000160000000000"
            "0000020000000000000002010000000000000403000000000000060500000000"
            "00000700000008000000090000000a000000000000000000f83f0b0000000c00"
            "00000000000021000000000000002300000000000000000000000000e03f0000"
            "00000000e83f0000000000001040010000000202000000000000040300000000"
            "000006050000000000000700000008000000090000000a000000000000000000"
            "f83f0b0000000c00000000000000220000000000000024000000000000000000"
            "00000000e03f000000000000e83f0000000000001040");
}

TEST(Wire, ShardFrameTruncationFailsCleanly) {
  WireRequest install;
  install.type = MsgType::kInstallArrangement;
  install.pairs = {{0, 0}, {5, 9}};
  install.max_sum_bits = 42;
  WireResponse candidates;
  candidates.type = MsgType::kCandidateList;
  candidates.candidates = {{1, 2, 0.75}};
  WireResponse topology;
  topology.type = MsgType::kShardStatsReply;
  topology.shard_stats.shard_count = 1;
  topology.shard_stats.shards.emplace_back();

  const std::vector<uint8_t> request_body = Payload(EncodeRequestFrame(install));
  for (size_t cut = 0; cut < request_body.size(); ++cut) {
    WireRequest decoded;
    EXPECT_FALSE(DecodeRequest(request_body.data(), cut, &decoded))
        << "install accepted a " << cut << "-byte prefix";
  }
  for (const WireResponse& response : {candidates, topology}) {
    const std::vector<uint8_t> body = Payload(EncodeResponseFrame(response));
    for (size_t cut = 0; cut < body.size(); ++cut) {
      WireResponse decoded;
      EXPECT_FALSE(DecodeResponse(body.data(), cut, &decoded))
          << MsgTypeName(response.type) << " accepted a " << cut
          << "-byte prefix";
    }
  }
}

TEST(Wire, HostilePairAndShardCountsCannotForceAllocation) {
  // An install claiming 2^29 pairs in a tiny body must fail before any
  // allocation sized by the claim; same for a shard-stats reply claiming
  // 2^20 shard entries.
  std::vector<uint8_t> install = {kWireVersion,
                                  static_cast<uint8_t>(
                                      MsgType::kInstallArrangement)};
  install.insert(install.end(), 8, 0);  // max_sum_bits
  const uint32_t claimed = 1u << 29;
  for (int i = 0; i < 4; ++i) {
    install.push_back(static_cast<uint8_t>((claimed >> (8 * i)) & 0xFF));
  }
  install.insert(install.end(), 16, 0);  // far fewer pairs than claimed
  WireRequest request;
  EXPECT_FALSE(DecodeRequest(install.data(), install.size(), &request));

  std::vector<uint8_t> stats = {kWireVersion,
                                static_cast<uint8_t>(MsgType::kShardStatsReply)};
  stats.insert(stats.end(), 60, 0);  // header zeros
  const uint32_t shards = 1u << 20;
  for (int i = 0; i < 4; ++i) {
    stats.push_back(static_cast<uint8_t>((shards >> (8 * i)) & 0xFF));
  }
  WireResponse response;
  EXPECT_FALSE(DecodeResponse(stats.data(), stats.size(), &response));
}

TEST(Wire, TruncationAtEveryByteFailsCleanly) {
  WireRequest mutate;
  mutate.type = MsgType::kMutate;
  mutate.payload = "set_event_capacity 4 12";
  WireResponse scored;
  scored.type = MsgType::kScoredList;
  scored.scored = {{1, 0.25}, {2, 0.75}};

  const std::vector<std::vector<uint8_t>> bodies = {
      Payload(EncodeRequestFrame(mutate)),
      Payload(EncodeRequestFrame(Request(MsgType::kTopK, 3, 10))),
      Payload(EncodeResponseFrame(scored)),
      Payload(EncodeResponseFrame(Response(MsgType::kError, "bad"))),
  };
  for (const std::vector<uint8_t>& body : bodies) {
    for (size_t cut = 0; cut < body.size(); ++cut) {
      WireRequest request;
      WireResponse response;
      EXPECT_FALSE(DecodeRequest(body.data(), cut, &request))
          << "request accepted a " << cut << "-byte prefix of "
          << body.size();
      EXPECT_FALSE(DecodeResponse(body.data(), cut, &response))
          << "response accepted a " << cut << "-byte prefix of "
          << body.size();
    }
  }
}

// The one length check behind both socket loops and the in-process
// transport: [2, kMaxFrameBytes] passes; anything else, or a prefix cut
// short, fails. The claimed length is reported either way.
TEST(Wire, FrameLengthMustLieWithinTheCap) {
  const auto prefix = [](uint32_t length) {
    return std::string(reinterpret_cast<const char*>(&length), 4);
  };
  uint32_t length = 0;
  for (const uint32_t good : {2u, 6u, kMaxFrameBytes}) {
    EXPECT_TRUE(ParseFrameLength(prefix(good), &length)) << good;
    EXPECT_EQ(length, good);
  }
  for (const uint32_t bad : {0u, 1u, kMaxFrameBytes + 1, 0xffffffffu}) {
    EXPECT_FALSE(ParseFrameLength(prefix(bad), &length)) << bad;
    EXPECT_EQ(length, bad);
  }
  EXPECT_FALSE(ParseFrameLength(prefix(2).substr(0, 3), &length));
  const std::string ping = EncodeRequestFrame(Request(MsgType::kPing));
  EXPECT_TRUE(ParseFrameLength(ping, &length));
  EXPECT_EQ(length, PrefixOf(ping));
}

TEST(Wire, TrailingBytesAreRejected) {
  for (std::vector<uint8_t> body :
       {Payload(EncodeRequestFrame(Request(MsgType::kPing))),
        Payload(EncodeRequestFrame(Request(MsgType::kGetAssignments, 1)))}) {
    body.push_back(0);
    WireRequest request;
    EXPECT_FALSE(DecodeRequest(body.data(), body.size(), &request));
  }
  std::vector<uint8_t> body =
      Payload(EncodeResponseFrame(Response(MsgType::kPong)));
  body.push_back(0xFF);
  WireResponse response;
  EXPECT_FALSE(DecodeResponse(body.data(), body.size(), &response));
}

TEST(Wire, BadVersionAndTypeAreRejected) {
  std::vector<uint8_t> body =
      Payload(EncodeRequestFrame(Request(MsgType::kPing)));
  ASSERT_GE(body.size(), 2u);

  std::vector<uint8_t> bad_version = body;
  bad_version[0] = kWireVersion + 1;
  WireRequest request;
  std::string error;
  EXPECT_FALSE(DecodeRequest(bad_version.data(), bad_version.size(),
                             &request, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Response types are not valid request types and vice versa; unknown
  // type bytes fail both.
  for (const uint8_t type : {0, 7, 63, 71, 200, 255}) {
    std::vector<uint8_t> bad_type = body;
    bad_type[1] = type;
    EXPECT_FALSE(DecodeRequest(bad_type.data(), bad_type.size(), &request))
        << "request type byte " << int{type};
  }
  std::vector<uint8_t> response_typed = body;
  response_typed[1] = static_cast<uint8_t>(MsgType::kPong);
  EXPECT_FALSE(
      DecodeRequest(response_typed.data(), response_typed.size(), &request));
  std::vector<uint8_t> request_typed = body;
  request_typed[1] = static_cast<uint8_t>(MsgType::kStats);
  WireResponse response;
  EXPECT_FALSE(
      DecodeResponse(request_typed.data(), request_typed.size(), &response));
}

TEST(Wire, HostileCountsCannotForceAllocation) {
  // An kIdList claiming 2^30 ids in a 16-byte body must fail before any
  // allocation sized by the claim.
  std::vector<uint8_t> body;
  body.push_back(kWireVersion);
  body.push_back(static_cast<uint8_t>(MsgType::kIdList));
  const uint32_t claimed = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<uint8_t>((claimed >> (8 * i)) & 0xFF));
  }
  body.insert(body.end(), 8, 0);  // far fewer bytes than claimed
  WireResponse response;
  EXPECT_FALSE(DecodeResponse(body.data(), body.size(), &response));

  std::vector<uint8_t> scored = {kWireVersion,
                                 static_cast<uint8_t>(MsgType::kScoredList),
                                 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(DecodeResponse(scored.data(), scored.size(), &response));

  // Same for a kMutate payload length and a kError message length.
  std::vector<uint8_t> mutate = {kWireVersion,
                                 static_cast<uint8_t>(MsgType::kMutate),
                                 0xFF, 0xFF, 0xFF, 0xFF, 'x'};
  WireRequest request;
  EXPECT_FALSE(DecodeRequest(mutate.data(), mutate.size(), &request));
}

TEST(Wire, SingleByteCorruptionNeverCrashes) {
  // Flip every byte of a moderately rich frame to 256 values and decode;
  // any outcome is fine except a crash or a false "ok" that misparses.
  WireResponse scored;
  scored.type = MsgType::kScoredList;
  for (int i = 0; i < 6; ++i) {
    scored.scored.push_back({i, 0.125 * i});
  }
  const std::vector<uint8_t> body = Payload(EncodeResponseFrame(scored));
  for (size_t pos = 0; pos < body.size(); ++pos) {
    for (int delta = 1; delta < 256; delta += 37) {
      std::vector<uint8_t> corrupt = body;
      corrupt[pos] = static_cast<uint8_t>(corrupt[pos] + delta);
      WireResponse out;
      (void)DecodeResponse(corrupt.data(), corrupt.size(), &out);
    }
  }
}

TEST(Wire, RandomGarbageNeverCrashes) {
  Rng rng(99);
  for (int round = 0; round < 2000; ++round) {
    const int size = static_cast<int>(rng.UniformInt(0, 64));
    std::vector<uint8_t> garbage(size);
    for (uint8_t& byte : garbage) {
      byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    WireRequest request;
    WireResponse response;
    (void)DecodeRequest(garbage.data(), garbage.size(), &request);
    (void)DecodeResponse(garbage.data(), garbage.size(), &response);
  }
}

}  // namespace
}  // namespace geacc::svc
