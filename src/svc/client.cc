#include "svc/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "io/trace_io.h"
#include "svc/server.h"
#include "util/string_util.h"

namespace geacc::svc {

const char* RpcStatusName(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk:
      return "ok";
    case RpcStatus::kOverloaded:
      return "overloaded";
    case RpcStatus::kServerError:
      return "server_error";
    case RpcStatus::kProtocolError:
      return "protocol_error";
    case RpcStatus::kNetworkError:
      return "network_error";
  }
  return "unknown";
}

// ----- ServiceClient: the nine requests, once -----

RpcStatus ServiceClient::Call(const WireRequest& request, MsgType expected,
                              WireResponse* response) {
  const std::string frame = EncodeRequestFrame(request);
  if (frame.size() > kMaxFrameBytes + 4) {
    last_error_ = StrFormat("request frame of %zu bytes exceeds the %u-byte "
                            "wire cap", frame.size(),
                            static_cast<unsigned>(kMaxFrameBytes));
    return RpcStatus::kProtocolError;
  }
  std::string body;
  const RpcStatus status = Exchange(frame, &body);
  if (status != RpcStatus::kOk) return status;
  std::string decode_error;
  if (!DecodeResponse(reinterpret_cast<const uint8_t*>(body.data()),
                      body.size(), response, &decode_error)) {
    last_error_ = "bad reply: " + decode_error;
    DropConnection();
    return RpcStatus::kProtocolError;
  }
  if (response->type == expected) return RpcStatus::kOk;
  if (response->type == MsgType::kError) {
    last_error_ = response->message;
    return RpcStatus::kServerError;
  }
  // Backpressure is an answer only to a write: Mutate and
  // InstallArrangement both expect a kMutateAck.
  if (response->type == MsgType::kOverloaded &&
      expected == MsgType::kMutateAck) {
    last_error_ = "service overloaded";
    return RpcStatus::kOverloaded;
  }
  last_error_ =
      StrFormat("unexpected reply type %s", MsgTypeName(response->type));
  return RpcStatus::kProtocolError;
}

RpcStatus ServiceClient::Ping() {
  WireResponse response;
  return Call({.type = MsgType::kPing}, MsgType::kPong, &response);
}

RpcStatus ServiceClient::GetAssignments(UserId user,
                                        std::vector<EventId>* out) {
  WireResponse response;
  const RpcStatus status =
      Call({.type = MsgType::kGetAssignments, .id = user}, MsgType::kIdList,
           &response);
  if (status == RpcStatus::kOk) *out = std::move(response.ids);
  return status;
}

RpcStatus ServiceClient::GetAttendees(EventId event,
                                      std::vector<UserId>* out) {
  WireResponse response;
  const RpcStatus status =
      Call({.type = MsgType::kGetAttendees, .id = event}, MsgType::kIdList,
           &response);
  if (status == RpcStatus::kOk) *out = std::move(response.ids);
  return status;
}

RpcStatus ServiceClient::TopKEvents(UserId user, int k,
                                    std::vector<ScoredEvent>* out) {
  WireResponse response;
  const RpcStatus status =
      Call({.type = MsgType::kTopK, .id = user, .k = k},
           MsgType::kScoredList, &response);
  if (status == RpcStatus::kOk) *out = std::move(response.scored);
  return status;
}

RpcStatus ServiceClient::GetStats(ServiceStatsView* out) {
  WireResponse response;
  const RpcStatus status =
      Call({.type = MsgType::kStats}, MsgType::kStatsReply, &response);
  if (status == RpcStatus::kOk) *out = response.stats;
  return status;
}

RpcStatus ServiceClient::Mutate(const Mutation& mutation, int64_t* ticket) {
  WireResponse response;
  const RpcStatus status =
      Call({.type = MsgType::kMutate, .payload = FormatMutationLine(mutation)},
           MsgType::kMutateAck, &response);
  if (status == RpcStatus::kOk && ticket != nullptr) *ticket = response.ticket;
  return status;
}

RpcStatus ServiceClient::Candidates(UserId first_user, int user_count,
                                    std::vector<ScoredCandidate>* out) {
  WireResponse response;
  const RpcStatus status =
      Call({.type = MsgType::kCandidates, .id = first_user, .k = user_count},
           MsgType::kCandidateList, &response);
  if (status == RpcStatus::kOk) *out = std::move(response.candidates);
  return status;
}

RpcStatus ServiceClient::InstallArrangement(
    const std::vector<std::pair<EventId, UserId>>& pairs,
    uint64_t max_sum_bits, int64_t* ticket) {
  WireResponse response;
  const RpcStatus status = Call({.type = MsgType::kInstallArrangement,
                                 .pairs = pairs,
                                 .max_sum_bits = max_sum_bits},
                                MsgType::kMutateAck, &response);
  if (status == RpcStatus::kOk && ticket != nullptr) *ticket = response.ticket;
  return status;
}

RpcStatus ServiceClient::GetShardStats(ShardTopologyStats* out) {
  WireResponse response;
  const RpcStatus status =
      Call({.type = MsgType::kShardStats}, MsgType::kShardStatsReply,
           &response);
  if (status == RpcStatus::kOk) *out = std::move(response.shard_stats);
  return status;
}

// ----- InProcessClient -----

RpcStatus InProcessClient::Exchange(const std::string& request_frame,
                                    std::string* reply_body) {
  // Call() capped the request, so its prefix is in range: answer the body
  // as a ServiceServer connection would, then hold the reply to the same
  // cap SocketClient reads it under.
  std::string reply;
  AnswerFrame(std::string_view(request_frame).substr(4),
              [this](const WireRequest& request) {
                return DispatchToService(service_, request);
              },
              &reply);
  uint32_t length = 0;
  if (!ParseFrameLength(reply, &length)) {
    last_error_ = StrFormat("reply frame length %u out of range",
                            static_cast<unsigned>(length));
    return RpcStatus::kProtocolError;
  }
  reply.erase(0, 4);
  *reply_body = std::move(reply);
  return RpcStatus::kOk;
}

// ----- SocketClient -----

SocketClient::~SocketClient() { Disconnect(); }

void SocketClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

bool SocketClient::Connect(const std::string& host, int port,
                           std::string* error) {
  Disconnect();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port_str = StrFormat("%d", port);
  const int rc = getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result);
  if (rc != 0) {
    if (error != nullptr) {
      *error = StrFormat("resolve %s: %s", host.c_str(), gai_strerror(rc));
    }
    return false;
  }
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    const int fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fd_ = fd;
      break;
    }
    close(fd);
  }
  freeaddrinfo(result);
  if (fd_ < 0) {
    if (error != nullptr) {
      *error = StrFormat("connect %s:%d: %s", host.c_str(), port,
                         std::strerror(errno));
    }
    return false;
  }
  return true;
}

RpcStatus SocketClient::Exchange(const std::string& request_frame,
                                 std::string* reply_body) {
  if (fd_ < 0) {
    last_error_ = "not connected";
    return RpcStatus::kNetworkError;
  }
  if (!WriteFull(fd_, request_frame)) {
    last_error_ = "write failed";
    Disconnect();
    return RpcStatus::kNetworkError;
  }
  uint32_t length = 0;
  switch (ReadFrame(fd_, reply_body, &length)) {
    case FrameRead::kOk:
      return RpcStatus::kOk;
    case FrameRead::kClosed:
      last_error_ = "read failed";
      Disconnect();
      return RpcStatus::kNetworkError;
    case FrameRead::kBadLength:
      break;
  }
  last_error_ = StrFormat("reply frame length %u out of range",
                          static_cast<unsigned>(length));
  Disconnect();
  return RpcStatus::kProtocolError;
}

}  // namespace geacc::svc
