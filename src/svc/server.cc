#include "svc/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "io/trace_io.h"
#include "obs/stats.h"
#include "util/string_util.h"

namespace geacc::svc {
namespace {

bool SendResponse(int fd, const WireResponse& response) {
  return WriteFull(fd, EncodeResponseFrame(response));
}

WireResponse ErrorResponse(std::string message) {
  WireResponse response;
  response.type = MsgType::kError;
  response.message = std::move(message);
  return response;
}

}  // namespace

WireServer::WireServer(Dispatcher dispatcher)
    : WireServer(std::move(dispatcher), Options()) {}

WireServer::WireServer(Dispatcher dispatcher, Options options)
    : dispatcher_(std::move(dispatcher)), options_(options) {}

WireServer::~WireServer() { Stop(); }

bool WireServer::Start(int port, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail(StrFormat("bind 127.0.0.1:%d", port));
  }
  if (listen(listen_fd_, SOMAXCONN) < 0) return fail("listen");

  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) <
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return true;
}

void WireServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    for (const int fd : connection_fds_) {
      if (fd >= 0) shutdown(fd, SHUT_RDWR);
    }
  }
  // The shutdown wakes accept(); the fd is closed only once the accept
  // thread is gone, so its number cannot be reused under a live accept().
  if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (std::thread& thread : connection_threads_) {
    if (thread.joinable()) thread.join();
  }
}

void WireServer::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or fatal — either way we're done
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::thread finished;  // joined outside the lock
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        close(fd);
        return;
      }
      // Reclaim a finished slot (its ConnectionLoop set the fd to -1) so
      // a long-lived server doesn't accrete one dead thread per client.
      size_t slot = connection_fds_.size();
      for (size_t i = 0; i < connection_fds_.size(); ++i) {
        if (connection_fds_[i] < 0) {
          slot = i;
          break;
        }
      }
      int live = 0;
      for (const int conn_fd : connection_fds_) {
        if (conn_fd >= 0) ++live;
      }
      if (options_.max_connections > 0 && live >= options_.max_connections) {
        // Full house: refuse with a clean, parseable frame instead of
        // spawning an unbounded thread. The client sees kOverloaded and
        // retries or sheds, exactly as it would for queue backpressure.
        GEACC_STATS_ADD("svc.net.overloaded_conns", 1);
        WireResponse overloaded;
        overloaded.type = MsgType::kOverloaded;
        SendResponse(fd, overloaded);
        close(fd);
        continue;
      }
      if (slot < connection_fds_.size()) {
        finished = std::move(connection_threads_[slot]);
        connection_fds_[slot] = fd;
        connection_threads_[slot] =
            std::thread([this, slot, fd] { ConnectionLoop(slot, fd); });
      } else {
        connection_fds_.push_back(fd);
        connection_threads_.emplace_back(
            [this, slot, fd] { ConnectionLoop(slot, fd); });
      }
    }
    if (finished.joinable()) finished.join();
  }
}

void WireServer::ConnectionLoop(size_t slot, int fd) {
  std::string body;
  uint32_t length = 0;
  for (;;) {
    const FrameRead read = ReadFrame(fd, &body, &length);
    if (read == FrameRead::kBadLength) {
      GEACC_STATS_ADD("svc.net.protocol_errors", 1);
      SendResponse(fd, ErrorResponse(StrFormat(
                           "frame length %u out of range",
                           static_cast<unsigned>(length))));
      break;
    }
    if (read != FrameRead::kOk || !HandleFrame(body, fd)) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  close(fd);
  connection_fds_[slot] = -1;
}

bool WireServer::HandleFrame(const std::string& frame_body, int fd) {
  GEACC_STATS_ADD("svc.net.requests", 1);
  std::string reply;
  const bool decoded = AnswerFrame(frame_body, dispatcher_, &reply);
  if (!decoded) GEACC_STATS_ADD("svc.net.protocol_errors", 1);
  // A frame that does not decode gets its kError reply, then the
  // connection closes: the byte stream can no longer be trusted.
  return WriteFull(fd, reply) && decoded;
}

bool AnswerFrame(std::string_view request_body,
                 const WireServer::Dispatcher& dispatcher,
                 std::string* reply_frame) {
  WireRequest request;
  std::string decode_error;
  if (!DecodeRequest(reinterpret_cast<const uint8_t*>(request_body.data()),
                     request_body.size(), &request, &decode_error)) {
    *reply_frame = EncodeResponseFrame(ErrorResponse("bad frame: " +
                                                     decode_error));
    return false;
  }
  *reply_frame = EncodeResponseFrame(dispatcher(request));
  return true;
}

ServiceServer::ServiceServer(ArrangementService* service,
                             WireServer::Options options)
    : server_(
          [service](const WireRequest& request) {
            return DispatchToService(service, request);
          },
          options) {}

WireResponse DispatchToService(ArrangementService* service,
                               const WireRequest& request) {
  WireResponse response;
  switch (request.type) {
    case MsgType::kPing:
      response.type = MsgType::kPong;
      return response;
    case MsgType::kGetAssignments: {
      if (service->GetAssignments(request.id, &response.ids) !=
          SvcStatus::kOk) {
        return ErrorResponse(StrFormat("user id %d out of range",
                                       request.id));
      }
      response.type = MsgType::kIdList;
      return response;
    }
    case MsgType::kGetAttendees: {
      if (service->GetAttendees(request.id, &response.ids) !=
          SvcStatus::kOk) {
        return ErrorResponse(StrFormat("event id %d out of range",
                                       request.id));
      }
      response.type = MsgType::kIdList;
      return response;
    }
    case MsgType::kTopK: {
      if (service->TopKEvents(request.id, request.k, &response.scored) !=
          SvcStatus::kOk) {
        return ErrorResponse(StrFormat("bad top-k query (user %d, k %d)",
                                       request.id, request.k));
      }
      response.type = MsgType::kScoredList;
      return response;
    }
    case MsgType::kStats:
      response.type = MsgType::kStatsReply;
      response.stats = service->Stats();
      return response;
    case MsgType::kMutate: {
      std::string parse_error;
      const std::shared_ptr<const ServiceSnapshot> snap =
          service->snapshot();
      std::optional<Mutation> mutation = ParseMutationLine(
          request.payload, snap->instance().dim(), &parse_error);
      if (!mutation) {
        return ErrorResponse("bad mutation: " + parse_error);
      }
      // Best-effort admission check against the current snapshot, so a
      // wire client learns about obvious garbage (dead ids, bad arity)
      // synchronously — the writer still re-validates at apply time.
      const std::string problem =
          ValidateMutation(snap->instance(), *mutation);
      if (!problem.empty()) {
        return ErrorResponse("bad mutation: " + problem);
      }
      const SubmitResult result = service->Submit(std::move(*mutation));
      switch (result.status) {
        case SvcStatus::kOk:
          response.type = MsgType::kMutateAck;
          response.ticket = result.ticket;
          return response;
        case SvcStatus::kOverloaded:
          response.type = MsgType::kOverloaded;
          return response;
        default:
          return ErrorResponse(std::string("submit failed: ") +
                               SvcStatusName(result.status));
      }
    }
    case MsgType::kCandidates: {
      // Scoring stops one edge past the frame cap: a page that large is
      // refused here, not built and sent for the client to refuse.
      if (service->Candidates(request.id, request.k, kMaxCandidatesPerFrame,
                              &response.candidates) != SvcStatus::kOk) {
        return ErrorResponse(StrFormat(
            "bad candidates query (first %d, count %d)", request.id,
            request.k));
      }
      if (response.candidates.size() >
          static_cast<size_t>(kMaxCandidatesPerFrame)) {
        return ErrorResponse(StrFormat(
            "candidates page (first %d, count %d) holds more than %d edges",
            request.id, request.k, kMaxCandidatesPerFrame));
      }
      response.type = MsgType::kCandidateList;
      return response;
    }
    case MsgType::kInstallArrangement: {
      const SubmitResult result =
          service->SubmitInstall(request.pairs, request.max_sum_bits);
      switch (result.status) {
        case SvcStatus::kOk:
          response.type = MsgType::kMutateAck;
          response.ticket = result.ticket;
          return response;
        case SvcStatus::kOverloaded:
          response.type = MsgType::kOverloaded;
          return response;
        default:
          return ErrorResponse(std::string("install failed: ") +
                               SvcStatusName(result.status));
      }
    }
    case MsgType::kShardStats:
      return ErrorResponse("shard stats: not a coordinator");
    default:
      return ErrorResponse("unexpected message type");
  }
}

}  // namespace geacc::svc
