// Client bindings for the arrangement service (DESIGN.md §11): one
// request path, two transports.
//
// ServiceClient is the call surface a consumer programs against — ping,
// the three reads, stats, mutate, and the shard protocol. Each call
// encodes its svc/wire request frame, hands it to the transport, and
// decodes the reply, so both transports carry the same bytes and give the
// same answers:
//   - SocketClient writes the frame to a ServiceServer over TCP, one
//     synchronous request/response at a time.
//   - InProcessClient hands it, without a socket, to what a ServiceServer
//     runs on every frame (AnswerFrame + DispatchToService, svc/server.h):
//     the mutation pre-check against the published snapshot, the codec
//     and the kMaxFrameBytes cap included. An embedder that wants a read
//     as one atomic snapshot load calls ArrangementService directly.
//
// Status discipline: kOverloaded surfaces the service's backpressure on
// Mutate and InstallArrangement verbatim (retry or shed — the request was
// not accepted); kServerError is a well-formed kError reply (bad ids, a
// mutation that does not parse or validate — see last_error());
// kProtocolError means a frame was malformed or over the cap and
// kNetworkError that the transport failed — after either of those a
// SocketClient must be reconnected before reuse.
//
// Thread-safety: no client is thread-safe; give each thread its own
// (bench/loadgen does exactly that).

#ifndef GEACC_SVC_CLIENT_H_
#define GEACC_SVC_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dyn/mutation.h"
#include "svc/service.h"
#include "svc/snapshot.h"
#include "svc/wire.h"

namespace geacc::svc {

enum class RpcStatus {
  kOk = 0,
  kOverloaded,      // service queue full; mutation not accepted
  kServerError,     // server replied kError (see last_error())
  kProtocolError,   // malformed or over-cap frame; reconnect before reuse
  kNetworkError,    // connect/read/write failure; reconnect before reuse
};

const char* RpcStatusName(RpcStatus status);

class ServiceClient {
 public:
  virtual ~ServiceClient() = default;

  RpcStatus Ping();
  RpcStatus GetAssignments(UserId user, std::vector<EventId>* out);
  RpcStatus GetAttendees(EventId event, std::vector<UserId>* out);
  RpcStatus TopKEvents(UserId user, int k, std::vector<ScoredEvent>* out);
  RpcStatus GetStats(ServiceStatsView* out);

  // Submits `mutation`; on kOk, `*ticket` names it for read-your-writes:
  // poll GetStats() until applied_seq >= ticket (or, in process, use
  // ArrangementService::WaitForTicket).
  RpcStatus Mutate(const Mutation& mutation, int64_t* ticket);

  // ----- shard protocol (src/shard/, DESIGN.md §16) -----

  // Unfiltered scoring edges for users in [first_user, first_user +
  // user_count) of the server's slot space (clamped server-side).
  RpcStatus Candidates(UserId first_user, int user_count,
                       std::vector<ScoredCandidate>* out);

  // Replaces the server's arrangement with `pairs` (slot ids, admission
  // order) and `max_sum_bits` as the maintained sum; `*ticket` as Mutate.
  RpcStatus InstallArrangement(
      const std::vector<std::pair<EventId, UserId>>& pairs,
      uint64_t max_sum_bits, int64_t* ticket);

  // Coordinator-only: per-shard breakdown. A plain shard replies kError.
  RpcStatus GetShardStats(ShardTopologyStats* out);

  // Diagnostic for the most recent non-kOk result.
  const std::string& last_error() const { return last_error_; }

 protected:
  // The transport: carries one request frame (length prefix included)
  // and leaves the reply's body, the bytes after its length prefix, in
  // `reply_body`. A failure sets last_error_ and returns kNetworkError or
  // kProtocolError.
  virtual RpcStatus Exchange(const std::string& request_frame,
                             std::string* reply_body) = 0;

  // Called after a reply body that does not decode: a transport over a
  // byte stream drops it, since the stream cannot be resynchronized.
  virtual void DropConnection() {}

  std::string last_error_;

 private:
  // Encodes `request` (refused over the cap), exchanges it and decodes the
  // reply into `response`. kOk only for a reply of type `expected`.
  RpcStatus Call(const WireRequest& request, MsgType expected,
                 WireResponse* response);
};

// The in-process transport: every frame goes to the function a
// ServiceServer runs on it, without a socket. `service` must outlive the
// client.
class InProcessClient : public ServiceClient {
 public:
  explicit InProcessClient(ArrangementService* service) : service_(service) {}

 protected:
  RpcStatus Exchange(const std::string& request_frame,
                     std::string* reply_body) override;

 private:
  ArrangementService* service_;
};

// TCP transport against a ServiceServer. Connect() first; every call is
// one request frame + one response frame on the same socket.
class SocketClient : public ServiceClient {
 public:
  SocketClient() = default;
  ~SocketClient() override;

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  bool Connect(const std::string& host, int port,
               std::string* error = nullptr);
  bool connected() const { return fd_ >= 0; }
  void Disconnect();

 private:
  RpcStatus Exchange(const std::string& request_frame,
                     std::string* reply_body) override;
  void DropConnection() override { Disconnect(); }

  int fd_ = -1;
};

}  // namespace geacc::svc

#endif  // GEACC_SVC_CLIENT_H_
