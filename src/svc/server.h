// TCP front-ends speaking the svc/wire framing (DESIGN.md §11, §16).
//
// WireServer is the transport half: it listens on 127.0.0.1 (loopback
// only — exposing an arrangement store beyond the host is a deployment
// decision, not a library default), runs one accept thread and one thread
// per connection, and hands every well-framed request to a caller-supplied
// dispatcher, synchronously, one request/response per frame. That model
// is deliberately simple — the service underneath is the concurrent part
// (snapshot reads that never wait for a batch, single writer), so
// connection threads spend their time in decode/dispatch/encode and never
// block each other.
//
// Admission control: live connections are capped (Options::max_connections)
// because a loadgen fleet can otherwise spawn one thread per socket
// without bound. An over-limit connect is
// answered with a single kOverloaded frame and closed — a clean, parseable
// refusal the client maps to RpcStatus::kOverloaded — and finished
// connection slots are reclaimed for new peers.
//
// Protocol discipline: a malformed frame (bad length, version, type, or
// body) gets one kError reply when possible, then the connection is
// closed — a peer that cannot frame correctly cannot be resynchronized.
// Valid requests never close the connection; invalid *arguments* (bad
// ids, unparsable mutation lines) are kError replies on a healthy
// connection. Counters: svc.net.requests, svc.net.protocol_errors,
// svc.net.overloaded_conns.
//
// DispatchToService is the one mapping of wire requests onto an
// ArrangementService. ServiceServer serves it over TCP — the single-node
// (or single-shard) deployment — and InProcessClient (svc/client.h) sends
// it the same frames without a socket. The shard coordinator
// (src/shard/coordinator.h) answers its reads with it too, from its own
// read view, and handles only writes and the shard operations itself.
//
// Thread-safety: Start/Stop from one controlling thread; Stop() (or the
// destructor) shuts down the listener and every live connection, then
// joins all threads. The dispatcher runs on connection threads and must
// be thread-safe. The ArrangementService must outlive the server.

#ifndef GEACC_SVC_SERVER_H_
#define GEACC_SVC_SERVER_H_

#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svc/service.h"
#include "svc/wire.h"

namespace geacc::svc {

class WireServer {
 public:
  // Maps one decoded request to its response; called concurrently from
  // connection threads.
  using Dispatcher = std::function<WireResponse(const WireRequest&)>;

  struct Options {
    // Live-connection cap; connects past it get one kOverloaded frame and
    // an immediate close. 0 means unlimited (tests only).
    int max_connections = 256;
  };

  explicit WireServer(Dispatcher dispatcher);
  WireServer(Dispatcher dispatcher, Options options);
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  // Binds 127.0.0.1:`port` (0 picks an ephemeral port — read it back via
  // port()) and starts accepting. False with a diagnostic on bind/listen
  // failure.
  bool Start(int port, std::string* error = nullptr);

  // The bound port; valid after a successful Start().
  int port() const { return port_; }

  // Stops accepting, tears down live connections, joins every thread.
  // Idempotent.
  void Stop();

 private:
  // Accepts on `listen_fd` until Stop() shuts it down; Stop() closes it
  // after joining this loop.
  void AcceptLoop(int listen_fd);
  void ConnectionLoop(size_t slot, int fd);
  // One request in, one response out (AnswerFrame). False ⇒ close the
  // connection.
  bool HandleFrame(const std::string& frame_body, int fd);

  Dispatcher dispatcher_;
  Options options_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread accept_thread_;

  std::mutex mu_;
  bool stopping_ = false;
  std::vector<int> connection_fds_;  // -1 once its thread finished
  std::vector<std::thread> connection_threads_;
};

// Decodes one request frame body (the bytes after the length prefix),
// runs `dispatcher` on it and leaves the encoded reply frame in
// `reply_frame`. A body that does not decode is answered with a kError
// frame and returns false: a peer that cannot frame correctly cannot be
// resynchronized.
bool AnswerFrame(std::string_view request_body,
                 const WireServer::Dispatcher& dispatcher,
                 std::string* reply_frame);

// Answers `request` from `service`. Bad arguments (ids out of range, a
// mutation that does not parse or fails ValidateMutation against the
// published snapshot's instance) are kError replies; a full queue is
// kOverloaded.
WireResponse DispatchToService(ArrangementService* service,
                               const WireRequest& request);

class ServiceServer {
 public:
  // `service` must outlive the server.
  explicit ServiceServer(ArrangementService* service,
                         WireServer::Options options = {});

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  bool Start(int port, std::string* error = nullptr) {
    return server_.Start(port, error);
  }
  int port() const { return server_.port(); }
  void Stop() { server_.Stop(); }

 private:
  WireServer server_;
};

}  // namespace geacc::svc

#endif  // GEACC_SVC_SERVER_H_
