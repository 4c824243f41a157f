// End-to-end over a real socket: a ServiceServer on an ephemeral loopback
// port must answer exactly what the in-process client answers, honor
// read-your-writes via MutateAck tickets + stats polling, reply kError
// (without dying) to bad arguments, and survive a peer that sends garbage
// frames.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "dyn/mutation.h"
#include "gen/synthetic.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/wire.h"

namespace geacc::svc {
namespace {

class SocketServiceTest : public testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_events = 10;
    config.num_users = 50;
    config.dim = 3;
    config.seed = 77;
    service_ = std::make_unique<ArrangementService>(GenerateSynthetic(config),
                                                    ServiceOptions{});
    server_ = std::make_unique<ServiceServer>(service_.get());
    std::string error;
    ASSERT_TRUE(server_->Start(0, &error)) << error;
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    service_->Stop();
  }

  // A raw loopback connection for speaking malformed bytes.
  int RawConnect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  std::unique_ptr<ArrangementService> service_;
  std::unique_ptr<ServiceServer> server_;
};

TEST_F(SocketServiceTest, ReadsMatchInProcessClient) {
  SocketClient socket_client;
  std::string error;
  ASSERT_TRUE(socket_client.Connect("127.0.0.1", server_->port(), &error))
      << error;
  InProcessClient local(service_.get());

  ASSERT_EQ(socket_client.Ping(), RpcStatus::kOk);

  for (UserId u = 0; u < 50; u += 9) {
    std::vector<EventId> remote, expected;
    ASSERT_EQ(socket_client.GetAssignments(u, &remote), RpcStatus::kOk);
    ASSERT_EQ(local.GetAssignments(u, &expected), RpcStatus::kOk);
    EXPECT_EQ(remote, expected) << "user " << u;

    std::vector<ScoredEvent> remote_top, expected_top;
    ASSERT_EQ(socket_client.TopKEvents(u, 4, &remote_top), RpcStatus::kOk);
    ASSERT_EQ(local.TopKEvents(u, 4, &expected_top), RpcStatus::kOk);
    EXPECT_EQ(remote_top, expected_top) << "user " << u;
  }
  for (EventId v = 0; v < 10; v += 3) {
    std::vector<UserId> remote, expected;
    ASSERT_EQ(socket_client.GetAttendees(v, &remote), RpcStatus::kOk);
    ASSERT_EQ(local.GetAttendees(v, &expected), RpcStatus::kOk);
    EXPECT_EQ(remote, expected) << "event " << v;
  }

  ServiceStatsView remote_stats, expected_stats;
  ASSERT_EQ(socket_client.GetStats(&remote_stats), RpcStatus::kOk);
  ASSERT_EQ(local.GetStats(&expected_stats), RpcStatus::kOk);
  EXPECT_EQ(remote_stats.epoch, expected_stats.epoch);
  EXPECT_EQ(remote_stats.pairs, expected_stats.pairs);
  EXPECT_EQ(remote_stats.max_sum, expected_stats.max_sum);
  EXPECT_EQ(remote_stats.active_users, expected_stats.active_users);
}

TEST_F(SocketServiceTest, MutateIsReadYourWritesAfterTicketApplies) {
  SocketClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));

  int64_t ticket = -1;
  ASSERT_EQ(client.Mutate(Mutation::SetUserCapacity(4, 3), &ticket),
            RpcStatus::kOk);
  ASSERT_GE(ticket, 1);

  // Read-your-writes protocol: poll stats until the ticket is applied.
  ServiceStatsView stats;
  for (int spin = 0; stats.applied_seq < ticket; ++spin) {
    ASSERT_LT(spin, 1000) << "ticket " << ticket << " never applied";
    ASSERT_EQ(client.GetStats(&stats), RpcStatus::kOk);
    if (stats.applied_seq < ticket) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(service_->snapshot()->user_capacity(4), 3);

  // An invalid mutation is a clean kServerError, and the connection
  // stays healthy.
  int64_t bad_ticket = -1;
  EXPECT_EQ(client.Mutate(Mutation::SetUserCapacity(9999, 2), &bad_ticket),
            RpcStatus::kServerError);
  EXPECT_FALSE(client.last_error().empty());
  EXPECT_EQ(client.Ping(), RpcStatus::kOk);
}

TEST_F(SocketServiceTest, BadArgumentsAreErrorsOnAHealthyConnection) {
  SocketClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));

  std::vector<EventId> events;
  EXPECT_EQ(client.GetAssignments(-1, &events), RpcStatus::kServerError);
  EXPECT_EQ(client.GetAssignments(100000, &events), RpcStatus::kServerError);
  std::vector<ScoredEvent> top;
  EXPECT_EQ(client.TopKEvents(0, -5, &top), RpcStatus::kServerError);
  // Still healthy after three rejected calls.
  EXPECT_EQ(client.Ping(), RpcStatus::kOk);
  EXPECT_EQ(client.GetAssignments(0, &events), RpcStatus::kOk);
}

// Both transports carry the same frames to the same dispatcher, so each
// refused request gets the same status and diagnostic either way — the
// server's mutation pre-check and the mutation's text codec included.
TEST_F(SocketServiceTest, InProcessAndSocketClientsAnswerAlike) {
  SocketClient socket_client;
  ASSERT_TRUE(socket_client.Connect("127.0.0.1", server_->port()));
  InProcessClient local(service_.get());

  std::vector<EventId> ids;
  std::vector<ScoredEvent> scored;
  std::vector<ScoredCandidate> candidates;
  ShardTopologyStats topology;
  int64_t ticket = -1;
  const struct {
    const char* name;
    std::function<RpcStatus(ServiceClient&)> send;
  } requests[] = {
      {"GetAssignments(100000)",
       [&](ServiceClient& c) { return c.GetAssignments(100000, &ids); }},
      {"TopKEvents(0, -5)",
       [&](ServiceClient& c) { return c.TopKEvents(0, -5, &scored); }},
      {"Candidates(-1, 3)",
       [&](ServiceClient& c) { return c.Candidates(-1, 3, &candidates); }},
      {"GetShardStats on a plain shard",
       [&](ServiceClient& c) { return c.GetShardStats(&topology); }},
      {"Mutate(SetUserCapacity(9999, 2))",
       [&](ServiceClient& c) {
         return c.Mutate(Mutation::SetUserCapacity(9999, 2), &ticket);
       }},
      {"1-attribute AddUser at dim 3",
       [&](ServiceClient& c) {
         return c.Mutate(Mutation::AddUser({0.5}, 1), &ticket);
       }},
  };
  for (const auto& request : requests) {
    SCOPED_TRACE(request.name);
    const RpcStatus over_socket = request.send(socket_client);
    const RpcStatus in_process = request.send(local);
    EXPECT_STREQ(RpcStatusName(over_socket), "server_error");
    EXPECT_STREQ(RpcStatusName(in_process), RpcStatusName(over_socket));
    EXPECT_EQ(local.last_error(), socket_client.last_error());
  }
}

// A kCandidates page whose reply would pass the 1 MiB frame cap is
// refused by the server with kError, over either transport, and the
// socket stays usable. 100 events × 1,000 users hold more positive edges
// than kMaxCandidatesPerFrame; a page sized as the coordinator sizes it
// still fits.
TEST(ServiceCandidateCap, OverCapPageIsTheSameServerErrorOnBothClients) {
  SyntheticConfig config;
  config.num_events = 100;
  config.num_users = 1000;
  config.dim = 3;
  config.seed = 5;
  ArrangementService service(GenerateSynthetic(config), ServiceOptions{});
  ServiceServer server(&service);
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  SocketClient socket_client;
  ASSERT_TRUE(socket_client.Connect("127.0.0.1", server.port(), &error))
      << error;
  InProcessClient local(&service);

  std::vector<ScoredCandidate> page;
  const RpcStatus over_socket = socket_client.Candidates(0, 1000, &page);
  const RpcStatus in_process = local.Candidates(0, 1000, &page);
  EXPECT_STREQ(RpcStatusName(over_socket), "server_error");
  EXPECT_STREQ(RpcStatusName(in_process), "server_error");
  EXPECT_EQ(local.last_error(), socket_client.last_error());
  EXPECT_NE(socket_client.last_error().find("more than"), std::string::npos)
      << socket_client.last_error();
  EXPECT_TRUE(socket_client.connected());
  EXPECT_EQ(socket_client.Ping(), RpcStatus::kOk);

  const int page_users = kMaxCandidatesPerFrame / config.num_events;
  ASSERT_EQ(socket_client.Candidates(0, page_users, &page), RpcStatus::kOk);
  EXPECT_GT(page.size(), 0u);
  EXPECT_LE(page.size(), static_cast<size_t>(kMaxCandidatesPerFrame));
  server.Stop();
  service.Stop();
}

TEST_F(SocketServiceTest, GarbageFramesDoNotKillTheServer) {
  // Oversized length prefix.
  {
    const int fd = RawConnect();
    uint32_t huge = (1u << 20) + 1;
    ASSERT_EQ(::send(fd, &huge, 4, MSG_NOSIGNAL), 4);
    char byte;
    EXPECT_GE(::recv(fd, &byte, 1, 0), 0);  // kError or clean close
    ::close(fd);
  }
  // Valid length, garbage body.
  {
    const int fd = RawConnect();
    const uint32_t length = 6;
    std::string frame(reinterpret_cast<const char*>(&length), 4);
    frame += std::string("\xFF\xFF\xFF\xFF\xFF\xFF", 6);
    ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    char byte;
    EXPECT_GE(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);
  }
  // Half a frame, then hang up mid-message.
  {
    const int fd = RawConnect();
    const uint32_t length = 100;
    ASSERT_EQ(::send(fd, &length, 4, MSG_NOSIGNAL), 4);
    ASSERT_EQ(::send(fd, "abc", 3, MSG_NOSIGNAL), 3);
    ::close(fd);
  }

  // After all that abuse a fresh client still gets full service.
  SocketClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  EXPECT_EQ(client.Ping(), RpcStatus::kOk);
  std::vector<EventId> events;
  EXPECT_EQ(client.GetAssignments(0, &events), RpcStatus::kOk);
}

TEST_F(SocketServiceTest, ConcurrentSocketClientsSeeConsistentSnapshots) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      SocketClient client;
      if (!client.Connect("127.0.0.1", server_->port())) {
        ++failures;
        return;
      }
      for (int round = 0; round < 50; ++round) {
        const UserId u = (t * 13 + round) % 50;
        std::vector<EventId> events;
        if (client.GetAssignments(u, &events) != RpcStatus::kOk) {
          ++failures;
          return;
        }
        for (const EventId v : events) {
          std::vector<UserId> attendees;
          if (client.GetAttendees(v, &attendees) != RpcStatus::kOk ||
              std::find(attendees.begin(), attendees.end(), u) ==
                  attendees.end()) {
            ++failures;  // reverse edge must exist: no mutations in flight
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace geacc::svc
