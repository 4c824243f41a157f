// Service quickstart: embed the arrangement service in-process.
//
// Spins up an ArrangementService over a synthetic instance, reads through
// the InProcessClient, streams a burst of mutations with read-your-writes
// (WaitForTicket), and fans a top-k recommendation sweep across the
// thread pool — all against immutable snapshots while the writer batches
// in the background. The TCP flavor of the same API is `geacc_serve` +
// `SocketClient` (see bench/loadgen.cc).
//
//   ./build/examples/service_quickstart

#include <cstdio>
#include <vector>

#include "gen/synthetic.h"
#include "svc/client.h"
#include "svc/service.h"

int main() {
  using geacc::svc::ArrangementService;

  // A small EBSN: 40 events, 800 users, 8-d attribute space.
  geacc::SyntheticConfig config;
  config.num_events = 40;
  config.num_users = 800;
  config.dim = 8;
  config.conflict_density = 0.2;
  config.seed = 42;

  geacc::svc::ServiceOptions options;
  options.batch_size = 32;  // one snapshot per ≤32 applied mutations
  ArrangementService service(geacc::GenerateSynthetic(config), options);
  geacc::svc::InProcessClient client(&service);

  geacc::svc::ServiceStatsView stats;
  client.GetStats(&stats);
  std::printf("serving |V|=%d |U|=%d  pairs=%lld  MaxSum=%.2f\n",
              stats.active_events, stats.active_users,
              static_cast<long long>(stats.pairs), stats.max_sum);

  // The client speaks the wire protocol without a socket: the frames,
  // checks and answers of a SocketClient. Underneath, a read copies the
  // published snapshot pointer — any thread, never waiting for a batch;
  // service.GetAssignments does that without the codec.
  std::vector<geacc::EventId> events;
  client.GetAssignments(/*user=*/7, &events);
  std::printf("user 7 attends %zu events:", events.size());
  for (const geacc::EventId v : events) std::printf(" v%d", v);
  std::printf("\n");

  // Mutations are asynchronous: Submit returns a ticket, WaitForTicket
  // blocks until the batch holding it is applied *and* published.
  geacc::svc::SubmitResult last{};
  for (int i = 0; i < 100; ++i) {
    last = service.Submit(
        geacc::Mutation::SetUserCapacity(i % 800, 1 + i % 3));
  }
  service.WaitForTicket(last.ticket);
  client.GetStats(&stats);
  std::printf("after 100 mutations: epoch=%lld MaxSum=%.2f\n",
              static_cast<long long>(stats.epoch), stats.max_sum);

  // Top-k recommendations for a cohort, fanned over 4 pool lanes against
  // one frozen snapshot (deterministic at any thread count).
  const auto snapshot = service.snapshot();
  std::vector<geacc::UserId> cohort;
  for (geacc::UserId u = 0; u < 8; ++u) cohort.push_back(u * 100);
  const auto recs = snapshot->TopKEventsBatch(cohort, /*k=*/3, /*threads=*/4);
  for (size_t i = 0; i < cohort.size(); ++i) {
    std::printf("user %-4d top-3:", cohort[i]);
    for (const auto& [event, similarity] : recs[i]) {
      std::printf(" v%d(%.3f)", event, similarity);
    }
    std::printf("\n");
  }

  service.Stop();
  return 0;
}
