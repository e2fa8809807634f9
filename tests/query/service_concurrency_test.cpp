// Concurrency soak for the NodeService scheduler: dozens of overlapping
// queries over a lossy 7-node in-process cluster must all complete, match
// a faultless sequential re-run bit-for-bit, and keep their traces
// isolated.  Also pins the admission-queue backpressure contract and the
// deterministic stop() drain (labels: soak;slow - see tests/CMakeLists.txt).

#include "query/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "data/generator.hpp"
#include "net/fault.hpp"
#include "net/inproc.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kNodes = 7;
constexpr std::size_t kQueries = 36;

std::vector<data::PrivateDatabase> makeFleet() {
  data::FleetSpec spec;
  spec.nodes = kNodes;
  spec.rowsPerNode = 12;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(4242);
  return data::generateFleet(spec, rng);
}

std::vector<NodeId> ringFrom(NodeId initiator, std::size_t n) {
  std::vector<NodeId> ring(n);
  std::iota(ring.begin(), ring.end(), NodeId{0});
  std::rotate(ring.begin(), ring.begin() + initiator, ring.end());
  return ring;
}

/// The soak workload: query q cycles TopK / Max / Sum with initiator
/// q % kNodes.  Naive kind keeps ring results independent of protocol
/// randomness, so a re-run on any seeds must agree exactly.
QueryDescriptor soakDescriptor(std::size_t q) {
  QueryDescriptor d;
  d.queryId = 1000 + q;
  d.kind = protocol::ProtocolKind::Naive;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.rounds = 4;
  switch (q % 3) {
    case 0:
      d.type = QueryType::TopK;
      d.params.k = 3;
      break;
    case 1:
      d.type = QueryType::Max;
      d.params.k = 1;
      break;
    default:
      d.type = QueryType::Sum;
      break;
  }
  return d;
}

struct SoakCluster {
  std::vector<data::PrivateDatabase> dbs = makeFleet();
  net::InProcTransport inner{kNodes};
  std::unique_ptr<net::FaultInjectingTransport> faulty;
  std::vector<std::unique_ptr<NodeService>> services;

  explicit SoakCluster(const std::string& faultSpec, ServiceOptions options) {
    faulty = std::make_unique<net::FaultInjectingTransport>(
        inner, net::FaultSpec::parse(faultSpec));
    for (std::size_t i = 0; i < kNodes; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], *faulty, 7000 + i, options));
      services.back()->start();
    }
  }

  ~SoakCluster() {
    for (auto& s : services) s->stop();
    faulty->shutdown();
  }
};

TEST(ServiceConcurrencySoak, OverlappingQueriesSurviveFaultsAndMatchRerun) {
  ServiceOptions options;
  options.retransmitAfter = 100ms;
  options.captureTraces = true;
  options.workerThreads = 3;
  options.maxInflightInitiations = 8;

  // Deterministic loss + jitter on several links: dropped announces and
  // tokens must be recovered by retransmission, delays shuffle arrival
  // interleavings across the concurrent queries.
  const std::string faults =
      "drop:0->1:1,drop:2->3:4,drop:4->5:7,drop:6->0:3,"
      "delay:1->2:5,delay:5->6:8";

  SoakCluster soak(faults, options);

  std::vector<std::future<TopKVector>> futures;
  futures.reserve(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const NodeId initiator = static_cast<NodeId>(q % kNodes);
    futures.push_back(soak.services[initiator]->initiate(
        soakDescriptor(q), ringFrom(initiator, kNodes)));
  }

  std::map<std::uint64_t, TopKVector> soakResults;
  for (std::size_t q = 0; q < kQueries; ++q) {
    ASSERT_EQ(futures[q].wait_for(30s), std::future_status::ready)
        << "query " << q << " never completed under faults";
    soakResults[soakDescriptor(q).queryId] = futures[q].get();
  }
  EXPECT_GE(soak.faulty->dropsInjected(), 4u);

  // Trace isolation: each initiator holds exactly its own query's trace,
  // and the recorded result is that query's result - not a neighbour's.
  for (std::size_t q = 0; q < kQueries; ++q) {
    const QueryDescriptor d = soakDescriptor(q);
    const NodeId initiator = static_cast<NodeId>(q % kNodes);
    const auto trace = soak.services[initiator]->traceOf(d.queryId);
    if (d.isAggregate()) {
      EXPECT_EQ(trace, std::nullopt) << "aggregate query " << q << " traced";
      continue;
    }
    ASSERT_TRUE(trace.has_value()) << "query " << q << " has no trace";
    EXPECT_EQ(trace->result, soakResults.at(d.queryId))
        << "query " << q << " trace leaked another query's result";
    for (const auto& step : trace->steps) {
      EXPECT_EQ(step.node, initiator);
    }
  }

  // Every service must drain: followers consume final announcements a
  // beat after the initiators resolve.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (auto& service : soak.services) {
    while (service->activeQueries() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(20ms);
    }
    EXPECT_EQ(service->activeQueries(), 0u);
  }

  // Sequential faultless re-run on a fresh cluster: one query at a time,
  // same descriptors and rings.  Naive ring queries and the exact
  // secure-sum are seed-independent, so every result must match the
  // faulty concurrent run bit-for-bit.
  SoakCluster rerun("", ServiceOptions{});
  for (std::size_t q = 0; q < kQueries; ++q) {
    const QueryDescriptor d = soakDescriptor(q);
    const NodeId initiator = static_cast<NodeId>(q % kNodes);
    auto future = rerun.services[initiator]->initiate(
        d, ringFrom(initiator, kNodes));
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready)
        << "re-run query " << q << " never completed";
    EXPECT_EQ(future.get(), soakResults.at(d.queryId))
        << "query " << q << " diverged from the sequential re-run";
  }
}

TEST(ServiceConcurrencySoak, DroppedResultAnnouncementRepliesFromCompleted) {
  ServiceOptions options;
  options.retransmitAfter = 100ms;

  // A naive top-k query is one announce + one round token + one result on
  // every link; dropping the 3rd message on 1->2 loses the circulating
  // ResultAnnouncement, stranding followers 2..6 with the initiator long
  // retired.  Their retransmissions must be answered from the completed
  // cache (result replay), not sit out the 60 s stale GC.
  SoakCluster soak("drop:1->2:3", options);

  auto future = soak.services[0]->initiate(soakDescriptor(0),
                                           ringFrom(0, kNodes));
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  const auto values = data::fleetValues(soak.dbs, "sales", "revenue");
  EXPECT_EQ(future.get(), data::trueTopK(values, 3));

  // Recovery cascades backwards one retransmit period per stranded node
  // (each peer's replay comes from its just-completed successor).
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (auto& service : soak.services) {
    while (service->activeQueries() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(20ms);
    }
    EXPECT_EQ(service->activeQueries(), 0u);
  }
  // The dropped message is node 1's forward of the announcement, sent
  // after the initiator's future resolves; every node has retired the
  // query by now, so the drop has certainly happened.
  EXPECT_EQ(soak.faulty->dropsInjected(), 1u);
}

TEST(ServiceConcurrencySoak, AdmissionQueueFullThrowsOverloadError) {
  ServiceOptions options;
  options.maxInflightInitiations = 1;
  options.maxQueuedInitiations = 1;

  // A 200 ms delay on every hop out of node 0 keeps the first query in
  // flight long enough to fill the single queue slot deterministically.
  SoakCluster soak("delay:0->1:200", options);

  auto first = soak.services[0]->initiate(soakDescriptor(0),
                                          ringFrom(0, kNodes));
  // Wait for the first initiation to leave the queue (it registers the
  // query before sending the announce).
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (soak.services[0]->activeQueries() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_GE(soak.services[0]->activeQueries(), 1u);

  auto second = soak.services[0]->initiate(soakDescriptor(1),
                                           ringFrom(0, kNodes));
  // Shed load is an overload condition, not a transport fault: callers
  // get a typed error carrying a retry-after hint.
  try {
    (void)soak.services[0]->initiate(soakDescriptor(2), ringFrom(0, kNodes));
    FAIL() << "third initiate() should have been shed";
  } catch (const OverloadError& e) {
    EXPECT_GT(e.retryAfter().count(), 0);
  }

  // Backpressure rejects; it never corrupts the admitted queries.
  const auto values = data::fleetValues(soak.dbs, "sales", "revenue");
  ASSERT_EQ(first.wait_for(30s), std::future_status::ready);
  ASSERT_EQ(second.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(first.get(), data::trueTopK(values, 3));
  EXPECT_EQ(second.get(), data::trueTopK(values, 1));
}

TEST(ServiceConcurrencySoak, StopDrainsQueuedAndInflightDeterministically) {
  ServiceOptions options;
  options.maxInflightInitiations = 1;

  // Slow the initiator's link so the first query is genuinely mid-flight
  // when stop() lands, with the second still in the admission queue.
  SoakCluster soak("delay:0->1:150", options);

  auto inflight = soak.services[0]->initiate(soakDescriptor(0),
                                             ringFrom(0, kNodes));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (soak.services[0]->activeQueries() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_GE(soak.services[0]->activeQueries(), 1u);
  auto queued = soak.services[0]->initiate(soakDescriptor(1),
                                           ringFrom(0, kNodes));

  soak.services[0]->stop();

  // Both futures must settle promptly - no dangling promises after stop().
  ASSERT_EQ(inflight.wait_for(5s), std::future_status::ready);
  ASSERT_EQ(queued.wait_for(5s), std::future_status::ready);
  EXPECT_THROW((void)inflight.get(), TransportError);
  EXPECT_THROW((void)queued.get(), TransportError);

  // A stopped service rejects new initiations outright.
  EXPECT_THROW((void)soak.services[0]->initiate(soakDescriptor(2),
                                                ringFrom(0, kNodes)),
               ConfigError);
}

TEST(ServiceConcurrencySoak, GroupedAndFlatQueriesInterleave) {
  // 9 nodes: enough for three groups of three.  Grouped and flat queries
  // share the scheduler and the transport; both kinds must complete and
  // agree with the naive truth.
  constexpr std::size_t kWide = 9;
  data::FleetSpec spec;
  spec.nodes = kWide;
  spec.rowsPerNode = 10;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(909);
  const auto dbs = data::generateFleet(spec, rng);
  net::InProcTransport transport(kWide);
  ServiceOptions options;
  options.workerThreads = 3;
  std::vector<std::unique_ptr<NodeService>> services;
  for (std::size_t i = 0; i < kWide; ++i) {
    services.push_back(std::make_unique<NodeService>(
        static_cast<NodeId>(i), dbs[i], transport, 9900 + i, options));
    services.back()->start();
  }
  const auto truth =
      data::trueTopK(data::fleetValues(dbs, "sales", "revenue"), 2);

  std::vector<std::future<TopKVector>> futures;
  for (std::size_t q = 0; q < 8; ++q) {
    QueryDescriptor d;
    d.queryId = 2000 + q;
    d.type = QueryType::TopK;
    d.kind = protocol::ProtocolKind::Naive;
    d.tableName = "sales";
    d.attribute = "revenue";
    d.params.k = 2;
    d.params.rounds = 4;
    if (q % 2 == 0) d.groupSize = 3;  // alternate grouped / flat
    const NodeId initiator = static_cast<NodeId>(q % kWide);
    futures.push_back(
        services[initiator]->initiate(d, ringFrom(initiator, kWide)));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    ASSERT_EQ(futures[q].wait_for(30s), std::future_status::ready)
        << "query " << q;
    EXPECT_EQ(futures[q].get(), truth) << "query " << q;
  }

  for (auto& s : services) s->stop();
  transport.shutdown();
}

}  // namespace
}  // namespace privtopk::query
