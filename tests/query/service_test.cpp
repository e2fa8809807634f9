// NodeService integration tests: concurrent multi-query federation over
// one in-process transport, plus TCP deployment.

#include "query/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>

#include "data/generator.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

struct Cluster {
  std::vector<data::PrivateDatabase> dbs;
  std::unique_ptr<net::InProcTransport> transport;
  std::vector<std::unique_ptr<NodeService>> services;

  /// `poisoned` names a node given a value above the public domain: its
  /// schema is valid, but scanning its table fails.
  explicit Cluster(std::size_t n, std::uint64_t seed = 1,
                   ServiceOptions options = {},
                   std::optional<NodeId> poisoned = std::nullopt) {
    data::FleetSpec spec;
    spec.nodes = n;
    spec.rowsPerNode = 12;
    spec.tableName = "sales";
    spec.attribute = "revenue";
    Rng rng(seed);
    dbs = data::generateFleet(spec, rng);
    if (poisoned) {
      const data::Cell id{std::string("poison")};
      const data::Cell value{Value{spec.domain.max + 1}};
      dbs[*poisoned].table("sales").appendRow({id, value});
    }
    transport = std::make_unique<net::InProcTransport>(n);
    for (std::size_t i = 0; i < n; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], *transport, 100 + i, options));
      services.back()->start();
    }
  }

  ~Cluster() {
    for (auto& s : services) s->stop();
    transport->shutdown();
  }

  [[nodiscard]] std::vector<NodeId> ringFrom(NodeId initiator) const {
    std::vector<NodeId> ring(services.size());
    std::iota(ring.begin(), ring.end(), NodeId{0});
    std::rotate(ring.begin(), ring.begin() + initiator, ring.end());
    return ring;
  }

  [[nodiscard]] std::vector<std::vector<Value>> rawValues() const {
    return data::fleetValues(dbs, "sales", "revenue");
  }
};

QueryDescriptor descriptor(std::uint64_t id, QueryType type = QueryType::TopK,
                           std::size_t k = 3) {
  QueryDescriptor d;
  d.queryId = id;
  d.type = type;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = 10;
  return d;
}

TEST(NodeService, SingleTopKQuery) {
  Cluster cluster(4);
  auto future = cluster.services[0]->initiate(descriptor(1),
                                              cluster.ringFrom(0));
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), data::trueTopK(cluster.rawValues(), 3));
}

TEST(NodeService, FollowersLearnTheResultToo) {
  Cluster cluster(4);
  auto future = cluster.services[1]->initiate(descriptor(2),
                                              cluster.ringFrom(1));
  const TopKVector expected = data::trueTopK(cluster.rawValues(), 3);
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), expected);
  for (auto& service : cluster.services) {
    const auto result = service->waitFor(2, 5000ms);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result, expected);
  }
}

TEST(NodeService, ConcurrentQueriesFromDifferentInitiators) {
  Cluster cluster(5);
  const auto raw = cluster.rawValues();

  auto f1 = cluster.services[0]->initiate(descriptor(10, QueryType::TopK, 2),
                                          cluster.ringFrom(0));
  auto f2 = cluster.services[2]->initiate(descriptor(11, QueryType::Max),
                                          cluster.ringFrom(2));
  auto f3 = cluster.services[4]->initiate(descriptor(12, QueryType::BottomK, 2),
                                          cluster.ringFrom(4));

  ASSERT_EQ(f1.wait_for(5s), std::future_status::ready);
  ASSERT_EQ(f2.wait_for(5s), std::future_status::ready);
  ASSERT_EQ(f3.wait_for(5s), std::future_status::ready);

  EXPECT_EQ(f1.get(), data::trueTopK(raw, 2));
  EXPECT_EQ(f2.get(), data::trueTopK(raw, 1));

  std::vector<Value> all;
  for (const auto& v : raw) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  all.resize(2);
  EXPECT_EQ(f3.get(), all);
}

TEST(NodeService, AggregateQueries) {
  Cluster cluster(4);
  const auto raw = cluster.rawValues();
  std::int64_t sum = 0;
  std::int64_t count = 0;
  for (const auto& party : raw) {
    for (Value v : party) sum += v;
    count += static_cast<std::int64_t>(party.size());
  }

  auto fs = cluster.services[0]->initiate(descriptor(20, QueryType::Sum),
                                          cluster.ringFrom(0));
  auto fa = cluster.services[1]->initiate(descriptor(21, QueryType::Average),
                                          cluster.ringFrom(1));
  ASSERT_EQ(fs.wait_for(5s), std::future_status::ready);
  ASSERT_EQ(fa.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(fs.get(), (TopKVector{sum}));
  EXPECT_EQ(fa.get(), (TopKVector{sum, count}));
}

TEST(NodeService, ManySequentialQueriesDrainState) {
  Cluster cluster(4);
  for (std::uint64_t q = 1; q <= 8; ++q) {
    auto future = cluster.services[q % 4]->initiate(
        descriptor(100 + q, QueryType::Max),
        cluster.ringFrom(static_cast<NodeId>(q % 4)));
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    EXPECT_EQ(future.get(), data::trueTopK(cluster.rawValues(), 1));
  }
  // Give followers a beat to consume the final announcements.
  std::this_thread::sleep_for(100ms);
  for (auto& service : cluster.services) {
    EXPECT_EQ(service->activeQueries(), 0u);
  }
}

TEST(NodeService, InitiateValidation) {
  Cluster cluster(3);
  EXPECT_THROW(
      (void)cluster.services[0]->initiate(descriptor(30), {0, 1}),
      ConfigError);
  EXPECT_THROW(
      (void)cluster.services[0]->initiate(descriptor(31), {1, 0, 2}),
      ConfigError);  // initiator must be first
  EXPECT_THROW(
      (void)cluster.services[0]->initiate(descriptor(33), {1, 2, 3}),
      ConfigError);  // initiator not on the ring at all
  QueryDescriptor badP0 = descriptor(34);
  badP0.params.p0 = 7.0;
  EXPECT_THROW((void)cluster.services[0]->initiate(badP0, {0, 1, 2}),
               ConfigError);
  auto ok = cluster.services[0]->initiate(descriptor(32), {0, 1, 2});
  ASSERT_EQ(ok.wait_for(5s), std::future_status::ready);
  (void)ok.get();
  EXPECT_THROW(
      (void)cluster.services[0]->initiate(descriptor(32), {0, 1, 2}),
      ConfigError);  // duplicate id
}

TEST(NodeService, HostileTrafficIsDroppedNotFatal) {
  Cluster cluster(3);
  // Garbage bytes and tokens for unknown queries must not kill the worker.
  cluster.transport->send(2, 0, Bytes{0xff, 0x00, 0x12});
  cluster.transport->send(
      2, 0, net::encodeMessage(net::RoundToken{999, 1, {5}, {}}));
  cluster.transport->send(2, 0, net::encodeMessage(net::RingRepair{999, 1, 2}));
  auto future = cluster.services[0]->initiate(descriptor(40, QueryType::Max),
                                              cluster.ringFrom(0));
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), data::trueTopK(cluster.rawValues(), 1));
}

TEST(NodeService, ResultOfUnknownQueryIsEmpty) {
  Cluster cluster(3);
  EXPECT_EQ(cluster.services[0]->resultOf(777), std::nullopt);
  EXPECT_EQ(cluster.services[0]->waitFor(777, 50ms), std::nullopt);
}

TEST(NodeService, StaleQueriesGarbageCollected) {
  // A ring listing a nonexistent node: the announce dies at the gap, the
  // query can never complete, and the GC must reclaim it (failing the
  // initiator's future) instead of leaking state forever.
  data::FleetSpec spec;
  spec.nodes = 1;
  spec.rowsPerNode = 5;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(77);
  const auto dbs = data::generateFleet(spec, rng);
  net::InProcTransport transport(1);
  NodeService service(0, dbs[0], transport, 78, /*staleAfter=*/200ms);
  service.start();

  auto future = service.initiate(descriptor(60, QueryType::Max), {0, 1, 2});
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_THROW((void)future.get(), TransportError);
  EXPECT_EQ(service.activeQueries(), 0u);
  service.stop();
  transport.shutdown();
}

TEST(NodeService, IdleServiceCollectsStaleQueryWithNoTrafficArriving) {
  // Only the initiator runs: its announce sits unread in node 1's mailbox,
  // no retransmission is armed, and nothing ever arrives at node 0.
  // Maintenance must still run on the dispatch workers' timer.
  data::FleetSpec spec;
  spec.nodes = 3;
  spec.rowsPerNode = 5;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(79);
  const auto dbs = data::generateFleet(spec, rng);
  net::InProcTransport transport(3);
  ServiceOptions options;
  options.staleAfter = 200ms;
  options.retransmitAfter = 0ms;
  NodeService service(0, dbs[0], transport, 80, options);
  service.start();

  auto future = service.initiate(descriptor(61, QueryType::Max), {0, 1, 2});
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_THROW((void)future.get(), TransportError);
  EXPECT_EQ(service.activeQueries(), 0u);
  service.stop();
  transport.shutdown();
}

/// Thread ids of this process.
std::set<std::string> processThreads() {
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

/// Threads in `now` that were not in `before`: other threads of the test
/// process may come and go meanwhile, so set differences, not counts.
std::size_t newThreads(const std::set<std::string>& before,
                       const std::set<std::string>& now) {
  return static_cast<std::size_t>(std::count_if(
      now.begin(), now.end(),
      [&](const std::string& id) { return !before.contains(id); }));
}

/// Free localhost ports for an n-node TCP fleet.
std::vector<net::TcpPeer> loopbackPeers(std::size_t n) {
  std::vector<net::TcpPeer> peers;
  std::vector<std::unique_ptr<net::TcpTransport>> probes;
  for (std::size_t i = 0; i < n; ++i) {
    probes.push_back(std::make_unique<net::TcpTransport>(
        0, std::vector<net::TcpPeer>{{0, "127.0.0.1", 0}}));
    peers.push_back(net::TcpPeer{static_cast<NodeId>(i), "127.0.0.1",
                                 probes.back()->listenPort()});
  }
  for (auto& p : probes) p->shutdown();
  return peers;
}

TEST(NodeService, StartAddsExactlyTheWorkerThreads) {
  // Transports push envelopes into the run queue, so a service owns its
  // dispatch workers and nothing else: no receiver thread, no poll loop.
  // The count is taken with the transports already up (TCP's reactor
  // threads are the transport's, not the service's).
  constexpr std::size_t kNodes = 3;
  ServiceOptions options;
  options.workerThreads = 3;
  data::FleetSpec spec;
  spec.nodes = kNodes;
  spec.rowsPerNode = 8;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(81);
  const auto dbs = data::generateFleet(spec, rng);
  const TopKVector expected =
      data::trueTopK(data::fleetValues(dbs, "sales", "revenue"), 3);

  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "tcp" : "inproc");
    std::unique_ptr<net::InProcTransport> inproc;
    std::vector<std::unique_ptr<net::TcpTransport>> sockets;
    std::vector<net::Transport*> endpoints;
    if (tcp) {
      const auto peers = loopbackPeers(kNodes);
      for (std::size_t i = 0; i < kNodes; ++i) {
        sockets.push_back(std::make_unique<net::TcpTransport>(
            static_cast<NodeId>(i), peers));
        endpoints.push_back(sockets.back().get());
      }
    } else {
      inproc = std::make_unique<net::InProcTransport>(kNodes);
      endpoints.assign(kNodes, inproc.get());
    }
    std::vector<std::unique_ptr<NodeService>> services;
    for (std::size_t i = 0; i < kNodes; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], *endpoints[i], 400 + i, options));
    }

    const auto before = processThreads();
    for (auto& s : services) s->start();
    EXPECT_EQ(newThreads(before, processThreads()),
              kNodes * options.workerThreads);

    auto future = services[0]->initiate(descriptor(62), {0, 1, 2});
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    EXPECT_EQ(future.get(), expected);

    for (auto& s : services) s->stop();
    EXPECT_EQ(newThreads(before, processThreads()), 0u);
    if (inproc) inproc->shutdown();
    for (auto& t : sockets) t->shutdown();
  }
}

TEST(NodeService, FollowerScanFailureStillForwardsAndIsCollected) {
  ServiceOptions options;
  options.staleAfter = 300ms;
  Cluster cluster(4, /*seed=*/1, options, /*poisoned=*/2);
  auto future = cluster.services[0]->initiate(descriptor(80), {0, 1, 2, 3});

  // Node 2 forwards the announce before it scans, so its successor
  // registers the query even though node 2's own scan fails.
  bool successorRegistered = false;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!successorRegistered && std::chrono::steady_clock::now() < deadline) {
    successorRegistered = cluster.services[3]->activeQueries() > 0;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(successorRegistered);

  // The ring cannot run without node 2's input: the stale GC fails the
  // initiator and reclaims every node's state.
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_THROW((void)future.get(), TransportError);
  for (auto& service : cluster.services) {
    while (service->activeQueries() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(service->activeQueries(), 0u);
  }
}

TEST(NodeService, InitiatorScanFailureSendsNothing) {
  Cluster cluster(9, /*seed=*/1, {}, /*poisoned=*/0);
  const std::vector<NodeId> ring = cluster.ringFrom(0);
  QueryDescriptor grouped = descriptor(82);
  grouped.groupSize = 3;
  for (const QueryDescriptor& d : {descriptor(81), grouped}) {
    const std::size_t sentBefore = cluster.transport->messagesSent();
    auto future = cluster.services[0]->initiate(d, ring);
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    EXPECT_THROW((void)future.get(), ConfigError) << d.queryId;
    EXPECT_EQ(cluster.transport->messagesSent(), sentBefore) << d.queryId;
    EXPECT_EQ(cluster.services[0]->activeQueries(), 0u) << d.queryId;
  }
}

TEST(NodeService, CaptureTracesRecordsThisNodesSteps) {
  data::FleetSpec spec;
  spec.nodes = 4;
  spec.rowsPerNode = 10;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(55);
  const auto dbs = data::generateFleet(spec, rng);
  net::InProcTransport transport(4);

  ServiceOptions options;
  options.captureTraces = true;
  std::vector<std::unique_ptr<NodeService>> services;
  for (std::size_t i = 0; i < 4; ++i) {
    services.push_back(std::make_unique<NodeService>(
        static_cast<NodeId>(i), dbs[i], transport, 400 + i, options));
    services.back()->start();
  }

  const QueryDescriptor d = descriptor(90, QueryType::TopK, 2);
  auto future = services[0]->initiate(d, {0, 1, 2, 3});
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  const TopKVector result = future.get();

  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(services[i]->waitFor(90, 5000ms).has_value());
    const auto trace = services[i]->traceOf(90);
    ASSERT_TRUE(trace.has_value()) << "service " << i << " has no trace";
    // Every node records exactly its own algorithm invocations: one per
    // round (the controller's deal counts for the round it opens).
    EXPECT_EQ(trace->steps.size(), static_cast<std::size_t>(trace->rounds));
    for (const auto& step : trace->steps) {
      EXPECT_EQ(step.node, static_cast<NodeId>(i));
    }
    EXPECT_EQ(trace->localVectors.at(i),
              protocol::core::localTopK(
                  data::fleetValues(dbs, "sales", "revenue")[i], 2));
    if (i == 0) {
      EXPECT_EQ(trace->result, result);
    }
  }

  // Traces are opt-in: a default-option service records none, and
  // aggregate queries never have one.
  EXPECT_EQ(services[1]->traceOf(777), std::nullopt);
  auto sumFuture = services[0]->initiate(descriptor(91, QueryType::Sum),
                                         {0, 1, 2, 3});
  ASSERT_EQ(sumFuture.wait_for(5s), std::future_status::ready);
  (void)sumFuture.get();
  EXPECT_EQ(services[0]->traceOf(91), std::nullopt);

  for (auto& s : services) s->stop();
  transport.shutdown();
}

TEST(NodeService, WorksOverTcp) {
  // Three services over real sockets.
  std::vector<net::TcpPeer> peers;
  {
    std::vector<std::unique_ptr<net::TcpTransport>> probes;
    for (NodeId id = 0; id < 3; ++id) {
      probes.push_back(std::make_unique<net::TcpTransport>(
          0, std::vector<net::TcpPeer>{{0, "127.0.0.1", 0}}));
      peers.push_back(
          net::TcpPeer{id, "127.0.0.1", probes.back()->listenPort()});
    }
    for (auto& p : probes) p->shutdown();
  }

  data::FleetSpec spec;
  spec.nodes = 3;
  spec.rowsPerNode = 8;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(9);
  auto dbs = data::generateFleet(spec, rng);

  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<NodeService>> services;
  for (NodeId id = 0; id < 3; ++id) {
    transports.push_back(std::make_unique<net::TcpTransport>(id, peers));
    services.push_back(std::make_unique<NodeService>(
        id, dbs[id], *transports[id], 300 + id));
    services.back()->start();
  }

  auto future = services[0]->initiate(descriptor(50, QueryType::TopK, 2),
                                      {0, 1, 2});
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(future.get(),
            data::trueTopK(data::fleetValues(dbs, "sales", "revenue"), 2));

  for (auto& s : services) s->stop();
  for (auto& t : transports) t->shutdown();
}

}  // namespace
}  // namespace privtopk::query
