// NodeService fault-tolerance tests: retransmission of lost tokens, ring
// repair around crashed peers (over both InProc and real TCP transports),
// peer kill + relaunch mid-query, and the bounded completed-result cache.

#include "query/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "data/generator.hpp"
#include "net/fault.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

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

std::vector<data::PrivateDatabase> makeFleet(std::size_t n,
                                             std::uint64_t seed) {
  data::FleetSpec spec;
  spec.nodes = n;
  spec.rowsPerNode = 12;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(seed);
  return data::generateFleet(spec, rng);
}

std::vector<NodeId> fullRing(std::size_t n) {
  std::vector<NodeId> ring(n);
  std::iota(ring.begin(), ring.end(), NodeId{0});
  return ring;
}

/// True top-k over a subset of the fleet (the nodes that survived).
TopKVector survivorsTopK(const std::vector<data::PrivateDatabase>& dbs,
                         const std::vector<NodeId>& survivors, std::size_t k) {
  const auto all = data::fleetValues(dbs, "sales", "revenue");
  std::vector<std::vector<Value>> kept;
  for (NodeId id : survivors) kept.push_back(all[id]);
  return data::trueTopK(kept, k);
}

/// Robustness knobs tightened for fast tests: retransmit quickly and give
/// up on a successor after two failed deliveries.
ServiceOptions fastOptions() {
  ServiceOptions options;
  options.staleAfter = 30'000ms;
  options.retransmitAfter = 150ms;
  options.deadAfterFailures = 2;
  return options;
}

/// In-process fleet where every node shares one fault-injecting transport.
struct FaultyInProcCluster {
  std::vector<data::PrivateDatabase> dbs;
  net::InProcTransport inner;
  net::FaultInjectingTransport transport;
  std::vector<std::unique_ptr<NodeService>> services;

  FaultyInProcCluster(std::size_t n, const std::string& faultSpec,
                      std::uint64_t seed = 21)
      : dbs(makeFleet(n, seed)),
        inner(n),
        transport(inner, net::FaultSpec::parse(faultSpec)) {
    for (std::size_t i = 0; i < n; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], transport, 500 + i, fastOptions()));
      services.back()->start();
    }
  }

  ~FaultyInProcCluster() {
    for (auto& s : services) s->stop();
    transport.shutdown();
  }
};

/// TCP fleet: one transport per node, each wrapped around a SHARED fault
/// state so a scheduled crash severs the node in both directions.
struct FaultyTcpCluster {
  std::vector<data::PrivateDatabase> dbs;
  std::vector<net::TcpPeer> peers;
  std::shared_ptr<net::FaultState> faults;
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<net::FaultInjectingTransport>> wrappers;
  std::vector<std::unique_ptr<NodeService>> services;

  FaultyTcpCluster(std::size_t n, const std::string& faultSpec,
                   std::uint64_t seed = 31)
      : dbs(makeFleet(n, seed)),
        faults(std::make_shared<net::FaultState>(
            net::FaultSpec::parse(faultSpec))) {
    {
      std::vector<std::unique_ptr<net::TcpTransport>> probes;
      for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
        probes.push_back(std::make_unique<net::TcpTransport>(
            0, std::vector<net::TcpPeer>{{0, "127.0.0.1", 0}}));
        peers.push_back(
            net::TcpPeer{id, "127.0.0.1", probes.back()->listenPort()});
      }
      for (auto& p : probes) p->shutdown();
    }
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) launch(id);
  }

  /// Starts (or restarts) node `id` on its assigned port.
  void launch(NodeId id) {
    net::TcpOptions options;
    options.connectTimeout = 1000ms;
    transports.resize(std::max<std::size_t>(transports.size(), id + 1));
    wrappers.resize(std::max<std::size_t>(wrappers.size(), id + 1));
    services.resize(std::max<std::size_t>(services.size(), id + 1));
    transports[id] = std::make_unique<net::TcpTransport>(id, peers, options);
    wrappers[id] =
        std::make_unique<net::FaultInjectingTransport>(*transports[id], faults);
    services[id] = std::make_unique<NodeService>(id, dbs[id], *wrappers[id],
                                                 700 + id, fastOptions());
    services[id]->start();
  }

  /// Tears node `id` down completely (service, wrapper, sockets).
  void kill(NodeId id) {
    services[id]->stop();
    transports[id]->shutdown();
    services[id].reset();
    wrappers[id].reset();
    transports[id].reset();
  }

  ~FaultyTcpCluster() {
    for (auto& s : services) {
      if (s) s->stop();
    }
    for (auto& t : transports) {
      if (t) t->shutdown();
    }
  }
};

// ---------------------------------------------------------------------------
// Retransmission
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, DroppedTokenIsRetransmitted) {
  // Message 2 on the 0->1 link is the first round token (message 1 is the
  // announce).  Without retransmission the query hangs forever.
  FaultyInProcCluster cluster(3, "drop:0->1:2");
  auto future = cluster.services[0]->initiate(descriptor(1), fullRing(3));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 2}, 3));
  EXPECT_EQ(cluster.transport.dropsInjected(), 1u);
}

TEST(NodeServiceFaults, DroppedAnnounceIsRetransmitted) {
  // Message 1 on the 0->1 link is the announce itself: the successor never
  // learns the query until the initiator's retransmission replays the
  // announce ahead of the stalled token.
  FaultyInProcCluster cluster(3, "drop:0->1:1");
  auto future = cluster.services[0]->initiate(descriptor(2), fullRing(3));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 2}, 3));
}

/// Drops the first ResultAnnouncement for `queryId` that any node sends.
class DropFirstResult final : public net::Transport {
 public:
  DropFirstResult(net::Transport& inner, std::uint64_t queryId)
      : inner_(inner), queryId_(queryId) {}

  void send(NodeId from, NodeId to, const Bytes& payload) override {
    const net::Message message = net::decodeMessage(payload);
    const auto* result = std::get_if<net::ResultAnnouncement>(&message);
    if (result != nullptr && result->queryId == queryId_ &&
        !dropped_.exchange(true)) {
      return;
    }
    inner_.send(from, to, payload);
  }
  std::optional<net::Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override {
    return inner_.receive(node, timeout);
  }
  void shutdown() override { inner_.shutdown(); }
  [[nodiscard]] bool dropped() const { return dropped_.load(); }

 private:
  net::Transport& inner_;
  std::uint64_t queryId_;
  std::atomic<bool> dropped_{false};
};

TEST(NodeServiceFaults, DroppedGroupResultIsReplayedToWaitingMembers) {
  // A grouped query's final result circles each group ring under the
  // parent id.  Losing its first hop strands the members behind it, which
  // have nothing of their own to retransmit; their probes must fetch the
  // result from a peer that already retired the query, well before the
  // 30-s stale GC.
  const auto dbs = makeFleet(9, 41);
  net::InProcTransport inner(9);
  DropFirstResult transport(inner, /*queryId=*/7);
  std::vector<std::unique_ptr<NodeService>> services;
  for (std::size_t i = 0; i < 9; ++i) {
    services.push_back(std::make_unique<NodeService>(
        static_cast<NodeId>(i), dbs[i], transport, 900 + i, fastOptions()));
    services.back()->start();
  }
  QueryDescriptor d = descriptor(7);
  d.groupSize = 3;
  auto future = services[0]->initiate(d, fullRing(9));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  const TopKVector expected = survivorsTopK(dbs, fullRing(9), 3);
  EXPECT_EQ(future.get(), expected);
  EXPECT_TRUE(transport.dropped());
  for (auto& service : services) {
    EXPECT_EQ(service->waitFor(7, 5000ms), expected);
  }
  for (auto& s : services) s->stop();
  transport.shutdown();
}

// ---------------------------------------------------------------------------
// Ring repair
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, CrashedPeerIsSplicedOutOfTheRing) {
  // Node 2 is fail-stop from the start of a 4-node ring.  Node 1 must
  // declare it dead, splice it out, and route the query 0->1->3->0.
  FaultyInProcCluster cluster(4, "crash:2@0");
  auto future = cluster.services[0]->initiate(descriptor(3), fullRing(4));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 3}, 3));
}

TEST(NodeServiceFaults, RingShrinkingBelowThreeAbortsTheQuery) {
  // The initiator's next two successors are both dead: after splicing both
  // out the ring would be {0, 3}, below the paper's n >= 3 privacy floor,
  // so the initiator must abort (failing its future) rather than run a
  // two-party protocol.
  FaultyInProcCluster cluster(4, "crash:1@0,crash:2@0");
  auto future = cluster.services[0]->initiate(descriptor(4), fullRing(4));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_THROW((void)future.get(), TransportError);
}

// ---------------------------------------------------------------------------
// Acceptance scenario (ISSUE 2): 5-node TCP query with one dropped token
// and one crashed non-initiator completes with the survivors' result.
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, TcpQuerySurvivesDropAndCrash) {
  FaultyTcpCluster cluster(5, "drop:0->1:2,crash:2@0");
  auto future = cluster.services[0]->initiate(descriptor(5), fullRing(5));
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 3, 4}, 3));
  // Survivors learn the result too.
  for (NodeId id : {NodeId{1}, NodeId{3}, NodeId{4}}) {
    const auto result = cluster.services[id]->waitFor(5, 10'000ms);
    ASSERT_TRUE(result.has_value()) << "node " << id;
    EXPECT_EQ(*result, survivorsTopK(cluster.dbs, {0, 1, 3, 4}, 3));
  }
}

// ---------------------------------------------------------------------------
// Peer restart (ISSUE 2 satellite): kill and relaunch one TcpTransport node
// mid-query; the ring repairs, the initiator's future resolves, and the
// relaunched node serves the next full-ring query.
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, TcpPeerKillAndRelaunchMidQuery) {
  // Node 2 forwards the announce (its one allowed send) and dies holding
  // the round-1 token - the worst case, because the token is lost with it
  // and node 1 must both retransmit and repair.
  FaultyTcpCluster cluster(4, "crash:2@1");

  auto first = cluster.services[0]->initiate(descriptor(6), fullRing(4));
  ASSERT_EQ(first.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(first.get(), survivorsTopK(cluster.dbs, {0, 1, 3}, 3));

  // Relaunch node 2: real socket teardown + rebind on the same port, and
  // the fault layer forgets the spent crash schedule.
  cluster.kill(2);
  cluster.faults->revive(2);
  cluster.launch(2);

  // A fresh query over the full ring must now involve all four databases,
  // which also forces node 1 to reconnect its dead 1->2 link.
  auto second = cluster.services[0]->initiate(descriptor(7), fullRing(4));
  ASSERT_EQ(second.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(second.get(), survivorsTopK(cluster.dbs, {0, 1, 2, 3}, 3));
}

// ---------------------------------------------------------------------------
// Bounded completed-result cache
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, CompletedResultsAreBoundedLru) {
  auto dbs = makeFleet(3, 41);
  net::InProcTransport transport(3);
  ServiceOptions options;
  options.completedCap = 4;
  std::vector<std::unique_ptr<NodeService>> services;
  for (NodeId id = 0; id < 3; ++id) {
    services.push_back(std::make_unique<NodeService>(id, dbs[id], transport,
                                                     900 + id, options));
    services.back()->start();
  }

  for (std::uint64_t q = 1; q <= 6; ++q) {
    auto future =
        services[0]->initiate(descriptor(q, QueryType::Max), fullRing(3));
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    (void)future.get();
  }

  // Only the 4 most recent results are retained; the oldest two were
  // evicted (before the cap a long-running daemon leaked one entry per
  // query forever).
  EXPECT_EQ(services[0]->completedQueries(), 4u);
  EXPECT_EQ(services[0]->resultOf(1), std::nullopt);
  EXPECT_EQ(services[0]->resultOf(2), std::nullopt);
  for (std::uint64_t q = 3; q <= 6; ++q) {
    EXPECT_TRUE(services[0]->resultOf(q).has_value()) << "query " << q;
  }

  for (auto& s : services) s->stop();
  transport.shutdown();
}

}  // namespace
}  // namespace privtopk::query
