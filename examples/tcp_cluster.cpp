// Distributed deployment demo: the protocol over real TCP sockets with
// authenticated encryption on every ring link (DH handshake + ChaCha20 +
// HMAC), one NodeService per organization in one process.
//
// This is the deployment-shaped path: `privtopk node` runs exactly this
// NodeService, one per process; only the address book changes.  The first
// node on the ring initiates, every other node waits for the disseminated
// result.

#include <cstdio>
#include <numeric>

#include "net/tcp.hpp"
#include "query/service.hpp"

using namespace privtopk;
using namespace std::chrono_literals;

int main() {
  constexpr std::size_t kParties = 5;

  // Each organization's private revenue column.
  const std::vector<std::vector<Value>> revenues = {
      {8120, 7300, 100}, {9050, 2200, 90}, {8800, 8790, 4000},
      {6100, 5900, 5800}, {9925, 300, 200},
  };
  const data::Schema schema({{"revenue", data::ColumnType::Int}});
  std::vector<data::PrivateDatabase> dbs(kParties);
  for (std::size_t i = 0; i < kParties; ++i) {
    data::Table table(schema);
    for (Value v : revenues[i]) table.appendRow({data::Cell{v}});
    dbs[i].addTable("sales", std::move(table));
  }

  // --- Address book: reserve distinct localhost ports. -------------------
  std::vector<net::TcpPeer> peers;
  {
    std::vector<std::unique_ptr<net::TcpTransport>> probes;
    for (std::size_t i = 0; i < kParties; ++i) {
      probes.push_back(std::make_unique<net::TcpTransport>(
          0, std::vector<net::TcpPeer>{{0, "127.0.0.1", 0}}));
      peers.push_back(net::TcpPeer{static_cast<NodeId>(i), "127.0.0.1",
                                   probes.back()->listenPort()});
    }
    for (auto& p : probes) p->shutdown();
  }

  // --- Shared query descriptor (agreed out of band). ---------------------
  query::QueryDescriptor query;
  query.queryId = 20260707;
  query.tableName = "sales";
  query.attribute = "revenue";
  query.params.k = 3;
  query.params.epsilon = 1e-6;
  std::vector<NodeId> ring(kParties);
  std::iota(ring.begin(), ring.end(), NodeId{0});
  Rng ringRng(404);
  ringRng.shuffle(ring);  // random mapping + random starting node

  net::TcpOptions tcpOptions;
  tcpOptions.encrypt = true;  // DH + ChaCha20 + HMAC on every link
  tcpOptions.keySeed = 20260707;

  std::printf("ring order:");
  for (NodeId id : ring) std::printf(" %u", id);
  std::printf("   (node %u starts)\n", ring.front());

  // --- One NodeService per party, each with its own TCP endpoint. --------
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<query::NodeService>> services;
  for (std::size_t i = 0; i < kParties; ++i) {
    transports.push_back(std::make_unique<net::TcpTransport>(
        static_cast<NodeId>(i), peers, tcpOptions));
    services.push_back(std::make_unique<query::NodeService>(
        static_cast<NodeId>(i), dbs[i], *transports[i], 505 + i));
    services.back()->start();
  }

  auto future = services[ring.front()]->initiate(query, ring);
  bool consistent = future.wait_for(10s) == std::future_status::ready;
  const TopKVector agreed = consistent ? future.get() : TopKVector{};
  for (std::size_t i = 0; i < kParties; ++i) {
    const auto result = services[i]->waitFor(query.queryId, 10s);
    std::printf("party %zu received result %s\n", i,
                result ? toString(*result).c_str() : "(none)");
    consistent = consistent && result == agreed;
  }
  for (auto& s : services) s->stop();
  for (auto& t : transports) t->shutdown();

  std::printf("\nall parties agree: %s\n", consistent ? "yes" : "NO");
  std::printf("every link ran a Diffie-Hellman handshake and sealed each\n");
  std::printf("token with ChaCha20 + HMAC-SHA256 (encrypt-then-MAC).\n");
  return consistent ? 0 : 1;
}
