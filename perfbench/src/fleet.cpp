#include "fleet.hpp"

#include <unistd.h>

#include <chrono>
#include <future>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/socket_util.hpp"

namespace perfbench {

using namespace privtopk;

namespace {

/// Query ids of warm-up queries; measured queries count up from 1.
constexpr std::uint64_t kWarmUpIdBase = 1ULL << 48;

/// Ports for the TCP fleet: bind ephemeral listeners, note their ports and
/// close them again (the transports rebind with SO_REUSEADDR).
std::vector<net::TcpPeer> reservePorts() {
  std::vector<net::TcpPeer> peers;
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::uint16_t port = 0;
    const int fd = net::makeListener(0, port, 16);
    ::close(fd);
    peers.push_back(net::TcpPeer{static_cast<NodeId>(i), "127.0.0.1", port});
  }
  return peers;
}

/// Rings (each starting at its initiator) that together traverse every
/// directed link once or more: greedily extend each ring along links not
/// yet used.
std::vector<std::vector<NodeId>> coveringRings() {
  std::set<std::pair<NodeId, NodeId>> uncovered;
  for (NodeId a = 0; a < kNodes; ++a) {
    for (NodeId b = 0; b < kNodes; ++b) {
      if (a != b) uncovered.insert({a, b});
    }
  }
  std::vector<std::vector<NodeId>> rings;
  while (!uncovered.empty()) {
    std::vector<NodeId> ring{uncovered.begin()->first};
    std::vector<bool> used(kNodes, false);
    used[ring[0]] = true;
    while (ring.size() < kNodes) {
      const NodeId last = ring.back();
      NodeId pick = kNodes;
      for (NodeId c = 0; c < kNodes; ++c) {
        if (used[c]) continue;
        if (pick == kNodes) pick = c;
        if (uncovered.contains({last, c})) {
          pick = c;
          break;
        }
      }
      used[pick] = true;
      ring.push_back(pick);
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      uncovered.erase({ring[i], ring[(i + 1) % kNodes]});
    }
    rings.push_back(std::move(ring));
  }
  return rings;
}

}  // namespace

std::vector<data::PrivateDatabase> generateTables(std::size_t rows,
                                                  std::uint64_t seed) {
  const data::Schema schema({{kValue, data::ColumnType::Int},
                             {kRegion, data::ColumnType::Int}});
  std::vector<data::PrivateDatabase> tables;
  Rng rng(seed);
  std::vector<data::Cell> row(2);
  for (std::size_t node = 0; node < kNodes; ++node) {
    data::Table table(schema);
    for (std::size_t r = 0; r < rows; ++r) {
      row[0] = rng.uniformInt(kPaperDomain.min, kPaperDomain.max);
      row[1] = rng.uniformInt(0, kRegions - 1);
      table.appendRow(row);
    }
    tables.emplace_back("party" + std::to_string(node));
    tables.back().addTable(kTable, std::move(table));
  }
  return tables;
}

std::vector<NodeId> ringFrom(NodeId initiator) {
  std::vector<NodeId> ring;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ring.push_back(static_cast<NodeId>((initiator + i) % kNodes));
  }
  return ring;
}

Fleet::Fleet(std::vector<data::PrivateDatabase> tables, bool tcp, bool capture,
             std::uint64_t seed)
    : tables_(std::move(tables)) {
  std::vector<net::Transport*> endpoints;
  if (tcp) {
    // A reserved port can be taken again before its transport rebinds it;
    // start over on fresh ports when a bind fails.
    for (int attempt = 1;; ++attempt) {
      try {
        const auto peers = reservePorts();
        for (std::size_t i = 0; i < kNodes; ++i) {
          tcp_.push_back(std::make_unique<net::TcpTransport>(
              static_cast<NodeId>(i), peers));
        }
        break;
      } catch (const TransportError&) {
        tcp_.clear();
        if (attempt == 3) throw;
      }
    }
    for (const auto& t : tcp_) endpoints.push_back(t.get());
  } else {
    inproc_ = std::make_unique<net::InProcTransport>(kNodes);
    endpoints.assign(kNodes, inproc_.get());
  }
  if (capture) {
    for (auto*& endpoint : endpoints) {
      captures_.push_back(
          std::make_unique<CaptureTransport>(*endpoint, kNodes));
      endpoint = captures_.back().get();
    }
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    services_.push_back(std::make_unique<query::NodeService>(
        static_cast<NodeId>(i), tables_[i], *endpoints[i],
        splitmix64(seed ^ (0x9e37ULL + i)), query::ServiceOptions{}));
  }
  for (auto& service : services_) service->start();
}

Fleet::~Fleet() {
  // Shutting the transports down first wakes every receiver out of its
  // poll, so stop() does not wait out a receive timeout per node.
  if (inproc_) inproc_->shutdown();
  for (auto& t : tcp_) t->shutdown();
  for (auto& service : services_) service->stop();
}

void Fleet::warmUp() {
  std::vector<std::future<TopKVector>> pending;
  std::uint64_t id = kWarmUpIdBase;
  for (const auto& ring : coveringRings()) {
    query::QueryDescriptor d;
    d.queryId = id++;
    d.type = query::QueryType::TopK;
    d.kind = protocol::ProtocolKind::Naive;
    d.tableName = kTable;
    d.attribute = kValue;
    d.params.k = 1;
    pending.push_back(services_[ring.front()]->initiate(d, ring));
  }
  for (auto& f : pending) {
    if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      throw TransportError("fleet warm-up query timed out");
    }
    (void)f.get();
  }
}

std::size_t Fleet::wireBytes() const {
  if (inproc_) return inproc_->bytesSent();
  std::size_t total = 0;
  for (const auto& t : tcp_) total += t->bytesSent();
  return total;
}

}  // namespace perfbench
