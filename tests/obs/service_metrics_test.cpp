// End-to-end observability: run real queries through NodeService over the
// in-process transport and assert the metric surface the ISSUE promises -
// non-zero protocol/transport counters, populated latency histograms, the
// stale-purge path after a peer crash, and the dropped-message path for
// hostile traffic.  Each TEST runs in its own ctest process, so global
// registry deltas are still asserted relative to a baseline snapshot.

#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "data/generator.hpp"
#include "net/inproc.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "query/service.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

struct Cluster {
  std::vector<data::PrivateDatabase> dbs;
  std::unique_ptr<net::InProcTransport> transport;
  std::vector<std::unique_ptr<NodeService>> services;

  explicit Cluster(std::size_t n, std::chrono::milliseconds staleAfter = 60s,
                   std::size_t skipStart = SIZE_MAX) {
    data::FleetSpec spec;
    spec.nodes = n;
    spec.rowsPerNode = 12;
    spec.tableName = "sales";
    spec.attribute = "revenue";
    Rng rng(1);
    dbs = data::generateFleet(spec, rng);
    transport = std::make_unique<net::InProcTransport>(n);
    ServiceOptions options;
    options.staleAfter = staleAfter;
    for (std::size_t i = 0; i < n; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], *transport, 100 + i, options));
      if (i != skipStart) services.back()->start();
    }
  }

  ~Cluster() {
    for (auto& s : services) s->stop();
    transport->shutdown();
  }

  [[nodiscard]] std::vector<NodeId> ring() const {
    std::vector<NodeId> order(services.size());
    std::iota(order.begin(), order.end(), NodeId{0});
    return order;
  }
};

QueryDescriptor descriptor(std::uint64_t id, std::size_t k = 3) {
  QueryDescriptor d;
  d.queryId = id;
  d.type = QueryType::TopK;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = 10;
  return d;
}

std::optional<std::int64_t> findValue(const obs::MetricsSnapshot& snap,
                                      std::string_view name,
                                      std::string_view labelValue) {
  for (const auto& m : snap.metrics) {
    if (m.name != name) continue;
    for (const auto& [k, v] : m.labels) {
      if (v == labelValue) return m.value;
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> findHistogramCount(
    const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& m : snap.metrics) {
    if (m.name == name) return m.count;
  }
  return std::nullopt;
}

/// Waits (bounded) until no service holds in-flight query state, so the
/// final result announcement has been fully retired everywhere.
void drain(const Cluster& cluster) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (const auto& service : cluster.services) {
    while (service->activeQueries() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }
}

TEST(ServiceMetrics, TopKQueryPopulatesTheWholeSurface) {
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::global().snapshot();
  const auto baseline = [&](std::string_view name, std::string_view label) {
    return findValue(before, name, label).value_or(0);
  };
  const std::uint64_t latencyBefore =
      findHistogramCount(before, "privtopk.query.latency_ms").value_or(0);

  Cluster cluster(4);
  auto future = cluster.services[0]->initiate(descriptor(1), cluster.ring());
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  (void)future.get();
  drain(cluster);

  const obs::MetricsSnapshot snap = cluster.services[0]->metricsSnapshot();

  // Protocol progress: the paper's ring rounds actually executed.
  const auto rounds =
      findValue(snap, "privtopk.protocol.rounds_executed", "service");
  ASSERT_TRUE(rounds.has_value());
  EXPECT_GT(*rounds, baseline("privtopk.protocol.rounds_executed", "service"));

  // Transport volume.
  const auto messages =
      findValue(snap, "privtopk.transport.messages_sent", "inproc");
  const auto bytes = findValue(snap, "privtopk.transport.bytes_sent", "inproc");
  ASSERT_TRUE(messages.has_value());
  ASSERT_TRUE(bytes.has_value());
  EXPECT_GT(*messages,
            baseline("privtopk.transport.messages_sent", "inproc"));
  EXPECT_GT(*bytes, baseline("privtopk.transport.bytes_sent", "inproc"));

  // Query lifecycle: all 4 participants completed, latency recorded for
  // each, announce->first-token recorded for the 3 followers.
  EXPECT_EQ(findValue(snap, "privtopk.query.queries_initiated", "service")
                .value_or(0) -
                baseline("privtopk.query.queries_initiated", "service"),
            1);
  EXPECT_EQ(findValue(snap, "privtopk.query.queries_completed", "service")
                .value_or(0) -
                baseline("privtopk.query.queries_completed", "service"),
            4);
  EXPECT_EQ(findValue(snap, "privtopk.query.active_queries", "service"), 0);
  const auto latency = findHistogramCount(snap, "privtopk.query.latency_ms");
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency - latencyBefore, 4u);
  EXPECT_GE(findHistogramCount(snap,
                               "privtopk.query.announce_to_first_token_ms")
                .value_or(0),
            3u);

  // The randomization-schedule observables (Eq. 2's visible side): every
  // token pass is tallied as randomized, real or passthrough.
  const auto randomized =
      findValue(snap, "privtopk.protocol.randomized_passes", "service")
          .value_or(0);
  const auto real =
      findValue(snap, "privtopk.protocol.real_value_passes", "service")
          .value_or(0);
  const auto passthrough =
      findValue(snap, "privtopk.protocol.passthrough_passes", "service")
          .value_or(0);
  EXPECT_GT(randomized + real + passthrough, 0);

  // Both exporters render the populated surface.
  const std::string prom = obs::renderPrometheus(snap);
  EXPECT_NE(prom.find("privtopk_protocol_rounds_executed"),
            std::string::npos);
  EXPECT_NE(prom.find("privtopk_transport_messages_sent"), std::string::npos);
  EXPECT_NE(prom.find("privtopk_query_latency_ms_bucket"), std::string::npos);
  const std::string json = obs::renderJson(snap);
  EXPECT_NE(json.find("\"privtopk.protocol.rounds_executed\""),
            std::string::npos);
  EXPECT_NE(json.find("\"privtopk.query.latency_ms\""), std::string::npos);
}

TEST(ServiceMetrics, PeerCrashIsObservableAsStalePurge) {
  const std::int64_t purgedBefore =
      findValue(obs::MetricsRegistry::global().snapshot(),
                "privtopk.query.queries_stale_purged", "service")
          .value_or(0);

  // Node 2 never starts: the announce dies in its mailbox, the query
  // stalls, and the stale-query GC must reclaim the state everywhere.
  Cluster cluster(3, /*staleAfter=*/150ms, /*skipStart=*/2);
  auto future = cluster.services[0]->initiate(descriptor(7), cluster.ring());
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_THROW((void)future.get(), TransportError);

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  auto purged = [&] {
    return findValue(cluster.services[0]->metricsSnapshot(),
                     "privtopk.query.queries_stale_purged", "service")
        .value_or(0);
  };
  while (purged() <= purgedBefore &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GT(purged(), purgedBefore);

  // The gauge must not leak the purged queries.
  const auto gaugeDeadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.services[0]->activeQueries() +
                 cluster.services[1]->activeQueries() >
             0 &&
         std::chrono::steady_clock::now() < gaugeDeadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(findValue(cluster.services[0]->metricsSnapshot(),
                      "privtopk.query.active_queries", "service"),
            0);
}

TEST(ServiceMetrics, HostileTrafficLandsInDroppedMessages) {
  const std::int64_t droppedBefore =
      findValue(obs::MetricsRegistry::global().snapshot(),
                "privtopk.query.dropped_messages", "service")
          .value_or(0);

  Cluster cluster(3);
  // Garbage payload: decodeMessage throws, the worker loop must absorb it.
  cluster.transport->send(1, 0, Bytes{0xde, 0xad, 0xbe, 0xef});

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  auto dropped = [&] {
    return findValue(cluster.services[0]->metricsSnapshot(),
                     "privtopk.query.dropped_messages", "service")
        .value_or(0);
  };
  while (dropped() <= droppedBefore &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GT(dropped(), droppedBefore);

  // The service survives: a real query still completes afterwards.
  auto future = cluster.services[0]->initiate(descriptor(9), cluster.ring());
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_NO_THROW((void)future.get());
}

}  // namespace
}  // namespace privtopk::query
