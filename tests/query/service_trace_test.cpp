// End-to-end distributed-tracing acceptance: a grouped 9-node query must
// produce one merged timeline (trace-view's buildTimeline) covering
// announce -> phase-1 group rings -> phase-2 merge -> dissemination with
// no orphan spans, and a live NodeService must serve its observability
// endpoints over HTTP.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <variant>
#include <vector>

#include "data/generator.hpp"
#include "net/http.hpp"
#include "net/inproc.hpp"
#include "net/message.hpp"
#include "obs/trace_view.hpp"
#include "protocol/group.hpp"
#include "query/service.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

struct TracedCluster {
  using Wrap =
      std::function<std::unique_ptr<net::Transport>(net::Transport& inner)>;

  std::vector<data::PrivateDatabase> dbs;
  std::unique_ptr<net::InProcTransport> transport;
  /// Optional decorator every service talks through (see `wrap`).
  std::unique_ptr<net::Transport> wrapper;
  std::vector<std::unique_ptr<NodeService>> services;

  explicit TracedCluster(std::size_t n, ServiceOptions options,
                         const Wrap& wrap = {}) {
    data::FleetSpec spec;
    spec.nodes = n;
    spec.rowsPerNode = 12;
    spec.tableName = "sales";
    spec.attribute = "revenue";
    Rng rng(7);
    dbs = data::generateFleet(spec, rng);
    transport = std::make_unique<net::InProcTransport>(n);
    if (wrap) wrapper = wrap(*transport);
    net::Transport& endpoint = wrapper ? *wrapper : *transport;
    for (std::size_t i = 0; i < n; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], endpoint, 500 + i, options));
      services.back()->start();
    }
  }

  ~TracedCluster() {
    for (auto& s : services) s->stop();
    transport->shutdown();
  }

  [[nodiscard]] std::vector<NodeId> ring() const {
    std::vector<NodeId> order(services.size());
    std::iota(order.begin(), order.end(), NodeId{0});
    return order;
  }

  /// The initiator's future resolves before followers retire the query;
  /// wait for every node to settle so span collection sees the full trace.
  void drain() {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    for (auto& service : services) {
      while (service->activeQueries() > 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
      }
      EXPECT_EQ(service->activeQueries(), 0u);
    }
  }

  [[nodiscard]] std::vector<obs::SpanRecord> allSpans() const {
    std::vector<obs::SpanRecord> all;
    for (const auto& service : services) {
      const auto spans = service->spans();
      all.insert(all.end(), spans.begin(), spans.end());
    }
    return all;
  }
};

QueryDescriptor groupedDescriptor(std::uint64_t id) {
  QueryDescriptor d;
  d.queryId = id;
  d.type = QueryType::TopK;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = 3;
  d.params.rounds = 8;
  d.groupSize = 3;
  return d;
}

ServiceOptions tracedOptions() {
  ServiceOptions options;
  options.traceQueries = true;
  options.spanRingCapacity = 4096;
  return options;
}

TEST(ServiceTrace, GroupedNineNodeQueryYieldsOneMergedTimeline) {
  TracedCluster cluster(9, tracedOptions());
  auto future =
      cluster.services[0]->initiate(groupedDescriptor(1), cluster.ring());
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(future.get(),
            data::trueTopK(data::fleetValues(cluster.dbs, "sales", "revenue"),
                           3));
  cluster.drain();

  const std::vector<obs::SpanRecord> all = cluster.allSpans();
  ASSERT_FALSE(all.empty());

  // Exactly one trace covers the parent query and its phase sub-queries.
  const auto traceIds = obs::traceIdsForQuery(all, 1);
  ASSERT_EQ(traceIds.size(), 1u);
  const obs::TraceTimeline timeline = obs::buildTimeline(all, traceIds[0]);

  // Every node contributed spans and none are orphaned.
  std::set<std::uint32_t> nodes;
  for (const auto& entry : timeline.spans) nodes.insert(entry.span.node);
  EXPECT_EQ(nodes.size(), 9u);
  EXPECT_TRUE(timeline.orphanSpanIds.empty())
      << obs::renderTimeline(timeline);

  // The timeline covers announce -> group rings -> merge -> dissemination
  // plus the initiator's end-to-end root span.
  for (const char* phase :
       {"query", "announce_handled", "ring_round", "group_phase",
        "merge_phase", "result_dissemination"}) {
    EXPECT_TRUE(timeline.phases.contains(phase)) << phase;
  }
  EXPECT_EQ(timeline.phases.at("query").count, 1u);
  // Three group rings + one merge ring ran to completion.
  EXPECT_EQ(timeline.phases.at("group_phase").count, 9u);
  EXPECT_GE(timeline.phases.at("merge_phase").count, 3u);

  // The critical path descends from the root through real protocol work.
  ASSERT_GE(timeline.criticalPath.size(), 3u);

  // The root "query" span's duration dominates the aligned timeline: it
  // brackets the whole execution up to alignment jitter (the zero-latency
  // handshake assumption shifts follower spans slightly, so exact
  // bracketing is not guaranteed even on one in-process clock).
  EXPECT_GE(timeline.phases.at("query").computeNs, timeline.totalNs / 2)
      << obs::renderTimeline(timeline);
}

/// Forces the cross-key race of a grouped member: the first phase-1
/// ResultAnnouncement (a delegate to the next member of its group ring) is
/// held back until the final parent-id result has been handed to that
/// member, and is then released once the member completed the parent or
/// after a grace period, whichever comes first.  Poll-only: services
/// reach it through the default subscribe pump.
class HoldGroupResultUntilFinal final : public net::Transport {
 public:
  HoldGroupResultUntilFinal(net::Transport& inner, std::uint64_t parentId,
                            std::size_t groups)
      : inner_(inner), parentId_(parentId) {
    for (std::size_t g = 0; g < groups; ++g) {
      phaseOneIds_.push_back(protocol::groupSubQueryId(parentId, g));
    }
  }

  /// Tells whether `node` already retired the parent query.
  void watch(std::function<bool(NodeId)> parentDone) {
    parentDone_ = std::move(parentDone);
  }

  void send(NodeId from, NodeId to, const Bytes& payload) override {
    const net::Message message = net::decodeMessage(payload);
    const auto* result = std::get_if<net::ResultAnnouncement>(&message);
    if (result == nullptr) return inner_.send(from, to, payload);
    std::unique_lock lock(mutex_);
    if (!holding_ && !released_ && isPhaseOne(result->queryId)) {
      holding_ = true;
      held_ = net::Envelope{from, to, payload};
      return;
    }
    if (!holding_ || result->queryId != parentId_ || to != held_.to) {
      lock.unlock();
      return inner_.send(from, to, payload);
    }
    holding_ = false;
    const net::Envelope held = std::move(held_);
    lock.unlock();
    inner_.send(from, to, payload);
    const auto deadline = std::chrono::steady_clock::now() + kGrace;
    while (!parentDone_(to) && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    inner_.send(held.from, held.to, held.payload);
    heldMember_ = held.to;
    released_ = true;
  }
  std::optional<net::Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override {
    return inner_.receive(node, timeout);
  }
  void shutdown() override { inner_.shutdown(); }

  /// The phase-1 result really was held and released behind the final one.
  [[nodiscard]] bool released() const { return released_.load(); }
  /// The member whose phase-1 result was held (valid once released()).
  [[nodiscard]] NodeId heldMember() const { return heldMember_.load(); }
  /// How long the final result waited at that member before the phase-1
  /// result followed it.
  static constexpr std::chrono::milliseconds kGrace{200};

 private:
  [[nodiscard]] bool isPhaseOne(std::uint64_t queryId) const {
    return std::find(phaseOneIds_.begin(), phaseOneIds_.end(), queryId) !=
           phaseOneIds_.end();
  }

  net::Transport& inner_;
  const std::uint64_t parentId_;
  std::vector<std::uint64_t> phaseOneIds_;
  std::function<bool(NodeId)> parentDone_;
  std::mutex mutex_;
  bool holding_ = false;  // guarded by mutex_
  net::Envelope held_;    // guarded by mutex_
  std::atomic<bool> released_{false};
  std::atomic<NodeId> heldMember_{0};
};

TEST(ServiceTrace, MemberSeeingFinalResultBeforeItsGroupResultKeepsGroupPhase) {
  // The final result reaches a member ahead of that member's own phase-1
  // result.  The member must still record its group phase (one
  // "group_phase" span per node) before it retires the parent, and every
  // node must end with no state.
  HoldGroupResultUntilFinal* hold = nullptr;
  TracedCluster cluster(9, tracedOptions(), [&](net::Transport& inner) {
    auto wrapper = std::make_unique<HoldGroupResultUntilFinal>(inner, 1, 3);
    hold = wrapper.get();
    return wrapper;
  });
  hold->watch([&](NodeId node) {
    return cluster.services[node]->resultOf(1).has_value();
  });
  auto future =
      cluster.services[0]->initiate(groupedDescriptor(1), cluster.ring());
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  const TopKVector expected =
      data::trueTopK(data::fleetValues(cluster.dbs, "sales", "revenue"), 3);
  EXPECT_EQ(future.get(), expected);
  for (const auto& service : cluster.services) {
    EXPECT_EQ(service->waitFor(1, 5000ms), expected);
  }
  cluster.drain();
  EXPECT_TRUE(hold->released());

  const std::vector<obs::SpanRecord> all = cluster.allSpans();
  const auto traceIds = obs::traceIdsForQuery(all, 1);
  ASSERT_EQ(traceIds.size(), 1u);
  const obs::TraceTimeline timeline = obs::buildTimeline(all, traceIds[0]);
  ASSERT_TRUE(timeline.phases.contains("group_phase"));
  EXPECT_EQ(timeline.phases.at("group_phase").count, 9u);
}

TEST(ServiceTrace, StashedFinalResultRecordsItsWaitInTheStash) {
  // The member holds the final result in its stash until its phase-1
  // result arrives (at least the hold's grace period later).  Its
  // "result_dissemination" span must record that wait as queue time, as
  // for any message that sat in a queue; a replay that claimed no wait
  // would make the timeline shift the member's spans by the whole hold.
  HoldGroupResultUntilFinal* hold = nullptr;
  TracedCluster cluster(9, tracedOptions(), [&](net::Transport& inner) {
    auto wrapper = std::make_unique<HoldGroupResultUntilFinal>(inner, 1, 3);
    hold = wrapper.get();
    return wrapper;
  });
  hold->watch([&](NodeId node) {
    return cluster.services[node]->resultOf(1).has_value();
  });
  auto future =
      cluster.services[0]->initiate(groupedDescriptor(1), cluster.ring());
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  for (const auto& service : cluster.services) {
    ASSERT_TRUE(service->waitFor(1, 5000ms).has_value());
  }
  cluster.drain();
  ASSERT_TRUE(hold->released());

  const NodeId member = hold->heldMember();
  std::int64_t waitedNs = -1;
  for (const obs::SpanRecord& span :
       cluster.services[member]->spansForQuery(1)) {
    if (span.name == "result_dissemination" && span.queryId == 1) {
      waitedNs = span.queueNs;
    }
  }
  ASSERT_GE(waitedNs, 0) << "member " << member << " emitted no span";
  // The hold spans the grace period from the final result's send to the
  // held result's; both travel through the poll pump, whose latency
  // shifts either end by a few ms (more under TSan), so ask for half.
  EXPECT_GE(waitedNs, std::chrono::nanoseconds(
                          HoldGroupResultUntilFinal::kGrace / 2)
                          .count())
      << "member " << member;
}

TEST(ServiceTrace, FlatQueryTraceHasRoundPerRing) {
  TracedCluster cluster(4, tracedOptions());
  QueryDescriptor d = groupedDescriptor(3);
  d.groupSize = 0;  // flat ring
  auto future = cluster.services[0]->initiate(d, cluster.ring());
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  (void)future.get();
  cluster.drain();

  const auto all = cluster.allSpans();
  const auto traceIds = obs::traceIdsForQuery(all, 3);
  ASSERT_EQ(traceIds.size(), 1u);
  const obs::TraceTimeline timeline = obs::buildTimeline(all, traceIds[0]);
  EXPECT_TRUE(timeline.orphanSpanIds.empty());
  EXPECT_TRUE(timeline.phases.contains("ring_round"));
  EXPECT_TRUE(timeline.phases.contains("result_dissemination"));
  EXPECT_FALSE(timeline.phases.contains("group_phase"));
}

TEST(ServiceTrace, EveryNodeEmitsOneLocalInputSpan) {
  TracedCluster cluster(5, tracedOptions());
  QueryDescriptor d = groupedDescriptor(6);
  d.groupSize = 0;
  auto future = cluster.services[0]->initiate(d, cluster.ring());
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  (void)future.get();
  cluster.drain();

  const auto all = cluster.allSpans();
  const auto traceIds = obs::traceIdsForQuery(all, 6);
  ASSERT_EQ(traceIds.size(), 1u);
  const obs::TraceTimeline timeline = obs::buildTimeline(all, traceIds[0]);
  EXPECT_TRUE(timeline.orphanSpanIds.empty()) << obs::renderTimeline(timeline);
  // Each node scans its table exactly once per query: the initiator before
  // it announces, every follower after forwarding the announce.
  std::vector<int> scansPerNode(5, 0);
  for (const auto& entry : timeline.spans) {
    if (entry.span.name == "local_input") ++scansPerNode.at(entry.span.node);
  }
  EXPECT_EQ(scansPerNode, std::vector<int>(5, 1));
}

TEST(ServiceTrace, TracingOffRecordsNothing) {
  ServiceOptions options;
  options.spanRingCapacity = 1024;  // buffer exists, but no contexts flow
  TracedCluster cluster(3, options);
  QueryDescriptor d = groupedDescriptor(4);
  d.groupSize = 0;
  auto future = cluster.services[0]->initiate(d, cluster.ring());
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  (void)future.get();
  cluster.drain();
  EXPECT_TRUE(cluster.allSpans().empty());
}

TEST(ServiceTrace, HttpEndpointsServeLiveState) {
  ServiceOptions options = tracedOptions();
  options.httpPort = 0;  // ephemeral
  TracedCluster cluster(3, options);
  const std::uint16_t port = cluster.services[0]->httpPort();
  ASSERT_NE(port, 0);

  QueryDescriptor d = groupedDescriptor(5);
  d.groupSize = 0;
  auto future = cluster.services[0]->initiate(d, cluster.ring());
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  (void)future.get();
  cluster.drain();

  const auto health = net::httpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(*health, "ok\n");

  const auto metrics = net::httpGet("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("# TYPE privtopk_node_build_info gauge"),
            std::string::npos);
  EXPECT_NE(metrics->find("privtopk_node_rss_bytes"), std::string::npos);

  const auto queries = net::httpGet("127.0.0.1", port, "/queries");
  ASSERT_TRUE(queries.has_value());
  EXPECT_NE(queries->find("\"node\":0"), std::string::npos);
  EXPECT_NE(queries->find("\"completed\":"), std::string::npos);
  EXPECT_NE(queries->find("\"query_id\":5"), std::string::npos);

  const auto dump = net::httpGet("127.0.0.1", port, "/trace/5");
  ASSERT_TRUE(dump.has_value());
  const auto spans = obs::parseSpanDump(*dump);
  EXPECT_EQ(spans.size(), cluster.services[0]->spansForQuery(5).size());
  EXPECT_FALSE(spans.empty());

  EXPECT_FALSE(net::httpGet("127.0.0.1", port, "/nope").has_value());
}

}  // namespace
}  // namespace privtopk::query
