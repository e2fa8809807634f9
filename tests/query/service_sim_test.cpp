// query::ServiceSim: the live service's ServiceCore in virtual time.
//
// The SimulatedRun / RunGroupedSimulated cases pin the simulator's
// contract (virtual-time cost, crash recovery, grouped parallelism); the
// ServiceSimSweep cases run hundreds of seeded federations - flat,
// aggregate, segmented and grouped queries under latency jitter, drops,
// crashes and link reordering - and check the protocol invariants after
// every event.  A sweep failure names its (seed, FaultSpec, reorder),
// which replays it exactly.

#include "query/service_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "data/generator.hpp"
#include "protocol/group.hpp"
#include "protocol/runner.hpp"

namespace privtopk::query {
namespace {

QueryDescriptor topK(std::uint64_t id, std::size_t k, Round rounds = 12) {
  QueryDescriptor d;
  d.queryId = id;
  d.type = QueryType::TopK;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = rounds;
  return d;
}

std::vector<NodeId> identityRing(std::size_t n) {
  std::vector<NodeId> ring(n);
  for (std::size_t i = 0; i < n; ++i) ring[i] = static_cast<NodeId>(i);
  return ring;
}

std::vector<std::uint64_t> seedsFrom(std::uint64_t base, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = base + i;
  return seeds;
}

/// Runs `descriptor` initiated by node 0 over the identity ring and
/// returns the sim for inspection.
std::unique_ptr<ServiceSim> runQuery(
    const std::vector<data::PrivateDatabase>& dbs,
    const QueryDescriptor& descriptor, SimOptions options = {},
    std::uint64_t seedBase = 100) {
  auto sim = std::make_unique<ServiceSim>(dbs, seedsFrom(seedBase, dbs.size()),
                                          std::move(options));
  sim->initiate(descriptor, identityRing(dbs.size()));
  sim->run();
  return sim;
}

TopKVector resultOf(const ServiceSim& sim, std::uint64_t queryId) {
  const ServiceSim::Retired* outcome = sim.outcome(queryId);
  if (outcome == nullptr || !outcome->result) return {};
  return *outcome->result;
}

// ---------------------------------------------------------------------------
// The simulator's contract.

TEST(SimulatedRun, CorrectWithoutFailures) {
  const auto dbs = data::fleetFromValues({{30}, {10}, {40}, {20}});
  const auto sim = runQuery(dbs, topK(1, 1));
  EXPECT_EQ(resultOf(*sim, 1), (TopKVector{40}));
  EXPECT_GT(sim->outcome(1)->at, 0.0);
  for (NodeId node = 0; node < 4; ++node) {
    EXPECT_EQ(sim->core(node).resultOf(1), (TopKVector{40}));
    EXPECT_EQ(sim->core(node).activeQueries(), 0u);
  }
}

TEST(SimulatedRun, VirtualTimeScalesWithLatency) {
  const auto dbs = data::fleetFromValues({{30}, {10}, {40}, {20}});
  const sim::FixedLatency slow(10.0);
  const sim::FixedLatency fast(1.0);
  SimOptions options;
  options.latency = &fast;
  const auto fastRun = runQuery(dbs, topK(1, 1), options);
  options.latency = &slow;
  const auto slowRun = runQuery(dbs, topK(1, 1), options);
  EXPECT_EQ(resultOf(*fastRun, 1), resultOf(*slowRun, 1));
  EXPECT_NEAR(slowRun->outcome(1)->at, fastRun->outcome(1)->at * 10.0, 1e-6);
}

TEST(SimulatedRun, CompletionTimeMatchesHopCount) {
  // With 1 ms fixed latency, r rounds over n nodes need r*n hops; the
  // initiator holds the answer when the last round's token returns (the
  // announce travels ahead of the first token, off the critical path).
  // The query sends n announce, r*n token and n result messages.
  struct Case {
    std::size_t nodes;
    Round rounds;
    double completionMs;
    std::size_t sends;
  };
  for (const Case c : {Case{4, 5, 20.0, 28}, Case{9, 5, 45.0, 63},
                       Case{9, 9, 81.0, 99}}) {
    SCOPED_TRACE("n=" + std::to_string(c.nodes) +
                 " r=" + std::to_string(c.rounds));
    std::vector<std::vector<Value>> values(c.nodes);
    for (std::size_t i = 0; i < c.nodes; ++i) {
      values[i] = {static_cast<Value>(i + 1)};
    }
    const auto sim =
        runQuery(data::fleetFromValues(values), topK(1, 1, c.rounds));
    EXPECT_DOUBLE_EQ(sim->outcome(1)->at, c.completionMs);
    EXPECT_EQ(sim->sends().size(), c.sends);
  }
}

/// Messages and bytes per message type over a whole run.
struct TypeCost {
  std::size_t messages = 0;
  std::size_t bytes = 0;
  friend bool operator==(const TypeCost&, const TypeCost&) = default;
};

std::map<net::MessageTag, TypeCost> costByType(const ServiceSim& sim) {
  std::map<net::MessageTag, TypeCost> cost;
  for (const ServiceSim::Send& send : sim.sends()) {
    ++cost[send.tag].messages;
    cost[send.tag].bytes += send.bytes;
  }
  return cost;
}

std::size_t totalBytes(const ServiceSim& sim) {
  std::size_t bytes = 0;
  for (const ServiceSim::Send& send : sim.sends()) bytes += send.bytes;
  return bytes;
}

TEST(SimulatedRun, ExactBytesPerMessageType) {
  // The §4.2 cost of one query in bytes, exactly: 9 nodes with 1000
  // uniform rows each, 5 rounds, 1-ms links.  A ranked value travels in
  // its domain's width (2 bytes for [1, 10000]) behind a 2-byte coding
  // header, so a k-value token is 18 + 2k bytes and a result 14 + 2k.  An
  // announce is 140 bytes.  A Sum's masked share stays 8 bytes wide (a
  // 24-byte token), and its result carries the default coding {0, 8}
  // (22 bytes).
  using net::MessageTag;
  data::UniformDistribution dist;
  Rng dataRng(2005);
  const auto dbs =
      data::fleetFromValues(data::generateValueSets(9, 1000, dist, dataRng));
  QueryDescriptor sum = topK(3, 1);
  sum.type = QueryType::Sum;
  sum.params = protocol::ProtocolParams{};
  struct Case {
    QueryDescriptor descriptor;
    std::map<MessageTag, TypeCost> cost;
    std::size_t bytes;
  };
  const Case cases[] = {
      {topK(1, 10, 5),
       {{MessageTag::QueryAnnounce, {9, 1260}},
        {MessageTag::RoundToken, {45, 45 * 38}},
        {MessageTag::ResultAnnouncement, {9, 9 * 34}}},
       3276},
      {topK(2, 100, 5),
       {{MessageTag::QueryAnnounce, {9, 1260}},
        {MessageTag::RoundToken, {45, 45 * 218}},
        {MessageTag::ResultAnnouncement, {9, 9 * 214}}},
       12996},
      {sum,
       {{MessageTag::QueryAnnounce, {9, 1260}},
        {MessageTag::SumToken, {9, 9 * 24}},
        {MessageTag::ResultAnnouncement, {9, 9 * 22}}},
       1674},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("query " + std::to_string(c.descriptor.queryId));
    const auto sim = runQuery(dbs, c.descriptor);
    ASSERT_NE(sim->outcome(c.descriptor.queryId), nullptr);
    ASSERT_TRUE(sim->outcome(c.descriptor.queryId)->result);
    EXPECT_EQ(costByType(*sim), c.cost);
    EXPECT_EQ(totalBytes(*sim), c.bytes);
  }
}

TEST(SimulatedRun, DisplacedAnnounceIsRecoveredByRetransmission) {
  // Pinned reorder draws: the initiator's first send, the announce to
  // node 1, is displaced by the window; its second, the round-1 token, is
  // not, so it overtakes the announce.  Node 1 drops the token of a query
  // it does not know yet; the initiator's retransmission after
  // retransmitAfter (1 s) recovers it and the answer is exact.
  const SimOptions::Reorder reorder{0.1, 20.0};
  constexpr std::uint64_t kSeed = 3;
  Rng draws(kSeed);  // FixedLatency draws nothing
  ASSERT_TRUE(draws.bernoulli(reorder.probability));
  ASSERT_FALSE(draws.bernoulli(reorder.probability));

  const auto dbs = data::fleetFromValues({{30}, {10}, {40}, {20}});
  SimOptions options;
  options.reorder = reorder;
  options.latencySeed = kSeed;
  const std::uint64_t dropped = ServiceCore::Metrics().droppedMessages.value();
  const std::uint64_t retransmits = ServiceCore::Metrics().retransmits.value();
  const auto sim = runQuery(dbs, topK(1, 1), options);
  EXPECT_GT(ServiceCore::Metrics().droppedMessages.value(), dropped);
  EXPECT_GT(ServiceCore::Metrics().retransmits.value(), retransmits);
  EXPECT_GT(sim->outcome(1)->at, 1'000.0);
  for (NodeId node = 0; node < 4; ++node) {
    EXPECT_EQ(sim->core(node).resultOf(1), (TopKVector{40})) << node;
  }
}

TEST(SimulatedRun, TopKWithRandomLatency) {
  data::UniformDistribution dist;
  Rng dataRng(4);
  const auto values = data::generateValueSets(6, 10, dist, dataRng);
  const sim::ExponentialLatency wan(5.0, 20.0);
  SimOptions options;
  options.latency = &wan;
  options.latencySeed = 5;
  const auto sim = runQuery(data::fleetFromValues(values), topK(1, 3), options);
  EXPECT_EQ(resultOf(*sim, 1), data::trueTopK(values, 3));
}

TEST(SimulatedRun, SurvivesNodeFailureWithRingRepair) {
  // Node 2 is down from the start: its predecessor condemns it after
  // deadAfterFailures refused sends and splices it out.  Its value never
  // enters; the result is the top over the survivors.
  const auto dbs = data::fleetFromValues({{30}, {10}, {9999}, {20}});
  SimOptions options;
  options.faults = net::FaultSpec::parse("crash:2@0");
  const auto sim = runQuery(dbs, topK(1, 1), options);
  EXPECT_EQ(resultOf(*sim, 1), (TopKVector{30}));
  EXPECT_TRUE(sim->crashed(2));
  for (NodeId node : {0u, 1u, 3u}) {
    EXPECT_EQ(sim->core(node).resultOf(1), (TopKVector{30})) << node;
  }
}

TEST(SimulatedRun, LateFailureAfterContributionKeepsValue) {
  // Node 2 dies on its third send (the round-2 token), after the exact
  // protocol has captured its value in round 1; the result keeps it.
  const auto dbs = data::fleetFromValues({{30}, {10}, {9999}, {20}});
  QueryDescriptor d = topK(1, 1, 8);
  d.params.p0 = 0.0;  // deterministic: the value enters in round 1
  SimOptions options;
  options.faults = net::FaultSpec::parse("crash:2@2");
  const auto sim = runQuery(dbs, d, options);
  EXPECT_EQ(resultOf(*sim, 1), (TopKVector{9999}));
  EXPECT_TRUE(sim->crashed(2));
}

TEST(SimulatedRun, MultipleFailures) {
  const auto dbs = data::fleetFromValues({{30}, {10}, {40}, {20}, {35}});
  SimOptions options;
  options.faults = net::FaultSpec::parse("crash:2@0,crash:4@0");
  const auto sim = runQuery(dbs, topK(1, 1), options);
  EXPECT_EQ(resultOf(*sim, 1), (TopKVector{30}));
  EXPECT_TRUE(sim->crashed(2));
  EXPECT_TRUE(sim->crashed(4));
}

TEST(SimulatedRun, ControllerFailurePromotesSuccessor) {
  // Crash each node in turn as it deals or passes round 2.  When the
  // initiator dies, its predecessor splices it out and the next node
  // becomes the ring's controller; the survivors still finish and agree.
  // With p0 = 0 every value was merged in round 1, so even a crashed
  // max-holder's value survives in the vector.
  const auto dbs = data::fleetFromValues({{30}, {10}, {40}, {20}});
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (NodeId node = 0; node < 4; ++node) {
      QueryDescriptor d = topK(1, 1, 6);
      d.params.p0 = 0.0;
      SimOptions options;
      options.faults = net::FaultSpec::parse("crash:" + std::to_string(node) +
                                             "@2");
      const auto sim = runQuery(dbs, d, options, 100 + seed * 8);
      for (NodeId survivor = 0; survivor < 4; ++survivor) {
        if (survivor == node) continue;
        EXPECT_EQ(sim->core(survivor).resultOf(1), (TopKVector{40}))
            << "seed " << seed << " crashed " << node << " survivor "
            << survivor;
      }
    }
  }
}

TEST(SimulatedRun, MessageCountAccounting) {
  const auto dbs = data::fleetFromValues({{1}, {2}, {3}});
  const auto sim = runQuery(dbs, topK(1, 1, 4));
  // The announce pass (3 hops), 4 rounds * 3 hops, and the result
  // dissemination pass (3 hops).
  EXPECT_EQ(sim->sends().size(), 3u + 4u * 3u + 3u);
}

TEST(SimulatedRun, TraceMatchesSynchronousSemantics) {
  data::UniformDistribution dist;
  Rng dataRng(10);
  const auto values = data::generateValueSets(4, 5, dist, dataRng);
  SimOptions options;
  options.service.captureTraces = true;
  const auto sim =
      runQuery(data::fleetFromValues(values), topK(1, 2), options);
  // Each node records its own steps; merged in ring order they chain
  // exactly like the synchronous runner's trace.
  std::vector<protocol::TraceStep> steps;
  for (NodeId node = 0; node < 4; ++node) {
    const auto trace = sim->core(node).traceOf(1);
    ASSERT_TRUE(trace.has_value()) << node;
    EXPECT_EQ(trace->result, resultOf(*sim, 1));
    steps.insert(steps.end(), trace->steps.begin(), trace->steps.end());
  }
  std::sort(steps.begin(), steps.end(), [](const auto& a, const auto& b) {
    return std::tie(a.round, a.position) < std::tie(b.round, b.position);
  });
  ASSERT_EQ(steps.size(), 12u * 4u);
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].input, steps[i - 1].output) << "step " << i;
  }
  EXPECT_EQ(steps.back().output, resultOf(*sim, 1));
}

TEST(SimulatedRun, NeedsThreeNodes) {
  const auto dbs = data::fleetFromValues({{1}, {2}});
  ServiceSim sim(dbs, {1, 2});
  EXPECT_THROW(sim.initiate(topK(1, 1), {0, 1}), ConfigError);
}

TEST(SimulatedRun, RejectsPerRoundRemap) {
  // The service routes every round on one agreed ring; the runner keeps
  // the §4.3 remap for the privacy experiments.
  const auto dbs = data::fleetFromValues({{1}, {2}, {3}});
  ServiceSim sim(dbs, {1, 2, 3});
  QueryDescriptor d = topK(1, 1);
  d.params.remapEachRound = true;
  EXPECT_THROW(sim.initiate(d, {0, 1, 2}), ConfigError);
}

// Announces no node can serve: per-round remapping, and every mechanism
// QueryDescriptor::decode rejects (the descriptor is the announce's only
// copy of the mechanism).  Each case patches the bytes of one encoded
// schedule descriptor.
TEST(ServiceCore, AnnounceWithPerRoundRemapIsDropped) {
  const auto dbs = data::fleetFromValues({{1}, {2}, {3}});
  // The encoding ends [remap u8][filter][groupSize 0][mechanism 0].
  const Bytes base = topK(5, 1).encode();
  ASSERT_EQ(base.back(), 0);
  ByteWriter emptyFilter;
  Filter{}.encodeTo(emptyFilter);
  Bytes remap = base;
  remap[base.size() - 3 - emptyFilter.size()] = 1;
  ASSERT_TRUE(QueryDescriptor::decode(remap).params.remapEachRound);
  // Unpatched, the same announce is served.
  ServiceCore control(1, dbs[1], 7, ServiceOptions{}, nullptr);
  const net::QueryAnnounce served{5, base, {0, 1, 2}};
  const ServiceCore::Effects servedFx =
      control.onMessage(0, net::Message{served}, 0, {});
  ASSERT_EQ(servedFx.scans.size(), 1u);

  // `base` with its mechanism byte replaced by `id` and `writeKnob`'s bytes.
  const auto mechanism = [&base](std::uint64_t id, auto writeKnob) {
    ByteWriter w;
    w.writeBytes(std::span(base).first(base.size() - 1));
    w.writeVarint(id);
    writeKnob(w);
    return w.take();
  };
  const auto segments = [](std::uint64_t s) {
    return [s](ByteWriter& w) { w.writeVarint(s); };
  };
  const auto epsilon = [](double e) {
    return [e](ByteWriter& w) { w.writeF64(e); };
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, Bytes>> cases = {
      {"per-round remap", remap},
      {"unknown mechanism 3", mechanism(3, [](ByteWriter&) {})},
      {"segments 1", mechanism(1, segments(1))},
      {"segments 65", mechanism(1, segments(65))},
      {"ldp epsilon 0", mechanism(2, epsilon(0.0))},
      {"ldp epsilon NaN", mechanism(2, epsilon(nan))},
      {"ldp epsilon 65", mechanism(2, epsilon(65.0))},
  };
  for (const auto& [name, descriptor] : cases) {
    SCOPED_TRACE(name);
    ServiceCore core(1, dbs[1], 7, ServiceOptions{}, nullptr);
    const net::QueryAnnounce announce{5, descriptor, {0, 1, 2}};
    const std::uint64_t before = core.metrics().droppedMessages.value();
    const ServiceCore::Effects fx =
        core.onMessage(0, net::Message{announce}, 0, {});
    EXPECT_TRUE(fx.sends.empty());
    EXPECT_TRUE(fx.scans.empty());
    EXPECT_EQ(core.activeQueries(), 0u);
    EXPECT_EQ(core.metrics().droppedMessages.value(), before + 1);
  }
}

// A query's frames are encoded once: the retransmit of a stalled query and
// the retry of a failed send after ring repair carry the very buffers the
// core first queued, and the announce goes out again only when it is not
// itself the last message.
TEST(ServiceCore, RetransmitAndRetrySendTheRetainedFrame) {
  const LogLevel savedLevel = logLevel();
  setLogLevel(LogLevel::Error);
  const auto dbs = data::fleetFromValues({{40, 7}, {30}, {20}, {10}});
  ServiceOptions options;
  options.retransmitAfter = std::chrono::milliseconds(100);
  options.deadAfterFailures = 1;
  const ServiceCore::TimePoint t0{};
  const ServiceCore::TimePoint stalled = t0 + options.retransmitAfter;
  const QueryDescriptor d = topK(5, 2);

  // The initiator queues the announce, then the first round token.
  ServiceCore head(0, dbs[0], 7, options, nullptr);
  const ServiceCore::Effects started =
      head.initiate(d, identityRing(4), head.scanTable(d), t0);
  ASSERT_EQ(started.sends.size(), 2u);
  const ServiceCore::Outbound announce = started.sends[0];
  const ServiceCore::Outbound token = started.sends[1];
  ASSERT_TRUE(std::holds_alternative<net::QueryAnnounce>(
      net::decodeMessage(*announce.wire)));
  ASSERT_TRUE(std::holds_alternative<net::RoundToken>(
      net::decodeMessage(*token.wire)));
  const Bytes announceBytes = *announce.wire;
  const Bytes tokenBytes = *token.wire;

  // Stalled: both frames go out again, as the same buffers.
  const ServiceCore::Effects resent = head.tick(stalled);
  ASSERT_EQ(resent.sends.size(), 2u);
  EXPECT_EQ(resent.sends[0].wire, announce.wire);
  EXPECT_EQ(resent.sends[1].wire, token.wire);
  EXPECT_EQ(resent.sends[1].target, 1u);

  // The token's send fails: node 1 is cut out and the retry carries the
  // same frame to node 2, ahead of the repair notify.
  const ServiceCore::Effects retried = head.onSendFailed(token);
  ASSERT_GE(retried.sends.size(), 2u);
  EXPECT_EQ(retried.sends[0].wire, token.wire);
  EXPECT_EQ(retried.sends[0].target, 2u);
  EXPECT_TRUE(std::holds_alternative<net::RingRepair>(
      net::decodeMessage(*retried.sends[1].wire)));
  EXPECT_EQ(*announce.wire, announceBytes);
  EXPECT_EQ(*token.wire, tokenBytes);

  // A follower that has only forwarded the announce retransmits it once:
  // it is both the announce and the last message.
  ServiceCore follower(2, dbs[2], 9, options, nullptr);
  const ServiceCore::Effects joined =
      follower.onMessage(1, net::decodeMessage(announceBytes), 0, t0);
  ASSERT_EQ(joined.sends.size(), 1u);
  const ServiceCore::Effects again = follower.tick(stalled);
  ASSERT_EQ(again.sends.size(), 1u);
  EXPECT_EQ(again.sends[0].wire, joined.sends[0].wire);
  EXPECT_EQ(*again.sends[0].wire, *joined.sends[0].wire);
  setLogLevel(savedLevel);
}

// A ranked frame must arrive in its query's domain coding, with every value
// inside the domain; anything else is dropped and counted, and the query
// carries on with the next good frame.
TEST(ServiceCore, RankedFramesOutsideTheQueryDomainAreDropped) {
  const LogLevel savedLevel = logLevel();
  setLogLevel(LogLevel::Error);
  const auto dbs = data::fleetFromValues({{40, 7}, {30}, {20}, {10}});
  const QueryDescriptor d = topK(5, 2);
  const ServiceCore::TimePoint t0{};
  ServiceCore head(0, dbs[0], 7, ServiceOptions{}, nullptr);
  const ServiceCore::Effects started =
      head.initiate(d, identityRing(4), head.scanTable(d), t0);
  ASSERT_EQ(started.sends.size(), 2u);
  const net::Message announce = net::decodeMessage(*started.sends[0].wire);
  const auto token =
      std::get<net::RoundToken>(net::decodeMessage(*started.sends[1].wire));
  ASSERT_EQ(token.coding, net::domainCoding(d.params.domain));
  ASSERT_EQ(started.sends[1].wire->size(), 1 + 8 + 4 + 2 + 1 + 2 * 2 + 2u);

  ServiceCore follower(1, dbs[1], 9, ServiceOptions{}, nullptr);
  const ServiceCore::Effects joined = follower.onMessage(0, announce, 0, t0);
  ASSERT_EQ(joined.scans.size(), 1u);
  (void)follower.onScanned(joined.scans[0],
                           follower.scanTable(joined.scans[0].descriptor), t0);
  const auto dropped = [&follower](const net::Message& message) {
    const std::uint64_t before = follower.metrics().droppedMessages.value();
    // Through the codec, as a peer's frame would arrive.
    const ServiceCore::Effects fx = follower.onMessage(
        0, net::decodeMessage(net::encodeMessage(message)), 0, {});
    EXPECT_TRUE(fx.sends.empty());
    EXPECT_TRUE(fx.retired.empty());
    return follower.metrics().droppedMessages.value() == before + 1;
  };

  // The same values in the old 8-byte coding, or a wider domain's.
  net::RoundToken wrongCoding = token;
  wrongCoding.coding = net::ValueCoding{};
  EXPECT_TRUE(dropped(wrongCoding));
  wrongCoding.coding = net::domainCoding(Domain{0, 10000});
  EXPECT_TRUE(dropped(wrongCoding));
  // In the right coding but past domain.max: 2 bytes hold up to 65536.
  net::RoundToken tooBig = token;
  tooBig.vector.front() = d.params.domain.max + 1;
  EXPECT_TRUE(dropped(tooBig));
  EXPECT_EQ(follower.activeQueries(), 1u);

  // A result past domain.max, and one in the wrong coding.
  net::ResultAnnouncement bigResult{5, {d.params.domain.max + 1, 40}, {},
                                    token.coding};
  EXPECT_TRUE(dropped(bigResult));
  net::ResultAnnouncement wideResult{5, {40, 30}};
  EXPECT_TRUE(dropped(wideResult));
  EXPECT_EQ(follower.activeQueries(), 1u);

  // The genuine token still goes through, and so does a good result.
  const ServiceCore::Effects passed =
      follower.onMessage(0, net::Message{token}, 0, t0);
  ASSERT_EQ(passed.sends.size(), 1u);
  EXPECT_EQ(passed.sends[0].target, 2u);
  const ServiceCore::Effects done = follower.onMessage(
      0, net::Message{net::ResultAnnouncement{5, {40, 30}, {}, token.coding}},
      0, t0);
  ASSERT_EQ(done.retired.size(), 1u);
  EXPECT_EQ(done.retired[0].result, (TopKVector{40, 30}));
  setLogLevel(savedLevel);
}

TopKVector expectedAnswer(const QueryDescriptor& d,
                          const std::vector<std::vector<Value>>& values,
                          const std::vector<std::uint64_t>& seeds);

/// Runs `d` like runQuery and checks that no node dropped a frame and that
/// every ranked frame travelled in `width`-byte values: a k-value token is
/// 18 + width * k bytes, a result 14 + width * k.
std::unique_ptr<ServiceSim> runInWidth(
    const std::vector<data::PrivateDatabase>& dbs, const QueryDescriptor& d,
    std::uint64_t seedBase, std::size_t width) {
  // Every core counts into the one process-wide cell.
  const obs::Counter& drops = obs::counter("privtopk.query.dropped_messages",
                                           {{"engine", "service"}});
  const std::uint64_t dropsBefore = drops.value();
  auto sim = std::make_unique<ServiceSim>(dbs, seedsFrom(seedBase, dbs.size()));
  sim->initiate(d, identityRing(dbs.size()));
  sim->run();
  EXPECT_EQ(drops.value(), dropsBefore);
  const std::size_t k = d.effectiveK();
  std::size_t ranked = 0;
  for (const ServiceSim::Send& send : sim->sends()) {
    if (send.tag == net::MessageTag::RoundToken) {
      EXPECT_EQ(send.bytes, 18 + width * k);
      ++ranked;
    } else if (send.tag == net::MessageTag::ResultAnnouncement) {
      EXPECT_EQ(send.bytes, 14 + width * k);
      ++ranked;
    }
  }
  EXPECT_GT(ranked, 0u);
  return sim;
}

TEST(SimulatedRun, BottomKRoundTripsInTwoByteCoding) {
  // A bottom-k query runs on mirrored values (min + max - v), which stay
  // inside the domain, so its frames keep the domain's 2-byte width.
  const std::vector<std::vector<Value>> values = {
      {1, 9000}, {2, 10000}, {5000, 3}, {7, 8}};
  const auto dbs = data::fleetFromValues(values);
  QueryDescriptor d = topK(11, 3, 8);
  d.type = QueryType::BottomK;
  const auto sim = runInWidth(dbs, d, 100, 2);
  for (NodeId node = 0; node < dbs.size(); ++node) {
    EXPECT_EQ(sim->core(node).resultOf(11), (TopKVector{1, 2, 3}));
  }
}

TEST(SimulatedRun, LdpRoundTripsInTwoByteCoding) {
  // LDP noise is clamped into the domain; values at both domain ends and a
  // small epsilon make the clamp bite.  The answer matches the synchronous
  // runner over the same node seeds, and every frame is 2 bytes a value.
  const std::vector<std::vector<Value>> values = {
      {10000, 1}, {1, 2}, {9999, 10000}, {5000, 1}};
  const auto dbs = data::fleetFromValues(values);
  QueryDescriptor d = topK(12, 2);
  d.params.rounds.reset();
  d.params.mechanism.kind = protocol::MechanismKind::Ldp;
  d.params.mechanism.ldpEpsilon = 0.01;
  constexpr std::uint64_t kSeedBase = 100;
  const auto sim = runInWidth(dbs, d, kSeedBase, 2);
  const TopKVector answer = resultOf(*sim, 12);
  ASSERT_EQ(answer.size(), 2u);
  EXPECT_EQ(answer, expectedAnswer(d, values, seedsFrom(kSeedBase, 4)));
}

// ---------------------------------------------------------------------------
// Grouped execution (§4.2) in virtual time.

QueryDescriptor grouped(std::uint64_t id, std::size_t k,
                        std::size_t groupSize) {
  QueryDescriptor d = topK(id, k, 15);
  d.groupSize = groupSize;
  return d;
}

std::size_t phaseOneGroupsRun(const ServiceSim& sim, std::uint64_t parentId) {
  std::set<std::uint64_t> groups;
  for (std::size_t g = 0; g < sim.nodes(); ++g) {
    const std::uint64_t subId = protocol::groupSubQueryId(parentId, g);
    for (const auto& retired : sim.retirements()) {
      if (retired.queryId == subId && retired.result) groups.insert(subId);
    }
  }
  return groups.size();
}

TEST(RunGroupedSimulated, ParallelTimeBeatsFlat) {
  data::UniformDistribution dist;
  Rng dataRng(20);
  const auto values = data::generateValueSets(64, 5, dist, dataRng);
  const auto dbs = data::fleetFromValues(values);
  const sim::FixedLatency latency(2.0);
  SimOptions options;
  options.latency = &latency;
  const auto groupedRun = runQuery(dbs, grouped(1, 1, 8), options);
  const auto flatRun = runQuery(dbs, topK(1, 1, 15), options);
  EXPECT_EQ(resultOf(*groupedRun, 1), data::trueTopK(values, 1));
  EXPECT_EQ(resultOf(*flatRun, 1), data::trueTopK(values, 1));
  EXPECT_EQ(phaseOneGroupsRun(*groupedRun, 1), 8u);
  // 8 parallel rings of 8 + one delegate ring of 8 vs a flat ring of 64.
  EXPECT_LT(groupedRun->outcome(1)->at, flatRun->outcome(1)->at / 2);
}

TEST(RunGroupedSimulated, HealthySlowQueryRetransmitsNothing) {
  // With retransmitAfter (1.5 s) above every ring's round trip, a healthy
  // query resends nothing - not the phase-1 fan-out while the
  // coordinator's own group is still running, and not a member's result
  // probe while the merge phase runs - so it sends exactly the messages
  // of a run with retransmission off.
  //   15 nodes in three groups of 5 over 200-ms links: a group round
  //   takes 1 s, a merge round 0.6 s.  With 12 rounds the members wait
  //   through a 7-s merge phase.
  //   27 nodes in nine groups of 3 over 100-ms links: the merge ring is
  //   three times as long as a group ring.
  struct Case {
    std::size_t nodes;
    std::size_t groupSize;
    Round rounds;
    double linkMs;
  };
  for (const Case c : {Case{15, 5, 2, 200.0}, Case{15, 5, 12, 200.0},
                       Case{27, 3, 12, 100.0}}) {
    SCOPED_TRACE("n=" + std::to_string(c.nodes) + " groups of " +
                 std::to_string(c.groupSize) +
                 " r=" + std::to_string(c.rounds));
    data::UniformDistribution dist;
    Rng dataRng(40);
    const auto values = data::generateValueSets(c.nodes, 4, dist, dataRng);
    const auto dbs = data::fleetFromValues(values);
    const sim::FixedLatency wan(c.linkMs);
    SimOptions options;
    options.latency = &wan;
    QueryDescriptor d = grouped(1, 1, c.groupSize);
    d.params.rounds = c.rounds;
    d.params.p0 = 0.0;  // exact after round 1
    options.service.retransmitAfter = std::chrono::milliseconds(0);
    const auto silent = runQuery(dbs, d, options);
    options.service.retransmitAfter = std::chrono::milliseconds(1'500);
    const std::uint64_t before = ServiceCore::Metrics().retransmits.value();
    const auto run = runQuery(dbs, d, options);
    EXPECT_EQ(ServiceCore::Metrics().retransmits.value(), before);
    EXPECT_EQ(run->sends().size(), silent->sends().size());
    EXPECT_EQ(resultOf(*run, 1), data::trueTopK(values, 1));
    EXPECT_EQ(phaseOneGroupsRun(*run, 1), c.nodes / c.groupSize);
    EXPECT_GT(run->outcome(1)->at, 3'000.0);
  }
}

TEST(RunGroupedSimulated, FallsBackToFlat) {
  data::UniformDistribution dist;
  Rng dataRng(22);
  const auto values = data::generateValueSets(6, 5, dist, dataRng);
  const auto sim = runQuery(data::fleetFromValues(values), grouped(1, 2, 3));
  EXPECT_EQ(phaseOneGroupsRun(*sim, 1), 0u);
  EXPECT_EQ(resultOf(*sim, 1), data::trueTopK(values, 2));
}

TEST(RunGroupedSimulated, RejectsTinyGroups) {
  const auto dbs = data::fleetFromValues({{1}, {2}, {3}});
  ServiceSim sim(dbs, {1, 2, 3});
  EXPECT_THROW(sim.initiate(grouped(1, 1, 2), {0, 1, 2}), ConfigError);
}

/// The plan a grouped service run follows: the coordinator's layout and
/// every member's derived per-phase seeds (node ids double as value-set
/// indices on the identity ring).
protocol::GroupPlan planFor(const QueryDescriptor& descriptor,
                            const std::vector<std::uint64_t>& seeds) {
  const std::vector<NodeId> ring = identityRing(seeds.size());
  Rng layoutRng(protocol::groupLayoutSeed(seeds.front(), descriptor.queryId));
  const protocol::GroupLayout layout = protocol::makeGroupLayout(
      ring, ring.front(), descriptor.groupSize, layoutRng);
  protocol::GroupPlan plan;
  for (const auto& group : layout.groups) {
    std::vector<std::size_t> members;
    std::vector<std::uint64_t> groupSeeds;
    for (NodeId node : group) {
      members.push_back(node);
      groupSeeds.push_back(
          protocol::groupPhaseSeed(seeds[node], descriptor.queryId, 1));
    }
    plan.groups.push_back(std::move(members));
    plan.groupSeeds.push_back(std::move(groupSeeds));
    plan.mergeSeeds.push_back(protocol::groupPhaseSeed(
        seeds[group.front()], descriptor.queryId, 2));
  }
  return plan;
}

TEST(RunGroupedProperty, PlanReplayMatchesSimulatedReplay) {
  // 13 nodes in groups of 3: four group rings, one of them of 4 members.
  data::UniformDistribution dist;
  Rng dataRng(32);
  const auto values = data::generateValueSets(13, 6, dist, dataRng);
  const QueryDescriptor d = grouped(9, 2, 3);
  const auto sim = runQuery(data::fleetFromValues(values), d, {}, 300);
  protocol::ProtocolParams params = d.params;
  params.k = d.effectiveK();
  Rng runnerRng(7);
  const protocol::GroupedRunResult runnerOut = protocol::runGroupedWithPlan(
      values, params, d.kind, planFor(d, seedsFrom(300, 13)), runnerRng);
  // Pinned seeds: the runner's plan replay and the simulated services
  // agree bit for bit.
  EXPECT_EQ(resultOf(*sim, 9), runnerOut.result);
  EXPECT_EQ(phaseOneGroupsRun(*sim, 9), runnerOut.groups);
}

// ---------------------------------------------------------------------------
// Seed sweeps with invariants checked after every event.

/// Quiets the services' per-retransmission warnings for a sweep.
class QuietLogs {
 public:
  QuietLogs() : saved_(logLevel()) { setLogLevel(LogLevel::Error); }
  ~QuietLogs() { setLogLevel(saved_); }

 private:
  LogLevel saved_;
};

enum class Shape { Flat, Aggregate, Segmented, Grouped };

const char* shapeName(Shape shape) {
  switch (shape) {
    case Shape::Flat: return "flat";
    case Shape::Aggregate: return "aggregate";
    case Shape::Segmented: return "segmented";
    case Shape::Grouped: return "grouped";
  }
  return "?";
}

QueryDescriptor descriptorFor(Shape shape, std::uint64_t id, std::size_t k) {
  QueryDescriptor d = topK(id, k, 6);
  switch (shape) {
    case Shape::Flat: break;
    case Shape::Aggregate:
      d.type = QueryType::Sum;
      d.params = protocol::ProtocolParams{};
      break;
    case Shape::Segmented:
      d.params.rounds.reset();
      d.params.mechanism.kind = protocol::MechanismKind::Segmented;
      d.params.mechanism.segments = 3;
      break;
    case Shape::Grouped: d.groupSize = 3; break;
  }
  return d;
}

/// The answer the synchronous runner gives for the same pinned seeds
/// (aggregates: the plain total).
TopKVector expectedAnswer(const QueryDescriptor& d,
                          const std::vector<std::vector<Value>>& values,
                          const std::vector<std::uint64_t>& seeds) {
  if (d.isAggregate()) {
    Value total = 0;
    for (const auto& node : values) {
      for (Value v : node) total += v;
    }
    return {total};
  }
  protocol::ProtocolParams params = d.params;
  params.k = d.effectiveK();
  Rng rng(7);
  if (d.groupSize >= 3 && values.size() / d.groupSize >= 3) {
    return protocol::runGroupedWithPlan(values, params, d.kind,
                                        planFor(d, seeds), rng)
        .result;
  }
  protocol::core::EngineOverrides overrides;
  overrides.ringOrder = identityRing(values.size());
  overrides.nodeSeeds = seeds;
  return protocol::RingQueryRunner(params, d.kind)
      .run(values, rng, overrides)
      .result;
}

/// Checks the per-event invariants; records the first violation.
class InvariantChecker {
 public:
  explicit InvariantChecker(std::chrono::milliseconds staleAfter)
      : staleAfterMs_(static_cast<double>(staleAfter.count())) {}

  void operator()(const ServiceSim& sim) {
    if (!violation_.empty()) return;
    const auto now = sim.timePoint();
    for (NodeId node = 0; node < sim.nodes(); ++node) {
      if (sim.crashed(node)) continue;
      const ServiceCore& core = sim.core(node);
      for (const ServiceCore::ActiveView& q : core.activeView()) {
        if (!q.aborted && q.ringSize < protocol::core::kMinRingSize) {
          fail(sim, node, "query " + std::to_string(q.queryId) +
                            " runs on a ring of " +
                            std::to_string(q.ringSize));
        }
        const double ageMs =
            std::chrono::duration<double, std::milli>(now - q.registeredAt)
                .count();
        if (ageMs > staleAfterMs_ + 2.0 * kMaintainInterval.count()) {
          fail(sim, node, "query " + std::to_string(q.queryId) +
                            " outlived staleAfter");
        }
      }
      if (core.activeQueries() == 0 && core.stashedMessages() != 0) {
        fail(sim, node, "stash outlived its grouped query");
      }
    }
    const auto& retired = sim.retirements();
    for (; seenRetirements_ < retired.size(); ++seenRetirements_) {
      const auto& r = retired[seenRetirements_];
      if (!retiredOnce_.insert({r.node, r.queryId}).second) {
        fail(sim, r.node,
             "retired query " + std::to_string(r.queryId) + " twice");
      }
    }
  }

  [[nodiscard]] const std::string& violation() const { return violation_; }

 private:
  void fail(const ServiceSim& sim, NodeId node, const std::string& what) {
    if (!violation_.empty()) return;
    std::ostringstream os;
    os << "t=" << sim.now() << "ms node " << node << ": " << what;
    violation_ = os.str();
  }

  double staleAfterMs_;
  std::size_t seenRetirements_ = 0;
  std::set<std::pair<NodeId, std::uint64_t>> retiredOnce_;
  std::string violation_;
};

struct SweepCase {
  std::uint64_t seed = 0;
  Shape shape = Shape::Flat;
  net::FaultSpec faults;
  SimOptions::Reorder reorder;
};

std::string describe(const SweepCase& c) {
  std::ostringstream os;
  os << "seed=" << c.seed << " shape=" << shapeName(c.shape) << " spec=\""
     << c.faults.toString() << "\" reorder=" << c.reorder.probability
     << ":" << c.reorder.windowMs;
  return os.str();
}

/// Runs one sweep case and checks the invariants, the answer and
/// convergence.  Nodes 0..n-1 hold `values`; node 0 initiates.
void runCase(const SweepCase& c,
             const std::vector<std::vector<Value>>& values) {
  SCOPED_TRACE(describe(c));
  const auto dbs = data::fleetFromValues(values);
  const auto seeds = seedsFrom(c.seed * 64 + 1, values.size());
  const sim::UniformLatency jitter(0.5, 3.0);
  SimOptions options;
  options.latency = &jitter;
  options.latencySeed = c.seed;
  options.faults = c.faults;
  options.reorder = c.reorder;
  options.service.staleAfter = std::chrono::milliseconds(20'000);
  const QueryDescriptor d = descriptorFor(c.shape, c.seed + 1, 2);
  ServiceSim sim(dbs, seeds, options);
  InvariantChecker checker(options.service.staleAfter);
  sim.setObserver(std::ref(checker));
  const std::uint64_t retransmits = ServiceCore::Metrics().retransmits.value();
  sim.initiate(d, identityRing(values.size()));
  sim.run();
  ASSERT_EQ(checker.violation(), "");
  if (c.faults.empty() && c.reorder.probability == 0.0) {
    // A lossless FIFO run retransmits nothing.
    EXPECT_EQ(ServiceCore::Metrics().retransmits.value(), retransmits);
  }

  // Convergence: every live node ends with no state and no stash.
  for (NodeId node = 0; node < sim.nodes(); ++node) {
    if (sim.crashed(node)) continue;
    EXPECT_EQ(sim.core(node).activeQueries(), 0u) << "node " << node;
    EXPECT_EQ(sim.core(node).stashedMessages(), 0u) << "node " << node;
  }
  if (!c.faults.crashes.empty()) return;
  // Without crashes every message lost is retransmitted identically, so
  // each node ends with exactly the fault-free runner's answer.
  const TopKVector expected = expectedAnswer(d, values, seeds);
  for (NodeId node = 0; node < sim.nodes(); ++node) {
    EXPECT_EQ(sim.core(node).resultOf(d.queryId), expected)
        << "node " << node;
  }
}

TEST(ServiceSimSweep, SeededFederationsHoldInvariants) {
  const QuietLogs quiet;
  // Seeds below kFifoSeeds run FIFO links; the rest reorder them.
  constexpr std::uint64_t kFifoSeeds = 480;
  constexpr std::uint64_t kSeeds = 640;
  std::size_t faulted = 0;
  std::size_t recovered = 0;  // reorder cases that needed a retransmit
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng shapeRng(seed);
    SweepCase c;
    c.seed = seed;
    c.shape = static_cast<Shape>(seed % 4);
    const std::size_t n = c.shape == Shape::Grouped ? 9 + shapeRng.index(4)
                                                    : 3 + shapeRng.index(5);
    data::UniformDistribution dist;
    const auto values = data::generateValueSets(n, 4, dist, shapeRng);
    if (seed >= kFifoSeeds) {
      // Fault-free, but a tenth of all sends are displaced by a window
      // longer than the jitter, so later sends on the link overtake them:
      // recovery goes through retransmission, and every node must still
      // end with the runner's exact answer.
      c.reorder = {0.1, 5.0};
      const std::uint64_t before = ServiceCore::Metrics().retransmits.value();
      runCase(c, values);
      if (HasFatalFailure()) return;
      recovered += ServiceCore::Metrics().retransmits.value() > before ? 1 : 0;
      continue;
    }
    // A third fault-free, a third with drops, a third with drops and a
    // crash.
    const std::uint64_t mode = (seed / 4) % 3;
    if (mode >= 1) {
      for (int i = 0; i < 3; ++i) {
        const auto from = static_cast<NodeId>(shapeRng.index(n));
        c.faults.drops.push_back(
            {from, static_cast<NodeId>((from + 1) % n),
             1 + shapeRng.index(8)});
      }
    }
    if (mode == 2) {
      c.faults.crashes.push_back(
          {static_cast<NodeId>(1 + shapeRng.index(n - 1)),
           shapeRng.index(12)});
    }
    faulted += c.faults.empty() ? 0 : 1;
    runCase(c, values);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(faulted, kFifoSeeds / 2);
  // The reorder seeds do take the recovery path (53 of the 160 do).
  EXPECT_GT(recovered, (kSeeds - kFifoSeeds) / 5);
}

TEST(ServiceSimSweep, DropEachMessageOfAGroupedQuery) {
  // Which hop a fixed-position drop hits depends on thread timing in a
  // live federation; here every message of one grouped query is dropped
  // in turn.  Each run must still converge to the fault-free answer on
  // every node - including drops of the final result's dissemination,
  // which the members' result-replay probe recovers.
  const QuietLogs quiet;
  data::UniformDistribution dist;
  Rng dataRng(55);
  const auto values = data::generateValueSets(9, 4, dist, dataRng);
  SweepCase base;
  base.seed = 3;
  base.shape = Shape::Grouped;

  // The fault-free run names the nth message's link and its index on it.
  const auto dbs = data::fleetFromValues(values);
  const sim::UniformLatency jitter(0.5, 3.0);
  SimOptions options;
  options.latency = &jitter;
  options.latencySeed = base.seed;
  ServiceSim reference(dbs, seedsFrom(base.seed * 64 + 1, values.size()),
                       options);
  reference.initiate(descriptorFor(Shape::Grouped, base.seed + 1, 2),
                     identityRing(values.size()));
  reference.run();
  const auto& sends = reference.sends();
  ASSERT_GT(sends.size(), 40u);
  std::map<std::pair<NodeId, NodeId>, std::size_t> perLink;
  for (const auto& send : sends) {
    SweepCase c = base;
    c.faults.drops.push_back(
        {send.from, send.to, ++perLink[{send.from, send.to}]});
    runCase(c, values);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace privtopk::query
