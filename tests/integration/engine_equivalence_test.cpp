// Cross-engine equivalence: the synchronous runner, query::ServiceSim (the
// service's ServiceCore in virtual time) and a live in-process NodeService
// ring all drive the same protocol::core::Participant, so under pinned
// randomness (explicit ring order + per-node algorithm seeds,
// core::EngineOverrides) the three must produce BIT-IDENTICAL result
// vectors.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "data/generator.hpp"
#include "net/inproc.hpp"
#include "protocol/group.hpp"
#include "protocol/runner.hpp"
#include "query/service.hpp"
#include "query/service_sim.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kNodes = 4;

// Seeding contract: a NodeService seeded S builds its FIRST ring query's
// algorithm from Rng(S), which is exactly what EngineOverrides::nodeSeeds
// makes the runner do.  Each scenario therefore runs on a fresh cluster.
const std::vector<std::uint64_t> kNodeSeeds = {9000, 9001, 9002, 9003};
const std::vector<NodeId> kRing = {0, 1, 2, 3};

QueryDescriptor makeDescriptor(std::uint64_t id, QueryType type,
                               protocol::ProtocolKind kind, std::size_t k) {
  QueryDescriptor d;
  d.queryId = id;
  d.type = type;
  d.kind = kind;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = 6;
  return d;
}

// Every node of a ServiceSim federation must end with `expected`.
void expectSimulatorAgrees(const std::vector<data::PrivateDatabase>& dbs,
                           const std::vector<std::uint64_t>& seeds,
                           const QueryDescriptor& descriptor,
                           const std::vector<NodeId>& ring,
                           const TopKVector& expected) {
  ServiceSim sim(dbs, seeds);
  sim.initiate(descriptor, ring);
  sim.run();
  const ServiceSim::Retired* outcome = sim.outcome(descriptor.queryId);
  ASSERT_NE(outcome, nullptr) << "simulated initiator never completed";
  EXPECT_EQ(outcome->result, expected) << "simulator diverged";
  for (NodeId node : ring) {
    EXPECT_EQ(sim.core(node).resultOf(descriptor.queryId), expected)
        << "simulated node " << node << " diverged";
  }
}

// Returns the agreed result so mechanism tests can compare it against the
// exact protocol's answer.
TopKVector expectEnginesAgree(const QueryDescriptor& descriptor) {
  data::FleetSpec spec;
  spec.nodes = kNodes;
  spec.rowsPerNode = 12;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng dataRng(42);
  const auto dbs = data::generateFleet(spec, dataRng);
  const auto values = data::fleetValues(dbs, "sales", "revenue");

  protocol::ProtocolParams params = descriptor.params;
  params.k = descriptor.effectiveK();

  protocol::core::EngineOverrides overrides;
  overrides.ringOrder = kRing;
  overrides.nodeSeeds = kNodeSeeds;

  // Engine 1: synchronous runner.
  Rng runnerRng(7);
  const protocol::RingQueryRunner runner(params, descriptor.kind);
  const auto runnerOut = runner.run(values, runnerRng, overrides);

  // Engine 2: the service core in virtual time.
  expectSimulatorAgrees(dbs, kNodeSeeds, descriptor, kRing, runnerOut.result);

  // Engine 3: a live NodeService ring over an in-process transport.
  net::InProcTransport transport(kNodes);
  std::vector<std::unique_ptr<NodeService>> services;
  for (std::size_t i = 0; i < kNodes; ++i) {
    services.push_back(std::make_unique<NodeService>(
        static_cast<NodeId>(i), dbs[i], transport, kNodeSeeds[i]));
    services.back()->start();
  }
  auto future = services.front()->initiate(descriptor, kRing);
  if (future.wait_for(5s) != std::future_status::ready) {
    ADD_FAILURE() << "service initiator never completed";
  } else {
    EXPECT_EQ(future.get(), runnerOut.result) << "service initiator diverged";
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto result = services[i]->waitFor(descriptor.queryId, 5000ms);
      if (!result.has_value()) {
        ADD_FAILURE() << "service " << i << " never completed";
        continue;
      }
      EXPECT_EQ(*result, runnerOut.result) << "service " << i << " diverged";
    }
  }
  for (auto& s : services) s->stop();
  transport.shutdown();
  return runnerOut.result;
}

// ---------------------------------------------------------------------------
// Grouped execution (§4.2): the distributed two-phase run is a pure
// function of the coordinator seed (group layout), the member seeds
// (per-phase algorithm streams) and the parent query id, so
// runGroupedWithPlan can replay it exactly.

constexpr std::size_t kGroupNodes = 9;
const std::vector<std::uint64_t> kGroupSeeds = {9100, 9101, 9102, 9103, 9104,
                                                9105, 9106, 9107, 9108};
const std::vector<NodeId> kGroupRing = {0, 1, 2, 3, 4, 5, 6, 7, 8};

QueryDescriptor makeGroupedDescriptor(std::uint64_t id, QueryType type,
                                      protocol::ProtocolKind kind,
                                      std::size_t k) {
  QueryDescriptor d = makeDescriptor(id, type, kind, k);
  d.groupSize = 3;
  return d;
}

// Rebuilds the exact plan the coordinating NodeService derives: same
// layout Rng, per-member phase-1 seeds, per-delegate phase-2 seeds.  Node
// ids double as value-set indices because kGroupRing is the identity.
protocol::GroupPlan planFor(const QueryDescriptor& descriptor) {
  Rng layoutRng(
      protocol::groupLayoutSeed(kGroupSeeds.front(), descriptor.queryId));
  const protocol::GroupLayout layout = protocol::makeGroupLayout(
      kGroupRing, kGroupRing.front(), descriptor.groupSize, layoutRng);
  protocol::GroupPlan plan;
  for (const auto& group : layout.groups) {
    std::vector<std::size_t> members;
    std::vector<std::uint64_t> seeds;
    for (NodeId node : group) {
      members.push_back(node);
      seeds.push_back(
          protocol::groupPhaseSeed(kGroupSeeds[node], descriptor.queryId, 1));
    }
    plan.groups.push_back(std::move(members));
    plan.groupSeeds.push_back(std::move(seeds));
    plan.mergeSeeds.push_back(protocol::groupPhaseSeed(
        kGroupSeeds[group.front()], descriptor.queryId, 2));
  }
  return plan;
}

void expectGroupedEnginesAgree(const QueryDescriptor& descriptor) {
  data::FleetSpec spec;
  spec.nodes = kGroupNodes;
  spec.rowsPerNode = 12;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng dataRng(42);
  const auto dbs = data::generateFleet(spec, dataRng);
  const auto values = data::fleetValues(dbs, "sales", "revenue");

  protocol::ProtocolParams params = descriptor.params;
  params.k = descriptor.effectiveK();
  const protocol::GroupPlan plan = planFor(descriptor);

  // Engine 1: synchronous runner replaying the plan.
  Rng runnerRng(7);
  const auto runnerOut = protocol::runGroupedWithPlan(
      values, params, descriptor.kind, plan, runnerRng);

  // Engine 2: the 9-node service core federation in virtual time.
  expectSimulatorAgrees(dbs, kGroupSeeds, descriptor, kGroupRing,
                        runnerOut.result);

  // Engine 3: a live 9-node NodeService cluster running the two-phase
  // protocol over net::Transport.
  net::InProcTransport transport(kGroupNodes);
  std::vector<std::unique_ptr<NodeService>> services;
  for (std::size_t i = 0; i < kGroupNodes; ++i) {
    services.push_back(std::make_unique<NodeService>(
        static_cast<NodeId>(i), dbs[i], transport, kGroupSeeds[i]));
    services.back()->start();
  }
  auto future = services.front()->initiate(descriptor, kGroupRing);
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(future.get(), runnerOut.result)
      << "grouped service initiator diverged";
  for (std::size_t i = 0; i < kGroupNodes; ++i) {
    const auto result = services[i]->waitFor(descriptor.queryId, 10000ms);
    ASSERT_TRUE(result.has_value()) << "service " << i << " never completed";
    EXPECT_EQ(*result, runnerOut.result) << "service " << i << " diverged";
  }
  for (auto& s : services) s->stop();
  transport.shutdown();
}

TEST(EngineEquivalence, NaiveTopK) {
  expectEnginesAgree(makeDescriptor(1, QueryType::TopK,
                                    protocol::ProtocolKind::Naive, 3));
}

TEST(EngineEquivalence, ProbabilisticMax) {
  expectEnginesAgree(makeDescriptor(2, QueryType::Max,
                                    protocol::ProtocolKind::Probabilistic, 1));
}

TEST(EngineEquivalence, ProbabilisticTopK) {
  expectEnginesAgree(makeDescriptor(3, QueryType::TopK,
                                    protocol::ProtocolKind::Probabilistic, 3));
}

// ---------------------------------------------------------------------------
// Privacy mechanisms (protocol/mechanism.hpp): every mechanism must agree
// bit for bit across the three engines, and segmented mode must equal the
// exact (non-randomized) protocol's answer.

TEST(EngineEquivalence, SegmentedTopKMatchesExactProtocol) {
  QueryDescriptor segmented = makeDescriptor(
      4, QueryType::TopK, protocol::ProtocolKind::Probabilistic, 3);
  segmented.params.mechanism.kind = protocol::MechanismKind::Segmented;
  segmented.params.mechanism.segments = 4;
  const TopKVector result = expectEnginesAgree(segmented);

  // The exact baseline: one deterministic naive merge round.
  const TopKVector exact = expectEnginesAgree(makeDescriptor(
      5, QueryType::TopK, protocol::ProtocolKind::Naive, 3));
  EXPECT_EQ(result, exact) << "segmented mode is not exact";
}

TEST(EngineEquivalence, SegmentedMaxManySegments) {
  // More segments than any node has values: the surplus rounds are pure
  // passthrough and the answer stays exact.
  QueryDescriptor d = makeDescriptor(
      6, QueryType::Max, protocol::ProtocolKind::Probabilistic, 1);
  d.params.mechanism.kind = protocol::MechanismKind::Segmented;
  d.params.mechanism.segments = 7;
  const TopKVector result = expectEnginesAgree(d);
  const TopKVector exact = expectEnginesAgree(makeDescriptor(
      7, QueryType::Max, protocol::ProtocolKind::Naive, 1));
  EXPECT_EQ(result, exact);
}

TEST(EngineEquivalence, LdpTopK) {
  QueryDescriptor d = makeDescriptor(
      8, QueryType::TopK, protocol::ProtocolKind::Probabilistic, 3);
  d.params.mechanism.kind = protocol::MechanismKind::Ldp;
  d.params.mechanism.ldpEpsilon = 1.0;
  (void)expectEnginesAgree(d);
}

TEST(EngineEquivalence, GroupedNaiveTopK) {
  expectGroupedEnginesAgree(makeGroupedDescriptor(
      11, QueryType::TopK, protocol::ProtocolKind::Naive, 3));
}

TEST(EngineEquivalence, GroupedProbabilisticMax) {
  expectGroupedEnginesAgree(makeGroupedDescriptor(
      12, QueryType::Max, protocol::ProtocolKind::Probabilistic, 1));
}

TEST(EngineEquivalence, GroupedProbabilisticTopK) {
  expectGroupedEnginesAgree(makeGroupedDescriptor(
      13, QueryType::TopK, protocol::ProtocolKind::Probabilistic, 3));
}

}  // namespace
}  // namespace privtopk::query
