// Unit tests for the sans-I/O protocol core: ring math, the §4.1 privacy
// floor (shared by every engine), repair, and the participant state
// machine driven by hand.

#include "protocol/core.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "protocol/runner.hpp"
#include "query/service_core.hpp"

namespace privtopk::protocol::core {
namespace {

TEST(PrivacyFloor, BoundaryIsThreeNodes) {
  EXPECT_FALSE(meetsPrivacyFloor(0));
  EXPECT_FALSE(meetsPrivacyFloor(2));
  EXPECT_TRUE(meetsPrivacyFloor(kMinRingSize));
  EXPECT_TRUE(meetsPrivacyFloor(100));

  EXPECT_THROW(requireRingSize(2, "test"), ConfigError);
  EXPECT_NO_THROW(requireRingSize(3, "test"));
}

TEST(RingMath, PositionAndSuccessor) {
  const std::vector<NodeId> order = {5, 2, 9};
  EXPECT_TRUE(onRing(order, 9));
  EXPECT_FALSE(onRing(order, 7));
  EXPECT_EQ(ringPosition(order, 5), 0u);
  EXPECT_EQ(ringPosition(order, 9), 2u);
  EXPECT_EQ(ringSuccessor(order, 5), 2u);
  EXPECT_EQ(ringSuccessor(order, 9), 5u);  // wraps to the start
  EXPECT_THROW((void)ringPosition(order, 7), Error);
  EXPECT_THROW((void)ringSuccessor(order, 7), Error);
}

TEST(RepairRing, SplicesAndReportsTheFloor) {
  std::vector<NodeId> order = {0, 1, 2, 3};

  RepairOutcome outcome = repairRing(order, 1);
  EXPECT_TRUE(outcome.applied);
  EXPECT_FALSE(outcome.belowFloor);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 2, 3}));

  // Re-applying the same repair is a no-op.
  outcome = repairRing(order, 1);
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 2, 3}));

  outcome = repairRing(order, 2);
  EXPECT_TRUE(outcome.applied);
  EXPECT_TRUE(outcome.belowFloor);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 3}));
}

TEST(RemapRing, KeepsTheControllerInFront) {
  Rng rng(11);
  const std::vector<NodeId> order = {4, 7, 1, 3, 9};
  for (int i = 0; i < 16; ++i) {
    const std::vector<NodeId> mapped = remapRing(order, 1, rng);
    ASSERT_EQ(mapped.size(), order.size());
    EXPECT_EQ(mapped.front(), 1u);
    for (NodeId id : order) {
      EXPECT_TRUE(onRing(mapped, id));
    }
  }
  // Deterministic under a fixed seed.
  Rng a(5), b(5);
  EXPECT_EQ(remapRing(order, 4, a), remapRing(order, 4, b));
}

TEST(LocalInit, LocalTopKSortsAndTruncates) {
  EXPECT_EQ(localTopK({5, 9, 1, 7}, 2), (TopKVector{9, 7}));
  EXPECT_EQ(localTopK({3}, 4), (TopKVector{3}));
  EXPECT_EQ(localTopK({}, 2), TopKVector{});
}

TEST(MakeLocalAlgorithm, NaiveKindsDrawNothing) {
  ProtocolParams params;
  params.k = 2;
  Rng used(7), untouched(7);
  (void)makeLocalAlgorithm(ProtocolKind::Naive, params, used);
  (void)makeLocalAlgorithm(ProtocolKind::AnonymousNaive, params, used);
  EXPECT_EQ(used.next(), untouched.next());
}

TEST(MakeLocalAlgorithm, ProbabilisticForkIsDeterministic) {
  ProtocolParams params;
  params.k = 1;
  Rng a(13), b(13);
  auto algA = makeLocalAlgorithm(ProtocolKind::Probabilistic, params, a);
  auto algB = makeLocalAlgorithm(ProtocolKind::Probabilistic, params, b);
  algA->reset({500});
  algB->reset({500});
  for (Round r = 1; r <= 8; ++r) {
    EXPECT_EQ(algA->step({100}, r), algB->step({100}, r));
  }
}

ParticipantConfig naiveConfig(NodeId self, std::vector<NodeId> ring) {
  ParticipantConfig cfg;
  cfg.queryId = 77;
  cfg.self = self;
  cfg.ringOrder = std::move(ring);
  cfg.kind = ProtocolKind::Naive;
  cfg.params.k = 1;
  return cfg;
}

std::unique_ptr<Participant> naiveParticipant(NodeId self,
                                              std::vector<NodeId> ring,
                                              TopKVector local) {
  Rng rng(self);
  return std::make_unique<Participant>(
      naiveConfig(self, std::move(ring)), std::move(local),
      makeLocalAlgorithm(ProtocolKind::Naive, naiveConfig(self, {}).params,
                         rng));
}

TEST(Participant, EnforcesTheFloorAndMembership) {
  EXPECT_THROW((void)naiveParticipant(0, {0, 1}, {5}), ConfigError);
  EXPECT_THROW((void)naiveParticipant(0, {1, 2, 3}, {5}), ConfigError);
  EXPECT_NO_THROW((void)naiveParticipant(0, {0, 1, 2}, {5}));
}

TEST(Participant, HandDrivenRingCompletesAndSuppressesDuplicates) {
  const std::vector<NodeId> ring = {0, 1, 2};
  auto p0 = naiveParticipant(0, ring, {30});
  auto p1 = naiveParticipant(1, ring, {70});
  auto p2 = naiveParticipant(2, ring, {20});

  Actions a = p0->onStart();
  ASSERT_TRUE(a.sendToken.has_value());
  EXPECT_EQ(a.sendToken->round, 1u);
  EXPECT_EQ(p0->successor(), 1u);

  a = p1->onToken(a.sendToken->round, a.sendToken->vector);
  ASSERT_TRUE(a.sendToken.has_value());
  const net::RoundToken fromOne = *a.sendToken;

  // A retransmission of the round-1 token is reported as a duplicate.
  const Actions dup = p1->onToken(1, {0});
  EXPECT_TRUE(dup.duplicate);
  EXPECT_FALSE(dup.sendToken.has_value());

  a = p2->onToken(fromOne.round, fromOne.vector);
  ASSERT_TRUE(a.sendToken.has_value());

  // The token circles back to the controller: budget exhausted (naive
  // protocol runs exactly one round), result announced.
  a = p0->onToken(a.sendToken->round, a.sendToken->vector);
  EXPECT_TRUE(a.roundClosed);
  EXPECT_TRUE(a.completed);
  ASSERT_TRUE(a.sendResult.has_value());
  EXPECT_EQ(a.sendResult->result, (TopKVector{70}));
  EXPECT_TRUE(p0->completed());
  EXPECT_EQ(p0->result(), (TopKVector{70}));

  // Dissemination pass: each follower adopts + forwards exactly once.
  a = p1->onResult(a.sendResult->result);
  EXPECT_TRUE(a.completed);
  ASSERT_TRUE(a.sendResult.has_value());
  EXPECT_EQ(p1->result(), (TopKVector{70}));
  const Actions again = p1->onResult({70});
  EXPECT_TRUE(again.duplicate);

  a = p2->onResult(a.sendResult->result);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(p2->result(), (TopKVector{70}));
}

TEST(Participant, PeerDeathBelowTheFloorAborts) {
  auto p = naiveParticipant(0, {0, 1, 2, 3}, {5});

  RepairOutcome outcome = p->onPeerDead(2);
  EXPECT_TRUE(outcome.applied);
  EXPECT_FALSE(outcome.belowFloor);
  EXPECT_FALSE(p->aborted());
  EXPECT_EQ(p->ringOrder(), (std::vector<NodeId>{0, 1, 3}));

  outcome = p->onPeerDead(2);  // already spliced
  EXPECT_FALSE(outcome.applied);

  outcome = p->onPeerDead(3);
  EXPECT_TRUE(outcome.applied);
  EXPECT_TRUE(outcome.belowFloor);
  EXPECT_TRUE(p->aborted());
  EXPECT_FALSE(p->abortReason().empty());
}

// The boundary regression the refactor pins down: every engine runs at
// exactly n = 3 and refuses n = 2.
TEST(EngineFloor, RunnerAndSimulatorShareTheBoundary) {
  ProtocolParams params;
  params.k = 1;
  const RingQueryRunner runner(params, ProtocolKind::Naive);

  Rng rng(3);
  const auto ok = runner.run({{10}, {40}, {30}}, rng);
  EXPECT_EQ(ok.result, (TopKVector{40}));
  EXPECT_THROW((void)runner.run({{10}, {40}}, rng), ConfigError);

  // The service (live and simulated) applies the same floor at initiation.
  query::QueryDescriptor descriptor;
  descriptor.tableName = "t";
  descriptor.attribute = "v";
  descriptor.params = params;
  descriptor.kind = ProtocolKind::Naive;
  EXPECT_NO_THROW(
      query::ServiceCore::validateInitiation(descriptor, {0, 1, 2}, 0));
  EXPECT_THROW(query::ServiceCore::validateInitiation(descriptor, {0, 1}, 0),
               ConfigError);
}

}  // namespace
}  // namespace privtopk::protocol::core
