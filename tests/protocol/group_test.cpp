#include "protocol/group.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "common/error.hpp"
#include "data/generator.hpp"

namespace privtopk::protocol {
namespace {

ProtocolParams exactParams(std::size_t k) {
  ProtocolParams p;
  p.k = k;
  p.rounds = 15;
  return p;
}

TEST(RunGrouped, MatchesFlatTruth) {
  data::UniformDistribution dist;
  Rng dataRng(1);
  const auto values = data::generateValueSets(24, 10, dist, dataRng);
  Rng rng(2);
  const GroupedRunResult res = runGrouped(
      values, exactParams(3), ProtocolKind::Probabilistic, 4, rng);
  EXPECT_EQ(res.result, data::trueTopK(values, 3));
  EXPECT_EQ(res.groups, 6u);
}

TEST(RunGrouped, MaxQueryAcrossGroups) {
  data::UniformDistribution dist;
  Rng dataRng(3);
  const auto values = data::generateValueSets(30, 5, dist, dataRng);
  Rng rng(4);
  const GroupedRunResult res = runGrouped(
      values, exactParams(1), ProtocolKind::Probabilistic, 5, rng);
  EXPECT_EQ(res.result, data::trueTopK(values, 1));
}

TEST(RunGrouped, FallsBackToFlatWhenTooFewGroups) {
  data::UniformDistribution dist;
  Rng dataRng(5);
  const auto values = data::generateValueSets(6, 5, dist, dataRng);
  Rng rng(6);
  // 6 nodes / groupSize 3 = 2 groups < 3: flat fallback.
  const GroupedRunResult res = runGrouped(
      values, exactParams(2), ProtocolKind::Probabilistic, 3, rng);
  EXPECT_EQ(res.groups, 1u);
  EXPECT_EQ(res.result, data::trueTopK(values, 2));
}

TEST(RunGrouped, CriticalPathShorterThanFlatForLargeRings) {
  data::UniformDistribution dist;
  Rng dataRng(7);
  const auto values = data::generateValueSets(64, 5, dist, dataRng);
  Rng rng(8);
  const ProtocolParams params = exactParams(1);
  const GroupedRunResult grouped = runGrouped(
      values, params, ProtocolKind::Probabilistic, 8, rng);

  Rng rng2(9);
  const RingQueryRunner flat(params, ProtocolKind::Probabilistic);
  const RunResult flatRes = flat.run(values, rng2);

  EXPECT_EQ(grouped.result, flatRes.result);
  // Grouped critical path (one group of 8 + delegate ring of 8) must beat
  // one flat 64-node ring by a wide margin.
  EXPECT_LT(grouped.criticalPathMessages, flatRes.totalMessages / 2);
}

TEST(RunGrouped, RejectsTinyGroups) {
  Rng rng(10);
  EXPECT_THROW((void)runGrouped({{1}, {2}, {3}}, exactParams(1),
                                ProtocolKind::Probabilistic, 2, rng),
               ConfigError);
}

TEST(RunGrouped, ManyTrialsAlwaysExact) {
  data::UniformDistribution dist;
  Rng dataRng(11);
  Rng rng(12);
  for (int t = 0; t < 10; ++t) {
    const auto values = data::generateValueSets(20, 8, dist, dataRng);
    const GroupedRunResult res = runGrouped(
        values, exactParams(4), ProtocolKind::Probabilistic, 4, rng);
    EXPECT_EQ(res.result, data::trueTopK(values, 4)) << "trial " << t;
  }
}

// ---------------------------------------------------------------------------
// Property tests: with p0 = 0 the probabilistic protocol never
// randomizes, so grouped execution - any partition, any group size - must
// equal the flat naive top-k (the true top-k) EXACTLY.

ProtocolParams neverRandomize(std::size_t k) {
  ProtocolParams p;
  p.k = k;
  p.p0 = 0.0;
  p.rounds = 4;
  return p;
}

/// An arbitrary (not layout-derived) partition: shuffled indices dealt
/// round-robin into `groups` buckets, with pinned per-member seeds.
GroupPlan randomPlan(std::size_t n, std::size_t groups, Rng& rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rng.shuffle(perm);
  GroupPlan plan;
  plan.groups.resize(groups);
  for (std::size_t i = 0; i < n; ++i) {
    plan.groups[i % groups].push_back(perm[i]);
  }
  for (const auto& group : plan.groups) {
    std::vector<std::uint64_t> seeds;
    for (std::size_t member : group) {
      seeds.push_back(splitmix64(0xABCD + member));
    }
    plan.groupSeeds.push_back(std::move(seeds));
    plan.mergeSeeds.push_back(splitmix64(0x5EED + group.front()));
  }
  return plan;
}

TEST(RunGroupedProperty, ArbitraryPartitionEqualsFlatTruth) {
  data::UniformDistribution dist;
  Rng dataRng(30);
  Rng rng(31);
  for (std::size_t groups = 3; groups <= 6; ++groups) {
    const auto values = data::generateValueSets(3 * groups + 2, 7, dist,
                                                dataRng);
    const GroupPlan plan = randomPlan(values.size(), groups, rng);
    const GroupedRunResult res = runGroupedWithPlan(
        values, neverRandomize(3), ProtocolKind::Probabilistic, plan, rng);
    EXPECT_EQ(res.result, data::trueTopK(values, 3)) << groups << " groups";
    EXPECT_EQ(res.groups, groups);
  }
}

TEST(RunGroupedProperty, FuzzRandomShapesAlwaysExact) {
  data::UniformDistribution dist;
  Rng shapeRng(40);
  Rng dataRng(41);
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 9 + shapeRng.index(32);             // 9..40
    const std::size_t k = 1 + shapeRng.index(5);              // 1..5
    const std::size_t groupSize = 3 + shapeRng.index(n - 2);  // 3..n
    const auto values = data::generateValueSets(n, k + 3, dist, dataRng);
    const GroupedRunResult res =
        runGrouped(values, neverRandomize(k), ProtocolKind::Probabilistic,
                   groupSize, rng);
    EXPECT_EQ(res.result, data::trueTopK(values, k))
        << "trial " << trial << ": n=" << n << " k=" << k
        << " groupSize=" << groupSize;
  }
}

TEST(GroupPlanValidation, RejectsBadPlans) {
  data::UniformDistribution dist;
  Rng dataRng(50);
  const auto values = data::generateValueSets(9, 4, dist, dataRng);
  Rng rng(51);
  const ProtocolParams params = exactParams(1);

  GroupPlan tooFew;
  tooFew.groups = {{0, 1, 2, 3}, {4, 5, 6, 7, 8}};
  EXPECT_THROW((void)runGroupedWithPlan(values, params,
                                        ProtocolKind::Probabilistic, tooFew,
                                        rng),
               ConfigError);

  GroupPlan overlap;
  overlap.groups = {{0, 1, 2}, {2, 3, 4}, {5, 6, 7}};
  EXPECT_THROW((void)runGroupedWithPlan(values, params,
                                        ProtocolKind::Probabilistic, overlap,
                                        rng),
               ConfigError);

  GroupPlan gap;
  gap.groups = {{0, 1, 2}, {3, 4, 5}, {6, 7}};
  EXPECT_THROW((void)runGroupedWithPlan(values, params,
                                        ProtocolKind::Probabilistic, gap,
                                        rng),
               ConfigError);
}

TEST(MakeGroupLayout, PartitionsEveryNodeWithDelegates) {
  std::vector<NodeId> nodes(17);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  Rng rng(60);
  const GroupLayout layout = makeGroupLayout(nodes, 5, 4, rng);
  ASSERT_EQ(layout.groups.size(), 4u);
  EXPECT_EQ(layout.groups.front().front(), 5u);  // coordinator leads
  EXPECT_EQ(layout.mergeRing.size(), layout.groups.size());
  EXPECT_EQ(layout.mergeRing.front(), 5u);
  std::vector<bool> seen(nodes.size(), false);
  for (std::size_t g = 0; g < layout.groups.size(); ++g) {
    EXPECT_GE(layout.groups[g].size(), 3u);
    EXPECT_EQ(layout.mergeRing[g], layout.groups[g].front());
    for (NodeId node : layout.groups[g]) {
      ASSERT_LT(node, seen.size());
      EXPECT_FALSE(seen[node]) << "node " << node << " in two groups";
      seen[node] = true;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "node " << i << " unassigned";
  }
}

}  // namespace
}  // namespace privtopk::protocol
