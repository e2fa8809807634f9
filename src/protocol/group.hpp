// Group-parallel execution (paper §4.2): "break the set of n nodes into a
// number of small groups and have each group compute their group maximum
// value in parallel and then compute the global maximum value at
// designated nodes, which could be randomly selected from each small
// group."
//
// Generalized to top-k: each group runs the full probabilistic protocol on
// its members' values; a randomly chosen delegate per group then joins a
// second-level ring carrying its group's top-k vector as its local input.
// Because every round costs O(ring size) messages but the round count is
// independent of n (§4.2), grouping trades a second protocol phase for
// much smaller rings.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "protocol/runner.hpp"

namespace privtopk::protocol {

// ---------------------------------------------------------------------------
// Deterministic derivations shared by the distributed NodeService and the
// synchronous runner.  A grouped service run is fully determined by the
// coordinator's seed, the participants' seeds and the parent query id, so
// the runner can replay it bit-for-bit (see runGroupedWithPlan and
// tests/integration/engine_equivalence_test.cpp).

/// Seed of the Rng that draws the group partition + delegate selection at
/// the coordinating node.
[[nodiscard]] constexpr std::uint64_t groupLayoutSeed(
    std::uint64_t coordinatorSeed, std::uint64_t queryId) {
  return splitmix64(splitmix64(coordinatorSeed) ^ splitmix64(queryId) ^
                    0x6c61796f757431ULL);
}

/// Seed of a node's local-algorithm Rng for one phase of a grouped query
/// (phase 1 = group ring, phase 2 = merge ring).  Derived, not forked: the
/// node's main Rng stream is left untouched so flat queries stay
/// reproducible regardless of grouped traffic.
[[nodiscard]] constexpr std::uint64_t groupPhaseSeed(
    std::uint64_t nodeSeed, std::uint64_t parentQueryId, std::uint8_t phase) {
  return splitmix64(splitmix64(nodeSeed) ^
                    splitmix64(parentQueryId * 4 + phase));
}

/// Wire id of group `group`'s phase-1 sub-query of `parentQueryId`.
[[nodiscard]] constexpr std::uint64_t groupSubQueryId(
    std::uint64_t parentQueryId, std::size_t group) {
  return splitmix64(parentQueryId ^ splitmix64(0x67726f7570ULL + group));
}

/// Wire id of the phase-2 merge sub-query of `parentQueryId`.
[[nodiscard]] constexpr std::uint64_t mergeQueryId(
    std::uint64_t parentQueryId) {
  return splitmix64(parentQueryId ^ 0x6d65726765ULL);
}

/// A concrete §4.2 grouping of named nodes: who rings with whom, and which
/// delegates form the merge ring.
struct GroupLayout {
  /// Group rings.  groups[0] is the coordinator's own group with the
  /// coordinator first; every group's front node is its delegate (the
  /// random shuffle makes the other delegates "randomly selected from each
  /// small group", §4.2).
  std::vector<std::vector<NodeId>> groups;
  /// The second-phase ring: one delegate per group, coordinator first, in
  /// group order.
  std::vector<NodeId> mergeRing;
};

/// Partitions `nodes` into n/groupSize groups (remainder spread
/// round-robin) after a random shuffle of `rng`.  Requires groupSize >= 3
/// and at least 3 groups; `coordinator` must be one of `nodes` and ends up
/// first in groups[0] and on mergeRing.
[[nodiscard]] GroupLayout makeGroupLayout(const std::vector<NodeId>& nodes,
                                          NodeId coordinator,
                                          std::size_t groupSize, Rng& rng);

/// An explicit grouped execution plan over value-set indices, used to
/// replay a distributed grouped run (or to test arbitrary partitions).
/// Each group's front index is its delegate; the merge ring follows group
/// order with groups[0]'s delegate first.
struct GroupPlan {
  /// Disjoint groups covering every index 0..n-1 exactly once; each group
  /// needs >= 3 members and there must be >= 3 groups.
  std::vector<std::vector<std::size_t>> groups;
  /// Optional per-member algorithm seeds, one inner vector per group
  /// (core::EngineOverrides::nodeSeeds semantics).  Empty = draw from the
  /// shared rng.
  std::vector<std::vector<std::uint64_t>> groupSeeds;
  /// Optional per-delegate algorithm seeds for the merge ring.
  std::vector<std::uint64_t> mergeSeeds;
};

struct GroupedRunResult {
  TopKVector result;
  /// Ring messages across all group-level runs plus the delegate run.
  std::size_t totalMessages = 0;
  /// Messages on the longest group-phase run plus the delegate run - the
  /// critical path when groups execute in parallel.
  std::size_t criticalPathMessages = 0;
  std::size_t groups = 0;
};

/// Runs the grouped protocol over a random partition.  `groupSize` must be
/// >= 3 (each group ring needs three nodes); the remainder is spread
/// round-robin when n is not divisible.  The delegate phase requires at
/// least 3 groups; with fewer, the call falls back to one flat run and
/// reports groups = 1.
[[nodiscard]] GroupedRunResult runGrouped(
    const std::vector<std::vector<Value>>& localValues,
    const ProtocolParams& params, ProtocolKind kind, std::size_t groupSize,
    Rng& rng);

/// Replays an explicit grouped plan through the synchronous runner: every
/// group runs on the identity ring over its member order (member order IS
/// the ring order, exactly like a NodeService group ring), then the
/// delegates' results merge on a second identity ring.  With
/// plan.groupSeeds/mergeSeeds pinned this is bit-identical to a
/// distributed grouped run under the same seeds.
[[nodiscard]] GroupedRunResult runGroupedWithPlan(
    const std::vector<std::vector<Value>>& localValues,
    const ProtocolParams& params, ProtocolKind kind, const GroupPlan& plan,
    Rng& rng);

}  // namespace privtopk::protocol
