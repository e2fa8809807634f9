#include "protocol/group.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace privtopk::protocol {

namespace {

/// Throws unless plan.groups is >= 3 disjoint rings of >= 3 members that
/// together cover 0..n-1 exactly once, with seed shapes matching.
void validatePlan(const GroupPlan& plan, std::size_t n) {
  if (plan.groups.size() < 3) {
    throw ConfigError("GroupPlan: the merge ring needs >= 3 groups");
  }
  std::vector<bool> seen(n, false);
  std::size_t covered = 0;
  for (const auto& group : plan.groups) {
    if (group.size() < 3) {
      throw ConfigError("GroupPlan: groups need at least 3 members");
    }
    for (std::size_t idx : group) {
      if (idx >= n) throw ConfigError("GroupPlan: member index out of range");
      if (seen[idx]) throw ConfigError("GroupPlan: member listed twice");
      seen[idx] = true;
      ++covered;
    }
  }
  if (covered != n) {
    throw ConfigError("GroupPlan: groups must cover every node");
  }
  if (!plan.groupSeeds.empty()) {
    if (plan.groupSeeds.size() != plan.groups.size()) {
      throw ConfigError("GroupPlan: groupSeeds/groups size mismatch");
    }
    for (std::size_t g = 0; g < plan.groups.size(); ++g) {
      if (plan.groupSeeds[g].size() != plan.groups[g].size()) {
        throw ConfigError("GroupPlan: groupSeeds[g] size mismatch");
      }
    }
  }
  if (!plan.mergeSeeds.empty() &&
      plan.mergeSeeds.size() != plan.groups.size()) {
    throw ConfigError("GroupPlan: mergeSeeds size mismatch");
  }
}

std::vector<NodeId> identityRing(std::size_t n) {
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  return order;
}

/// Runs every group of `plan` - on the identity ring over its member order
/// when `identityRings`, on the runner's own mapping otherwise - then
/// merges the group results on the delegates' ring.
GroupedRunResult runPlan(const std::vector<std::vector<Value>>& localValues,
                         const ProtocolParams& params, ProtocolKind kind,
                         const GroupPlan& plan, bool identityRings, Rng& rng) {
  const RingQueryRunner runner(params, kind);
  GroupedRunResult out;
  out.groups = plan.groups.size();
  std::size_t longestGroupRun = 0;
  std::vector<std::vector<Value>> delegateInputs;
  delegateInputs.reserve(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    std::vector<std::vector<Value>> members;
    members.reserve(plan.groups[g].size());
    for (std::size_t idx : plan.groups[g]) members.push_back(localValues[idx]);
    core::EngineOverrides overrides;
    if (identityRings) overrides.ringOrder = identityRing(members.size());
    if (!plan.groupSeeds.empty()) overrides.nodeSeeds = plan.groupSeeds[g];
    const RunResult groupRun = runner.run(members, rng, overrides);
    out.totalMessages += groupRun.totalMessages;
    longestGroupRun = std::max(longestGroupRun, groupRun.totalMessages);
    // The group's delegate carries the group top-k into the second level.
    delegateInputs.push_back(groupRun.result);
  }
  core::EngineOverrides mergeOverrides;
  if (identityRings) {
    mergeOverrides.ringOrder = identityRing(delegateInputs.size());
  }
  mergeOverrides.nodeSeeds = plan.mergeSeeds;
  const RunResult finalRun = runner.run(delegateInputs, rng, mergeOverrides);
  out.totalMessages += finalRun.totalMessages;
  out.criticalPathMessages = longestGroupRun + finalRun.totalMessages;
  out.result = finalRun.result;
  return out;
}

}  // namespace

GroupLayout makeGroupLayout(const std::vector<NodeId>& nodes,
                            NodeId coordinator, std::size_t groupSize,
                            Rng& rng) {
  if (groupSize < 3) {
    throw ConfigError("makeGroupLayout: groups need at least 3 members");
  }
  const std::size_t n = nodes.size();
  const std::size_t groupCount = n / groupSize;
  if (groupCount < 3) {
    throw ConfigError("makeGroupLayout: need at least 3 groups");
  }
  if (std::find(nodes.begin(), nodes.end(), coordinator) == nodes.end()) {
    throw ConfigError("makeGroupLayout: coordinator not among the nodes");
  }

  std::vector<NodeId> shuffled = nodes;
  rng.shuffle(shuffled);

  GroupLayout layout;
  layout.groups.resize(groupCount);
  for (std::size_t g = 0; g < groupCount; ++g) {
    for (std::size_t idx = g; idx < n; idx += groupCount) {
      layout.groups[g].push_back(shuffled[idx]);
    }
  }
  // The coordinator starts (and delegates for) its own group, which leads
  // the group list so the merge ring begins at the coordinator.
  for (std::size_t g = 0; g < groupCount; ++g) {
    auto& group = layout.groups[g];
    const auto at = std::find(group.begin(), group.end(), coordinator);
    if (at == group.end()) continue;
    std::rotate(group.begin(), at, group.end());
    std::swap(layout.groups[0], layout.groups[g]);
    break;
  }
  layout.mergeRing.reserve(groupCount);
  for (const auto& group : layout.groups) {
    layout.mergeRing.push_back(group.front());
  }
  return layout;
}

GroupedRunResult runGrouped(const std::vector<std::vector<Value>>& localValues,
                            const ProtocolParams& params, ProtocolKind kind,
                            std::size_t groupSize, Rng& rng) {
  params.validate();
  if (groupSize < 3) {
    throw ConfigError("runGrouped: groups need at least 3 members");
  }
  const std::size_t n = localValues.size();
  const std::size_t groupCount = n / groupSize;
  if (groupCount < 3) {
    // Too few groups for a delegate ring; run flat.
    RunResult flat = RingQueryRunner(params, kind).run(localValues, rng);
    return GroupedRunResult{flat.result, flat.totalMessages,
                            flat.totalMessages, 1};
  }

  // Random partition into groupCount groups (remainder spread round-robin).
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rng.shuffle(perm);
  GroupPlan plan;
  plan.groups.resize(groupCount);
  for (std::size_t idx = 0; idx < n; ++idx) {
    plan.groups[idx % groupCount].push_back(perm[idx]);
  }
  return runPlan(localValues, params, kind, plan, false, rng);
}

GroupedRunResult runGroupedWithPlan(
    const std::vector<std::vector<Value>>& localValues,
    const ProtocolParams& params, ProtocolKind kind, const GroupPlan& plan,
    Rng& rng) {
  params.validate();
  validatePlan(plan, localValues.size());
  return runPlan(localValues, params, kind, plan, true, rng);
}

}  // namespace privtopk::protocol
