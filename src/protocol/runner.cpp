#include "protocol/runner.hpp"

#include <memory>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sim/ring.hpp"

namespace privtopk::protocol {

namespace {

/// Global metric cells, registered once and flushed once per run() so the
/// Monte-Carlo hot loop performs no atomic work per step.
struct RunnerMetrics {
  obs::Counter& queries =
      obs::counter("privtopk.protocol.queries", {{"engine", "runner"}});
  obs::Counter& rounds = obs::counter("privtopk.protocol.rounds_executed",
                                      {{"engine", "runner"}});
  obs::Counter& tokenMessages = obs::counter(
      "privtopk.protocol.token_messages", {{"engine", "runner"}});
  obs::Counter& randomized = obs::counter(
      "privtopk.protocol.randomized_passes", {{"engine", "runner"}});
  obs::Counter& real = obs::counter("privtopk.protocol.real_value_passes",
                                    {{"engine", "runner"}});
  obs::Counter& passthrough = obs::counter(
      "privtopk.protocol.passthrough_passes", {{"engine", "runner"}});
};

RunnerMetrics& runnerMetrics() {
  static RunnerMetrics metrics;
  return metrics;
}

}  // namespace

RingQueryRunner::RingQueryRunner(ProtocolParams params, ProtocolKind kind)
    : params_(std::move(params)), kind_(kind) {
  params_.validate();
}

RunResult RingQueryRunner::run(
    const std::vector<std::vector<Value>>& localValues, Rng& rng) const {
  return run(localValues, rng, core::EngineOverrides{});
}

RunResult RingQueryRunner::run(
    const std::vector<std::vector<Value>>& localValues, Rng& rng,
    const core::EngineOverrides& overrides) const {
  const std::size_t n = localValues.size();
  core::requireRingSize(n, "RingQueryRunner");
  if (!overrides.nodeSeeds.empty() && overrides.nodeSeeds.size() != n) {
    throw ConfigError("RingQueryRunner: nodeSeeds size mismatch");
  }
  if (!overrides.ringOrder.empty() && overrides.ringOrder.size() != n) {
    throw ConfigError("RingQueryRunner: ringOrder size mismatch");
  }

  RunResult out;
  out.rounds = core::roundBudget(kind_, params_);

  // --- Initialization module (§3.2): local top-k + per-node algorithm.
  // Algorithms are built before the ring is drawn so the rng consumption
  // order matches the historical engine exactly.
  std::vector<TopKVector> locals;
  std::vector<std::unique_ptr<LocalAlgorithm>> algorithms;
  locals.reserve(n);
  algorithms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (Value v : localValues[i]) {
      if (!params_.domain.contains(v)) {
        throw ConfigError("RingQueryRunner: value outside the public domain");
      }
    }
    locals.push_back(core::localTopK(localValues[i], params_.k));
    if (overrides.nodeSeeds.empty()) {
      algorithms.push_back(core::makeLocalAlgorithm(kind_, params_, rng));
    } else {
      // Replay the algorithm stream of a node seeded with nodeSeeds[i].
      Rng nodeRng(overrides.nodeSeeds[i]);
      algorithms.push_back(core::makeLocalAlgorithm(kind_, params_, nodeRng));
    }
  }

  // Ring mapping + starting node.  The fixed-start naive baseline uses the
  // identity ring starting at node 0; the other variants randomize both
  // (a random permutation makes position 0 a uniformly random starter).
  const bool fixedStart = (kind_ == ProtocolKind::Naive);
  std::vector<NodeId> order;
  if (!overrides.ringOrder.empty()) {
    order = overrides.ringOrder;
  } else if (fixedStart) {
    order.resize(n);
    std::iota(order.begin(), order.end(), NodeId{0});
  } else {
    order = sim::RingTopology::random(n, rng).order();
  }

  // One core participant per node (ids are 0..n-1), all recording into the
  // shared trace sink.
  std::vector<core::Participant> participants;
  participants.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::ParticipantConfig cfg;
    cfg.self = static_cast<NodeId>(i);
    cfg.ringOrder = order;
    cfg.kind = kind_;
    cfg.params = params_;
    cfg.trace = &out.trace;
    participants.emplace_back(std::move(cfg), std::move(locals[i]),
                              std::move(algorithms[i]));
  }

  const bool remap = params_.remapEachRound && kind_ == ProtocolKind::Probabilistic;

  // --- Rounds of token passing: shuttle the core's send effects around
  // the ring synchronously until the start node announces the result.
  NodeId holder = order.front();
  core::Actions actions = participants[holder].onStart();
  ++out.tokenMessages;

  while (actions.sendToken) {
    const NodeId next = participants[holder].successor();
    const net::RoundToken token = *std::move(actions.sendToken);
    holder = next;
    actions = participants[holder].onToken(token.round, token.vector);
    if (actions.roundClosed && !actions.completed && remap) {
      const std::vector<NodeId> mapping =
          core::remapRing(participants[holder].ringOrder(), holder, rng);
      for (auto& p : participants) p.setRingOrder(mapping);
    }
    if (actions.sendToken) ++out.tokenMessages;
  }

  out.result = participants[holder].result();
  // Result dissemination: one final pass around the ring (§3.3 "in the
  // termination round all nodes simply pass on the final result").
  out.totalMessages = out.tokenMessages + n;

  // One-shot metric flush (six relaxed RMWs per query).
  RunnerMetrics& metrics = runnerMetrics();
  metrics.queries.inc();
  metrics.rounds.inc(out.rounds);
  metrics.tokenMessages.inc(out.tokenMessages);
  LocalAlgorithm::PassCounts totals;
  for (const core::Participant& p : participants) {
    totals.randomized += p.passCounts().randomized;
    totals.real += p.passCounts().real;
    totals.passthrough += p.passCounts().passthrough;
  }
  metrics.randomized.inc(totals.randomized);
  metrics.real.inc(totals.real);
  metrics.passthrough.inc(totals.passthrough);
  return out;
}

RunResult RingQueryRunner::runBottomK(
    const std::vector<std::vector<Value>>& localValues, Rng& rng) const {
  // Mirror v -> min + max - v turns bottom-k into top-k on the same domain.
  const Value lo = params_.domain.min;
  const Value hi = params_.domain.max;
  std::vector<std::vector<Value>> mirrored(localValues.size());
  for (std::size_t i = 0; i < localValues.size(); ++i) {
    mirrored[i].reserve(localValues[i].size());
    for (Value v : localValues[i]) mirrored[i].push_back(lo + hi - v);
  }
  RunResult res = run(mirrored, rng);
  for (Value& v : res.result) v = lo + hi - v;
  // res.result was descending in mirrored space => ascending after
  // mirroring back, which is the natural order for bottom-k.
  for (auto& step : res.trace.steps) {
    for (Value& v : step.input) v = lo + hi - v;
    for (Value& v : step.output) v = lo + hi - v;
  }
  for (auto& local : res.trace.localVectors) {
    for (Value& v : local) v = lo + hi - v;
  }
  res.trace.result = res.result;
  return res;
}

TopKVector queryTopK(const std::vector<std::vector<Value>>& localValues,
                     std::size_t k, Rng& rng,
                     const ProtocolParams* paramsOverride) {
  ProtocolParams params;
  if (paramsOverride) params = *paramsOverride;
  params.k = k;
  const RingQueryRunner runner(params, ProtocolKind::Probabilistic);
  return runner.run(localValues, rng).result;
}

Value queryMax(const std::vector<std::vector<Value>>& localValues, Rng& rng,
               const ProtocolParams* paramsOverride) {
  return queryTopK(localValues, 1, rng, paramsOverride).front();
}

}  // namespace privtopk::protocol
