#include "protocol/core.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "sim/ring.hpp"

namespace privtopk::protocol::core {

void requireRingSize(std::size_t ringSize, const char* context) {
  if (!meetsPrivacyFloor(ringSize)) {
    throw ConfigError(std::string(context) +
                      ": the protocol requires >= 3 nodes (privacy floor)");
  }
}

bool onRing(const std::vector<NodeId>& order, NodeId node) {
  return std::find(order.begin(), order.end(), node) != order.end();
}

std::size_t ringPosition(const std::vector<NodeId>& order, NodeId node) {
  const auto it = std::find(order.begin(), order.end(), node);
  if (it == order.end()) {
    throw Error("ringPosition: node is not on the ring");
  }
  return static_cast<std::size_t>(std::distance(order.begin(), it));
}

NodeId ringSuccessor(const std::vector<NodeId>& order, NodeId node) {
  const std::size_t pos = ringPosition(order, node);
  return order[(pos + 1) % order.size()];
}

RepairOutcome repairRing(std::vector<NodeId>& order, NodeId failed) {
  RepairOutcome outcome;
  outcome.applied = sim::repairRingOrder(order, failed);
  outcome.belowFloor = !meetsPrivacyFloor(order.size());
  return outcome;
}

std::vector<NodeId> remapRing(std::vector<NodeId> order, NodeId controller,
                              Rng& rng) {
  rng.shuffle(order);
  const auto it = std::find(order.begin(), order.end(), controller);
  if (it == order.end()) {
    throw Error("remapRing: controller is not on the ring");
  }
  std::rotate(order.begin(), it, order.end());
  return order;
}

TopKVector localTopK(const std::vector<Value>& values, std::size_t k) {
  TopKVector v = values;
  const std::size_t take = std::min(k, v.size());
  std::partial_sort(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(take),
                    v.end(), std::greater<>());
  v.resize(take);
  return v;
}

std::unique_ptr<LocalAlgorithm> makeLocalAlgorithm(ProtocolKind kind,
                                                   const ProtocolParams& params,
                                                   Rng& rng) {
  params.validate();
  validateMechanismFor(kind, params);
  return makeMechanism(params.mechanism)->makeAlgorithm(kind, params, rng);
}

Round roundBudget(ProtocolKind kind, const ProtocolParams& params) {
  validateMechanismFor(kind, params);
  return makeMechanism(params.mechanism)->roundBudget(kind, params);
}

Participant::Participant(ParticipantConfig config, TopKVector localTopK,
                         std::unique_ptr<LocalAlgorithm> algorithm)
    : queryId_(config.queryId),
      self_(config.self),
      ringOrder_(std::move(config.ringOrder)),
      params_(std::move(config.params)),
      trace_(config.trace),
      spanSink_(config.spanSink),
      algorithm_(std::move(algorithm)) {
  params_.validate();
  validateMechanismFor(config.kind, params_);
  requireRingSize(ringOrder_.size(), "core::Participant");
  if (!onRing(ringOrder_, self_)) {
    throw ConfigError("core::Participant: node is not on the ring");
  }
  mechanism_ = makeMechanism(params_.mechanism);
  rounds_ = mechanism_->roundBudget(config.kind, params_);
  // The algorithm takes the local vector; only a trace keeps a copy.
  TopKVector traced;
  if (trace_ != nullptr) traced = localTopK;
  algorithm_->reset(std::move(localTopK));
  if (trace_ != nullptr) {
    trace_->nodeCount = std::max(trace_->nodeCount, ringOrder_.size());
    trace_->k = params_.k;
    trace_->rounds = rounds_;
    if (trace_->initialOrder.empty()) trace_->initialOrder = ringOrder_;
    const auto slot = static_cast<std::size_t>(self_);
    if (trace_->localVectors.size() <= slot) {
      trace_->localVectors.resize(slot + 1);
    }
    trace_->localVectors[slot] = std::move(traced);
  }
}

const std::vector<NodeId>& Participant::activeOrder() const {
  if (cachedRound_ != wireRound_ || cachedOrder_.empty()) {
    cachedOrder_ = mechanism_->orderForRound(ringOrder_, wireRound_, queryId_);
    cachedRound_ = wireRound_;
  }
  return cachedOrder_;
}

TopKVector Participant::process(Round round, const TopKVector& input) {
  // Outgoing routing (and the traced position) follows the ordering of
  // the round being processed from here on.
  wireRound_ = round;
  TopKVector output = algorithm_->step(input, round);
  if (trace_ != nullptr) {
    trace_->steps.push_back(TraceStep{round, position(), self_, input, output});
  }
  lastProcessed_ = round;
  return output;
}

Actions Participant::finish(Actions actions, const TopKVector& result,
                            const obs::TraceContext& ctx) {
  // The result announcement circulates on the final round's ordering; every
  // node pins it regardless of which round it last processed.
  wireRound_ = rounds_;
  result_ = result;
  completed_ = true;
  if (trace_ != nullptr) trace_->result = result_;
  actions.completed = true;
  actions.sendResult = net::ResultAnnouncement{queryId_, result_, ctx};
  return actions;
}

Actions Participant::onStart(obs::TraceContext ctx) {
  if (!isStart()) {
    throw Error("core::Participant: onStart on a non-start node");
  }
  if (started_) throw Error("core::Participant: query already started");
  started_ = true;
  const std::int64_t t0 = spanSink_ != nullptr && ctx.active()
                              ? obs::EventTracer::nowNs()
                              : 0;
  // Initial global vector: k copies of the domain minimum (§3.4).
  const TopKVector initial(params_.k, params_.domain.min);
  Actions actions;
  TopKVector out = process(1, initial);
  actions.sendToken = net::RoundToken{
      queryId_, 1, std::move(out),
      obs::emitChildSpan(spanSink_, ctx, "ring_round", queryId_, self_, 1, t0,
                         0)};
  return actions;
}

Actions Participant::onToken(Round round, const TopKVector& vector,
                             obs::TraceContext ctx, std::int64_t queueNs) {
  Actions actions;
  if (completed_ || aborted_) {
    actions.duplicate = true;
    return actions;
  }
  const std::int64_t t0 = spanSink_ != nullptr && ctx.active()
                              ? obs::EventTracer::nowNs()
                              : 0;
  if (isStart()) {
    // The token circled back: close the round it carries.  A repair may
    // have promoted this node mid-round, in which case it legitimately
    // closes a round it processed (or never saw) as a follower.
    started_ = true;
    if (round <= lastClosed_) {
      actions.duplicate = true;  // a retransmission of a closed round
      return actions;
    }
    actions.roundClosed = true;
    lastClosed_ = round;
    if (round >= rounds_) {
      return finish(actions, vector,
                    obs::emitChildSpan(spanSink_, ctx, "ring_round", queryId_,
                                       self_, round, t0, queueNs));
    }
    TopKVector out = process(round + 1, vector);
    actions.sendToken = net::RoundToken{
        queryId_, round + 1, std::move(out),
        obs::emitChildSpan(spanSink_, ctx, "ring_round", queryId_, self_,
                           round + 1, t0, queueNs)};
    return actions;
  }
  if (round <= lastProcessed_) {
    actions.duplicate = true;  // pass-once semantics per round
    return actions;
  }
  TopKVector out = process(round, vector);
  actions.sendToken = net::RoundToken{
      queryId_, round, std::move(out),
      obs::emitChildSpan(spanSink_, ctx, "ring_round", queryId_, self_, round,
                         t0, queueNs)};
  return actions;
}

Actions Participant::onResult(const TopKVector& result,
                              obs::TraceContext ctx) {
  Actions actions;
  if (completed_ || aborted_) {
    actions.completed = completed_;
    actions.duplicate = true;
    return actions;
  }
  const std::int64_t t0 = spanSink_ != nullptr && ctx.active()
                              ? obs::EventTracer::nowNs()
                              : 0;
  // Forward once; the announcement dies when it reaches the start node.
  return finish(actions, result,
                obs::emitChildSpan(spanSink_, ctx, "result_dissemination",
                                   queryId_, self_, 0, t0, 0));
}

RepairOutcome Participant::onPeerDead(NodeId failed) {
  if (failed == self_) return RepairOutcome{};  // we are demonstrably alive
  const RepairOutcome outcome = repairRing(ringOrder_, failed);
  cachedOrder_.clear();  // derived orders must re-derive off the repaired base
  if (outcome.applied && outcome.belowFloor && !completed_ && !aborted_) {
    aborted_ = true;
    abortReason_ = "ring shrank below the privacy floor after repair";
  }
  return outcome;
}

void Participant::setRingOrder(std::vector<NodeId> order) {
  if (!onRing(order, self_)) {
    throw Error("core::Participant: remap drops this node from the ring");
  }
  ringOrder_ = std::move(order);
  cachedOrder_.clear();
}

}  // namespace privtopk::protocol::core
