#include "query/service_core.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "query/federation.hpp"

namespace privtopk::query {

namespace {

// Every service metric carries the {engine="service"} label.
const obs::Labels kServiceLabels{{"engine", "service"}};

obs::Counter& counter(const char* name) {
  return obs::counter(name, kServiceLabels);
}
obs::Gauge& gauge(const char* name) { return obs::gauge(name, kServiceLabels); }
obs::Histogram& histogram(const char* name) {
  return obs::histogram(name, kServiceLabels, obs::defaultLatencyBucketsMs());
}

ServiceCore::Frame frameOf(const net::Message& message) {
  return std::make_shared<const Bytes>(net::encodeMessage(message));
}

/// Messages held per grouped query until this node's own phase-1 run
/// finishes (merge traffic at a delegate, the final result at a member);
/// beyond this the sender's retransmission covers us.
constexpr std::size_t kStashCap = 64;

/// Sender placeholder for replayed stashed messages, whose transport-level
/// origin was not recorded.  No ring ever contains it.
constexpr NodeId kNoSender = std::numeric_limits<NodeId>::max();

double elapsedMs(ServiceCore::TimePoint start, ServiceCore::TimePoint now) {
  return std::chrono::duration<double, std::milli>(now - start).count();
}

/// steady_clock time point -> the EventTracer::nowNs timebase, so phase
/// spans can start at the moment their state was registered.
std::int64_t toTraceNs(ServiceCore::TimePoint tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

net::QueryAnnounce announceFor(const QueryDescriptor& descriptor,
                               std::vector<NodeId> ringOrder,
                               std::uint64_t parentQueryId, std::uint8_t phase,
                               obs::TraceContext ctx) {
  net::QueryAnnounce announce;
  announce.queryId = descriptor.queryId;
  announce.descriptor = descriptor.encode();
  announce.ringOrder = std::move(ringOrder);
  announce.parentQueryId = parentQueryId;
  announce.phase = phase;
  announce.ctx = ctx;
  return announce;
}

}  // namespace

ServiceCore::Metrics::Metrics()
    : initiated(counter("privtopk.query.queries_initiated")),
      participated(counter("privtopk.query.queries_participated")),
      completed(counter("privtopk.query.queries_completed")),
      stalePurged(counter("privtopk.query.queries_stale_purged")),
      droppedMessages(counter("privtopk.query.dropped_messages")),
      roundsExecuted(counter("privtopk.protocol.rounds_executed")),
      randomizedPasses(counter("privtopk.protocol.randomized_passes")),
      realPasses(counter("privtopk.protocol.real_value_passes")),
      passthroughPasses(counter("privtopk.protocol.passthrough_passes")),
      retransmits(counter("privtopk.query.retransmits")),
      ringRepairs(counter("privtopk.query.ring_repairs")),
      peersDeclaredDead(counter("privtopk.query.peers_declared_dead")),
      duplicatesDropped(counter("privtopk.query.duplicates_dropped")),
      resultReplays(counter("privtopk.query.result_replays")),
      aborted(counter("privtopk.query.queries_aborted")),
      admissionsRejected(counter("privtopk.query.admissions_rejected")),
      activeQueries(gauge("privtopk.query.active_queries")),
      inflightQueries(gauge("privtopk.query.inflight_queries")),
      queueDepth(gauge("privtopk.query.queue_depth")),
      queryLatencyMs(histogram("privtopk.query.latency_ms")),
      announceToFirstTokenMs(
          histogram("privtopk.query.announce_to_first_token_ms")),
      groupPhaseMs(histogram("privtopk.query.group_phase_ms")),
      mergePhaseMs(histogram("privtopk.query.merge_phase_ms")) {}

ServiceCore::ServiceCore(NodeId self, const data::PrivateDatabase& db,
                         std::uint64_t seed, const ServiceOptions& options,
                         obs::TraceSink* spanSink)
    : self_(self), db_(&db), seed_(seed), rng_(seed), options_(options),
      spanSink_(spanSink) {
  if (options_.completedCap == 0) {
    throw ConfigError("NodeService: completedCap must be >= 1");
  }
  if (options_.deadAfterFailures < 1) {
    throw ConfigError("NodeService: deadAfterFailures must be >= 1");
  }
}

void ServiceCore::validateInitiation(const QueryDescriptor& descriptor,
                                     const std::vector<NodeId>& ringOrder,
                                     NodeId self) {
  descriptor.validate();
  if (!protocol::core::meetsPrivacyFloor(ringOrder.size())) {
    throw ConfigError("NodeService::initiate: ring needs >= 3 nodes");
  }
  if (ringOrder.front() != self) {
    throw ConfigError("NodeService::initiate: initiator must be first on "
                      "the ring");
  }
  if (descriptor.params.remapEachRound) {
    throw ConfigError("NodeService::initiate: per-round ring remapping "
                      "(remapEachRound) is not supported by the service");
  }
}

// ---------------------------------------------------------------------------
// Inputs.

ServiceCore::Effects ServiceCore::onMessage(NodeId from,
                                            const net::Message& message,
                                            std::int64_t receivedAtNs,
                                            TimePoint now) {
  Effects fx;
  handleMessage(from, message, receivedAtNs, now, fx);
  return fx;
}

ServiceCore::LocalScan ServiceCore::scanTable(
    const QueryDescriptor& descriptor) const {
  LocalScan scan;
  scan.startNs = obs::EventTracer::nowNs();
  const LocalParty party(*db_);
  try {
    if (descriptor.isAggregate()) {
      scan.addends = party.scanAggregate(descriptor);
    } else {
      scan.input = party.scanInput(descriptor);
    }
  } catch (...) {
    scan.error = std::current_exception();
  }
  return scan;
}

ServiceCore::Effects ServiceCore::onScanned(const PendingScan& scan,
                                            LocalScan result, TimePoint now) {
  Effects fx;
  (void)obs::emitChildSpan(spanSink_, scan.ctx, "local_input", scan.queryId,
                           self_, 0, result.startNs,
                           result.startNs - scan.handedBackNs);
  const auto it = active_.find(scan.queryId);
  // Garbage-collected or aborted (ring repair) while the scan ran.
  if (it == active_.end() || it->second.aborted) return {};
  QueryState& state = it->second;
  try {
    if (result.error) std::rethrow_exception(result.error);
    if (scan.descriptor.isAggregate()) {
      state.addends = std::move(result.addends);
    } else {
      buildParticipant(state, std::exchange(state.ringOrder, {}),
                       std::move(result.input));
      if (scan.delegatedStart) beginRounds(state, now, fx);
    }
  } catch (const std::exception& e) {
    metrics_.droppedMessages.inc();
    abortQuery(state, std::string("cannot serve the query: ") + e.what(),
               fx);
  }
  return fx;
}

ServiceCore::Effects ServiceCore::initiate(const QueryDescriptor& descriptor,
                                           std::vector<NodeId> ringOrder,
                                           LocalScan scan, TimePoint now) {
  validateInitiation(descriptor, ringOrder, self_);
  if (knows(descriptor.queryId)) {
    throw ConfigError("NodeService::initiate: duplicate query id");
  }
  // A bad local input fails the initiation with no traffic sent.
  if (scan.error) std::rethrow_exception(scan.error);
  Effects fx;
  const bool grouped = !descriptor.isAggregate() &&
                       descriptor.groupSize >= 3 &&
                       ringOrder.size() / descriptor.groupSize >= 3;
  if (grouped) {
    beginGrouped(descriptor, ringOrder, std::move(scan), now, fx);
  } else {
    beginFlat(descriptor, std::move(ringOrder), std::move(scan), now, fx);
  }
  return fx;
}

ServiceCore::Effects ServiceCore::onSendFailed(const Outbound& failed) {
  Effects fx;
  const auto it = active_.find(failed.queryId);
  if (!failed.ring || it == active_.end() || it->second.aborted) return {};
  QueryState& state = it->second;
  if (successorFor(state) == failed.target) {
    ++state.sendFailures;
    if (state.sendFailures < options_.deadAfterFailures) {
      // Not yet condemned: the retransmission deadline retries later.
      return {};
    }
    if (!repairAfterDeadSuccessor(state, failed.target, fx)) {
          return fx;
    }
  }
  // The ring was repaired around the failed target (here or since the
  // send was queued): retry toward the new successor, ahead of the repair
  // notify.
  fx.sends.insert(
      fx.sends.begin(),
      Outbound{failed.queryId, failed.wire, successorFor(state), true});
  return fx;
}

void ServiceCore::onSendSucceeded(std::uint64_t queryId) {
  const auto it = active_.find(queryId);
  if (it != active_.end()) it->second.sendFailures = 0;
}

ServiceCore::Effects ServiceCore::tick(TimePoint now) {
  Effects fx;
  for (auto it = active_.begin(); it != active_.end();) {
    QueryState& state = it->second;
    const bool stale = now - state.registeredAt >= options_.staleAfter;
    if (state.aborted || stale) {
      if (!state.aborted) {
        PRIVTOPK_LOG_WARN("service ", self_,
                          ": garbage-collecting stale query ", it->first);
        metrics_.stalePurged.inc();
        fx.retired.push_back(
            Retirement{it->first, std::nullopt,
                       "query timed out waiting for the ring"});
      }
      metrics_.activeQueries.sub(1);
      if (state.isParent) {
        mergeParents_.erase(protocol::mergeQueryId(it->first));
        stashed_.erase(it->first);
      }
      abandoned_.insert(it->first);
      abandonedOrder_.push_back(it->first);
      if (abandonedOrder_.size() > options_.completedCap) {
        abandoned_.erase(abandonedOrder_.front());
        abandonedOrder_.pop_front();
      }
      it = active_.erase(it);
      continue;
    }
    if (options_.retransmitAfter.count() > 0 && state.lastMessage &&
        now - state.lastActivity >= options_.retransmitAfter) {
      state.lastActivity = now;
      metrics_.retransmits.inc();
      const NodeId succ = successorFor(state);
      PRIVTOPK_LOG_WARN("service ", self_, ": retransmitting query ",
                        it->first, " to successor ", succ);
      // A stalled merge ring may be waiting at a delegate that never got
      // its group's announce; delegates that already run (or ran) their
      // group drop the copy.
      fx.sends.insert(fx.sends.end(), state.fanOut.begin(),
                      state.fanOut.end());
      // The successor may have missed the announce as well (it died on a
      // predecessor's link); duplicates are suppressed on arrival.
      if (state.announceWire && state.announceWire != state.lastMessage) {
        fx.sends.push_back(
            Outbound{it->first, state.announceWire, succ, true});
      }
      fx.sends.push_back(
          Outbound{it->first, state.lastMessage, succ, true});
    }
    ++it;
  }
  return fx;
}

// ---------------------------------------------------------------------------
// Sends and ring bookkeeping.

void ServiceCore::queueSend(QueryState& state, net::Message message,
                            TimePoint now, Effects& fx) {
  state.lastMessage = frameOf(message);
  if (std::holds_alternative<net::QueryAnnounce>(message)) {
    state.announceWire = state.lastMessage;
  }
  state.lastActivity = now;
  fx.sends.push_back(Outbound{state.descriptor.queryId, state.lastMessage,
                              successorFor(state), true});
}

const std::vector<NodeId>& ServiceCore::ringOf(const QueryState& state) {
  return state.participant ? state.participant->ringOrder() : state.ringOrder;
}

protocol::core::RepairOutcome ServiceCore::applyRepair(QueryState& state,
                                                       NodeId dead) {
  if (state.participant) return state.participant->onPeerDead(dead);
  return protocol::core::repairRing(state.ringOrder, dead);
}

NodeId ServiceCore::successorFor(const QueryState& state) const {
  // The participant knows which per-round ring ordering the privacy
  // mechanism has in flight; only pre-participant traffic (the announce,
  // forwarded before the local scan builds the participant) falls back to
  // the base order, where the two coincide for every mechanism (round-1
  // order == base).
  if (state.participant) return state.participant->successor();
  return protocol::core::ringSuccessor(ringOf(state), self_);
}

bool ServiceCore::repairAfterDeadSuccessor(QueryState& state, NodeId dead,
                                           Effects& fx) {
  const std::int64_t t0 =
      state.traceCtx.active() ? obs::EventTracer::nowNs() : 0;
  metrics_.peersDeclaredDead.inc();
  PRIVTOPK_LOG_WARN("service ", self_, ": declaring successor ", dead,
                    " dead for query ", state.descriptor.queryId, " after ",
                    state.sendFailures, " send failures");
  const protocol::core::RepairOutcome outcome = applyRepair(state, dead);
  state.sendFailures = 0;
  metrics_.ringRepairs.inc();
  if (outcome.belowFloor) {
    abortQuery(state, "ring shrank below the privacy floor after repair",
               fx);
    return false;
  }
  // Announce the shrunken ring.  Best-effort: circulation stops at any
  // node that already applied the repair, and a node whose own successor
  // is dead detects and repairs independently.
  const NodeId next = successorFor(state);
  fx.sends.push_back(
      Outbound{state.descriptor.queryId,
               frameOf(net::RingRepair{
                   state.descriptor.queryId, dead, next,
                   obs::emitChildSpan(spanSink_, state.traceCtx, "repair",
                                      state.descriptor.queryId, self_, 0, t0,
                                      0)}),
               next, false});
  return true;
}

void ServiceCore::abortQuery(QueryState& state, const std::string& reason,
                             Effects& fx) {
  if (state.aborted) return;
  state.aborted = true;
  metrics_.aborted.inc();
  PRIVTOPK_LOG_WARN("service ", self_, ": aborting query ",
                    state.descriptor.queryId, ": ", reason);
  fx.retired.push_back(Retirement{state.descriptor.queryId, std::nullopt,
                                  "query aborted: " + reason});
}

// ---------------------------------------------------------------------------
// Initiation.

void ServiceCore::openRootTrace(QueryState& state, std::int64_t startNs) const {
  if (!options_.traceQueries) return;
  // The root "query" span is emitted at completion under the reserved id,
  // so every hop's span chains off a span that will exist.
  state.traceCtx.traceId = obs::allocateSpanId();
  state.rootSpanId = obs::allocateSpanId();
  state.traceCtx.parentSpanId = state.rootSpanId;
  state.traceStartNs = startNs;
}

void ServiceCore::beginFlat(const QueryDescriptor& descriptor,
                            std::vector<NodeId> ringOrder, LocalScan scan,
                            TimePoint now, Effects& fx) {
  QueryState& state = registerQuery(descriptor, 0, 0, now);
  state.initiator = true;
  metrics_.initiated.inc();
  openRootTrace(state, scan.startNs);
  (void)obs::emitChildSpan(spanSink_, state.traceCtx, "local_input",
                           descriptor.queryId, self_, 0, scan.startNs, 0);
  if (descriptor.isAggregate()) {
    state.addends = std::move(scan.addends);
    state.ringOrder = std::move(ringOrder);
    state.masks.resize(state.addends.size());
    for (auto& m : state.masks) m = rng_.next();
  } else {
    buildParticipant(state, std::move(ringOrder), std::move(scan.input));
  }
  // Announce first (FIFO links deliver it ahead of the round token on
  // every hop), then start the protocol immediately.
  net::QueryAnnounce announce =
      announceFor(descriptor, ringOf(state), 0, 0, state.traceCtx);
  queueSend(state, std::move(announce), now, fx);
  beginRounds(state, now, fx);
}

void ServiceCore::beginGrouped(const QueryDescriptor& descriptor,
                               const std::vector<NodeId>& ringOrder,
                               LocalScan scan, TimePoint now, Effects& fx) {
  const std::uint64_t parentId = descriptor.queryId;

  // The partition and delegate selection are a pure function of this
  // node's seed and the query id, so the runner can replay the exact
  // grouping (protocol::GroupPlan).
  Rng layoutRng(protocol::groupLayoutSeed(seed_, parentId));
  const protocol::GroupLayout layout = protocol::makeGroupLayout(
      ringOrder, self_, descriptor.groupSize, layoutRng);

  // Our own group's phase-1 sub-query, with this node as its delegate.
  QueryDescriptor sub = descriptor;
  sub.queryId = protocol::groupSubQueryId(parentId, 0);
  sub.groupSize = 0;

  // Parent entry: tracks the two phases; it retires with the final
  // result.
  QueryState& parent =
      registerParent(descriptor, layout.groups.front(), sub.queryId, now);
  parent.initiator = true;
  parent.layout = layout;
  metrics_.initiated.inc();
  openRootTrace(parent, scan.startNs);
  const obs::TraceContext rootCtx = parent.traceCtx;
  (void)obs::emitChildSpan(spanSink_, rootCtx, "local_input", sub.queryId,
                           self_, 0, scan.startNs, 0);

  // Phase-1 announces also carry the group count (the merge ring's
  // length), which paces the members' result probe (onPhaseDone).
  const auto groupAnnounce = [&](const QueryDescriptor& d, std::size_t g) {
    net::QueryAnnounce announce =
        announceFor(d, layout.groups[g], parentId, 1, rootCtx);
    announce.groups = static_cast<std::uint32_t>(layout.groups.size());
    return announce;
  };

  // Phase-1 fan-out: hand each remote group's announce straight to its
  // delegate, which forwards it and opens the ring (delegated start).
  for (std::size_t g = 1; g < layout.groups.size(); ++g) {
    QueryDescriptor remote = descriptor;
    remote.queryId = protocol::groupSubQueryId(parentId, g);
    remote.groupSize = 0;
    parent.fanOut.push_back(Outbound{
        remote.queryId, frameOf(groupAnnounce(remote, g)),
        layout.groups[g].front(), false});
  }
  fx.sends = parent.fanOut;

  // Our own group's phase-1 ring.
  QueryState& state = registerQuery(sub, parentId, 1, now);
  state.initiator = true;
  state.traceCtx = rootCtx;
  buildParticipant(state, layout.groups.front(), std::move(scan.input));
  queueSend(state, groupAnnounce(sub, 0), now, fx);
  beginRounds(state, now, fx);
}

ServiceCore::QueryState& ServiceCore::registerQuery(
    const QueryDescriptor& descriptor, std::uint64_t parentId,
    std::uint8_t phase, TimePoint now) {
  QueryState& state = active_[descriptor.queryId];
  state.descriptor = descriptor;
  state.parentId = parentId;
  state.phase = phase;
  state.registeredAt = now;
  state.lastActivity = now;
  metrics_.activeQueries.add(1);
  return state;
}

void ServiceCore::buildParticipant(QueryState& state,
                                   std::vector<NodeId> ringOrder,
                                   TopKVector localInput) {
  const QueryDescriptor& descriptor = state.descriptor;
  auto params = descriptor.params;
  params.k = descriptor.effectiveK();
  if (options_.captureTraces) {
    state.trace = std::make_unique<protocol::ExecutionTrace>();
  }
  protocol::core::ParticipantConfig cfg;
  cfg.queryId = descriptor.queryId;
  cfg.self = self_;
  cfg.ringOrder = std::move(ringOrder);
  cfg.kind = descriptor.kind;
  cfg.params = params;
  cfg.trace = state.trace.get();
  cfg.spanSink = spanSink_;  // zero-cost while the query carries no context
  // A grouped phase's algorithm seed is a pure derivation from this node's
  // seed and the parent id, not a draw from rng_, so grouped runs replay
  // deterministically regardless of concurrent traffic.
  Rng phaseRng(protocol::groupPhaseSeed(seed_, state.parentId, state.phase));
  state.participant = std::make_unique<protocol::core::Participant>(
      std::move(cfg), std::move(localInput),
      protocol::core::makeLocalAlgorithm(descriptor.kind, params,
                                         state.phase == 0 ? rng_ : phaseRng));
}

void ServiceCore::beginRounds(QueryState& state, TimePoint now, Effects& fx) {
  const auto& descriptor = state.descriptor;
  if (descriptor.isAggregate()) {
    std::vector<std::int64_t> sums(state.addends.size());
    for (std::size_t i = 0; i < sums.size(); ++i) {
      sums[i] = static_cast<std::int64_t>(
          state.masks[i] + static_cast<std::uint64_t>(state.addends[i]));
    }
    queueSend(state,
              net::SumToken{descriptor.queryId, 1, std::move(sums),
                            state.traceCtx},
              now, fx);
    return;
  }
  protocol::core::Actions actions =
      state.participant->onStart(state.traceCtx);
  if (actions.sendToken) queueSend(state, std::move(*actions.sendToken), now, fx);
}

// ---------------------------------------------------------------------------
// Message handlers.

void ServiceCore::handleMessage(NodeId from, const net::Message& message,
                                std::int64_t receivedAtNs, TimePoint now,
                                Effects& fx) {
  const Arrival in{from, receivedAtNs,
                   receivedAtNs > 0 ? obs::EventTracer::nowNs() - receivedAtNs
                                    : 0,
                   now};
  try {
    if (const auto* announce = std::get_if<net::QueryAnnounce>(&message)) {
      onAnnounce(*announce, in, fx);
    } else if (const auto* token = std::get_if<net::RoundToken>(&message)) {
      onRoundToken(*token, in, fx);
    } else if (const auto* sum = std::get_if<net::SumToken>(&message)) {
      onSumToken(*sum, in, fx);
    } else if (const auto* result =
                   std::get_if<net::ResultAnnouncement>(&message)) {
      onResult(*result, in, fx);
    } else {
      onRingRepair(std::get<net::RingRepair>(message), now, fx);
    }
  } catch (const Error& e) {
    // Hostile or confused traffic must not take the service down.
    metrics_.droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_, ": dropped message for query ",
                      std::visit([](const auto& m) { return m.queryId; },
                                 message),
                      ": ", e.what());
  }
}

void ServiceCore::onAnnounce(const net::QueryAnnounce& announce,
                             const Arrival& in, Effects& fx) {
  if (knows(announce.queryId)) {
    return;  // our own announce circled back, or a duplicate
  }
  const std::int64_t t0 =
      announce.ctx.active() ? obs::EventTracer::nowNs() : 0;
  const QueryDescriptor descriptor =
      QueryDescriptor::decode(announce.descriptor);
  if (descriptor.queryId != announce.queryId) {
    throw ProtocolError("QueryAnnounce: inner/outer query id mismatch");
  }
  if (!protocol::core::meetsPrivacyFloor(announce.ringOrder.size())) {
    throw ProtocolError("QueryAnnounce: ring needs >= 3 nodes");
  }
  if (!protocol::core::onRing(announce.ringOrder, self_)) {
    throw ProtocolError("QueryAnnounce: this node is not on the ring");
  }
  if (announce.phase != 0 && descriptor.isAggregate()) {
    throw ProtocolError("QueryAnnounce: aggregate queries cannot be grouped");
  }
  if (descriptor.params.remapEachRound) {
    // Every node must route on the same ring; the service has no
    // controller-driven remap broadcast (docs/PROTOCOL.md §5).
    throw ProtocolError(
        "QueryAnnounce: per-round ring remapping is not supported");
  }
  if (announce.phase == 2) {
    onMergeAnnounce(announce, descriptor, in, fx);
    return;
  }
  // A descriptor this node cannot serve is dropped here, before it is
  // registered or forwarded; the table itself is scanned after the forward.
  // decode has validated the descriptor itself.
  LocalParty(*db_).checkSchema(descriptor);

  QueryState& state = registerQuery(descriptor, announce.parentQueryId,
                                    announce.phase, in.now);
  state.ringOrder = announce.ringOrder;
  metrics_.participated.inc();
  const obs::TraceContext child = forwardAnnounce(state, announce, t0, in,
                                                  fx);
  if (announce.phase == 1 && !knows(announce.parentQueryId)) {
    QueryDescriptor parentDescriptor = descriptor;
    parentDescriptor.queryId = announce.parentQueryId;
    QueryState& parent = registerParent(parentDescriptor, announce.ringOrder,
                                        announce.queryId, in.now);
    parent.traceCtx = child;
    parent.mergeRingSize = announce.groups;
    metrics_.participated.inc();
  }
  // Delegated start (§4.2): the coordinator handed this announce straight
  // to the group's front node, which opens the ring once its scan is done.
  // FIFO links keep the forwarded announce ahead of the first token on
  // every hop.
  const bool delegatedStart =
      announce.phase == 1 && announce.ringOrder.front() == self_;
  fx.scans.push_back(
      PendingScan{announce.queryId, descriptor, delegatedStart, child,
                  child.active() ? obs::EventTracer::nowNs() : 0});
}

ServiceCore::QueryState& ServiceCore::registerParent(
    const QueryDescriptor& descriptor, const std::vector<NodeId>& groupRing,
    std::uint64_t groupSubId, TimePoint now) {
  QueryState& parent = registerQuery(descriptor, 0, 0, now);
  parent.ringOrder = groupRing;
  parent.isParent = true;
  parent.isDelegate = groupRing.front() == self_;
  parent.groupSubId = groupSubId;
  mergeParents_[protocol::mergeQueryId(descriptor.queryId)] =
      descriptor.queryId;
  return parent;
}

void ServiceCore::onMergeAnnounce(const net::QueryAnnounce& announce,
                                  const QueryDescriptor& descriptor,
                                  const Arrival& in, Effects& fx) {
  const std::int64_t t0 =
      announce.ctx.active() ? obs::EventTracer::nowNs() : 0;
  const auto parentIt = active_.find(announce.parentQueryId);
  if (parentIt == active_.end() || !parentIt->second.isParent) {
    metrics_.droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_,
                      ": merge announce for unknown grouped query ",
                      announce.parentQueryId);
    return;
  }
  QueryState& parent = parentIt->second;
  if (announce.queryId != protocol::mergeQueryId(announce.parentQueryId)) {
    throw ProtocolError("QueryAnnounce: unexpected merge query id");
  }
  if (!parent.groupRaw) {
    // Our own group has not finished phase 1 yet; hold the announce until
    // the group result (this delegate's merge-ring input) exists.
    stash(announce.parentQueryId, net::Message{announce}, in.receivedAtNs);
    return;
  }

  QueryState& state =
      registerQuery(descriptor, announce.parentQueryId, 2, in.now);
  buildParticipant(state, announce.ringOrder, *parent.groupRaw);
  metrics_.participated.inc();
  (void)forwardAnnounce(state, announce, t0, in, fx);
}

obs::TraceContext ServiceCore::forwardAnnounce(
    QueryState& state, const net::QueryAnnounce& announce, std::int64_t t0,
    const Arrival& in, Effects& fx) {
  // One "announce_handled" span per hop; the forwarded announce carries
  // the child context so the next hop chains off this one.
  state.traceCtx =
      obs::emitChildSpan(spanSink_, announce.ctx, "announce_handled",
                         announce.queryId, self_, 0, t0, in.queueNs);
  net::QueryAnnounce forwarded = announce;  // keep the announce circling
  forwarded.ctx = state.traceCtx;
  queueSend(state, std::move(forwarded), in.now, fx);
  return state.traceCtx;
}

void ServiceCore::onRoundToken(const net::RoundToken& token,
                               const Arrival& in, Effects& fx) {
  const auto it = active_.find(token.queryId);
  if (it == active_.end()) {
    if (maybeStashMergeTraffic(token.queryId, net::Message{token},
                               in.receivedAtNs)) {
      return;
    }
    if (replayCompletedResult(token.queryId, in.from, fx)) return;
    metrics_.droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_, ": token for unknown query ",
                      token.queryId);
    return;
  }
  QueryState& state = it->second;
  if (state.aborted) return;
  if (!state.participant) {
    // A grouped member's probe (see onPhaseDone) reached a node that
    // is still waiting for the final result itself.
    if (state.isParent) return;
    // A round token for an aggregate query is hostile or confused traffic.
    metrics_.droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_, ": round token for non-ring query ",
                      token.queryId);
    return;
  }
  // The core emits the "ring_round" span and stamps the outgoing token;
  // the state context tracks the chain for service-side spans (repair).
  if (token.ctx.active()) state.traceCtx = token.ctx;
  protocol::core::Actions actions =
      state.participant->onToken(token.round, token.vector, token.ctx,
                                 in.queueNs);
  if (actions.duplicate) {
    // A retransmitted token we already processed: pass-once semantics.
    metrics_.duplicatesDropped.inc();
    return;
  }
  if (!state.firstTokenSeen) {
    state.firstTokenSeen = true;
    if (!state.initiator) {
      metrics_.announceToFirstTokenMs.observe(
          elapsedMs(state.registeredAt, in.now));
    }
  }
  state.lastActivity = in.now;
  // A token came round: every merge-ring delegate ran its group.
  state.fanOut.clear();

  if (actions.roundClosed) metrics_.roundsExecuted.inc();
  if (actions.sendToken) queueSend(state, std::move(*actions.sendToken), in.now, fx);
  if (actions.sendResult) {
    TopKVector result = actions.sendResult->result;
    queueSend(state, std::move(*actions.sendResult), in.now, fx);
    applyCompletion(token.queryId, std::move(result), in.now, fx);
  }
}

void ServiceCore::onSumToken(const net::SumToken& token, const Arrival& in,
                             Effects& fx) {
  const auto it = active_.find(token.queryId);
  if (it == active_.end()) {
    if (replayCompletedResult(token.queryId, in.from, fx)) return;
    metrics_.droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_, ": sum token for unknown query ",
                      token.queryId);
    return;
  }
  QueryState& state = it->second;
  if (state.aborted) return;
  if (state.sumSeen) {
    metrics_.duplicatesDropped.inc();
    return;
  }
  if (token.sums.size() != state.addends.size()) {
    throw ProtocolError("SumToken: counter count mismatch");
  }
  const std::int64_t t0 = token.ctx.active() ? obs::EventTracer::nowNs() : 0;
  state.sumSeen = true;
  state.lastActivity = in.now;
  state.traceCtx =
      obs::emitChildSpan(spanSink_, token.ctx, "sum_pass", token.queryId,
                         self_, token.round, t0, in.queueNs);

  if (state.initiator) {
    // Unmask and publish.
    TopKVector totals(token.sums.size());
    for (std::size_t i = 0; i < totals.size(); ++i) {
      totals[i] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(token.sums[i]) - state.masks[i]);
    }
    queueSend(state,
              net::ResultAnnouncement{token.queryId, totals, state.traceCtx},
              in.now, fx);
    applyCompletion(token.queryId, std::move(totals), in.now, fx);
    return;
  }
  // Add our addends mod 2^64 and pass along.
  std::vector<std::int64_t> sums = token.sums;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    sums[i] = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(sums[i]) +
        static_cast<std::uint64_t>(state.addends[i]));
  }
  queueSend(state,
            net::SumToken{token.queryId, token.round, std::move(sums),
                          state.traceCtx},
            in.now, fx);
}

void ServiceCore::onResult(const net::ResultAnnouncement& result,
                           const Arrival& in, Effects& fx) {
  const auto it = active_.find(result.queryId);
  if (it == active_.end()) {
    // Already completed here (initiator's own announce returning, or a
    // duplicate): stop the circulation - unless it is merge traffic that
    // raced ahead of our own phase-1 run.
    (void)maybeStashMergeTraffic(result.queryId, net::Message{result},
                                 in.receivedAtNs);
    return;
  }
  QueryState& state = it->second;
  if (state.aborted) return;
  if (state.participant) {
    // The core emits the "result_dissemination" span and stamps the
    // forwarded announcement.
    if (result.ctx.active()) state.traceCtx = result.ctx;
    protocol::core::Actions actions =
        state.participant->onResult(result.result, result.ctx);
    if (actions.duplicate || !actions.sendResult) return;
    // Forward once before completing.
    queueSend(state, std::move(*actions.sendResult), in.now, fx);
    applyCompletion(result.queryId, state.participant->result(), in.now,
                    fx);
    return;
  }
  if (state.isParent && !state.groupRaw) {
    // The final result overtook this member's own phase-1 result: the two
    // are different keys of the run queue.  Hold it until the phase-1
    // hand-off (onPhaseDone replays it), so the group phase is
    // recorded before the parent retires.  A phase-1 entry that is gone
    // (collected) or aborted will never hand off: apply the result now.
    const auto sub = active_.find(state.groupSubId);
    if (sub != active_.end() && !sub->second.aborted) {
      stash(result.queryId, net::Message{result}, in.receivedAtNs);
      return;
    }
  }
  // Aggregate follower, or a grouped parent receiving the disseminated
  // final result on its group ring: forward once before completing.
  const std::int64_t t0 = result.ctx.active() ? obs::EventTracer::nowNs() : 0;
  state.traceCtx =
      obs::emitChildSpan(spanSink_, result.ctx, "result_dissemination",
                         result.queryId, self_, 0, t0, in.queueNs);
  net::ResultAnnouncement forwarded = result;
  forwarded.ctx = state.traceCtx;
  queueSend(state, std::move(forwarded), in.now, fx);
  applyCompletion(result.queryId, result.result, in.now, fx);
}

bool ServiceCore::replayCompletedResult(std::uint64_t queryId, NodeId from,
                                        Effects& fx) {
  const auto it = completed_.find(queryId);
  if (it == completed_.end()) return false;
  const Retained& replay = it->second;
  // The result was only ever disseminated around the query's ring; a
  // token from outside it is hostile or confused, not a stranded peer.
  if (std::find(replay.ring.begin(), replay.ring.end(), from) ==
      replay.ring.end()) {
    return false;
  }
  metrics_.resultReplays.inc();
  PRIVTOPK_LOG_WARN("service ", self_, ": replaying result of query ",
                    queryId, " to stranded ring member ", from);
  // Replays carry no trace context: the trace chain of the retired query
  // ended at its completion, and a fabricated parent would dangle.
  fx.sends.push_back(Outbound{
      queryId,
      frameOf(net::ResultAnnouncement{queryId, replay.raw, {}}),
      from, false});
  return true;
}

void ServiceCore::onRingRepair(const net::RingRepair& repair, TimePoint now,
                               Effects& fx) {
  const auto it = active_.find(repair.queryId);
  if (it == active_.end()) return;  // unknown or already completed
  QueryState& state = it->second;
  if (state.aborted) return;
  const std::int64_t t0 =
      repair.ctx.active() || state.traceCtx.active()
          ? obs::EventTracer::nowNs()
          : 0;
  if (repair.failedNode == self_) {
    // We are demonstrably alive; a partitioned peer condemned us.  Keep
    // running - the shrunken ring proceeds without us.
    PRIVTOPK_LOG_WARN("service ", self_,
                      ": a peer declared this node dead for query ",
                      repair.queryId, "; standing down from the ring");
    return;
  }
  const protocol::core::RepairOutcome outcome =
      applyRepair(state, repair.failedNode);
  if (!outcome.applied) {
    return;  // already applied: the repair has circled the ring
  }
  metrics_.ringRepairs.inc();
  state.lastActivity = now;
  if (outcome.belowFloor) {
    abortQuery(state, "ring shrank below the privacy floor after repair",
               fx);
    return;
  }
  // Forward so every survivor learns the new ring.
  net::RingRepair forwarded = repair;
  forwarded.ctx = obs::emitChildSpan(
      spanSink_, repair.ctx.active() ? repair.ctx : state.traceCtx, "repair",
      repair.queryId, self_, 0, t0, 0);
  fx.sends.push_back(Outbound{repair.queryId, frameOf(forwarded),
                              successorFor(state), false});
}

// ---------------------------------------------------------------------------
// Grouped phase hand-off.

bool ServiceCore::maybeStashMergeTraffic(std::uint64_t queryId,
                                         const net::Message& message,
                                         std::int64_t receivedAtNs) {
  const auto parentRef = mergeParents_.find(queryId);
  if (parentRef == mergeParents_.end()) return false;
  const auto parentIt = active_.find(parentRef->second);
  if (parentIt == active_.end() || !parentIt->second.isParent) return false;
  stash(parentRef->second, message, receivedAtNs);
  return true;
}

void ServiceCore::stash(std::uint64_t parentId, net::Message message,
                        std::int64_t receivedAtNs) {
  auto& pending = stashed_[parentId];
  if (pending.size() >= kStashCap) {
    metrics_.droppedMessages.inc();
    return;
  }
  pending.push_back(Stashed{std::move(message), receivedAtNs});
}

void ServiceCore::replayStashed(std::uint64_t parentId, TimePoint now,
                                Effects& fx) {
  const auto it = stashed_.find(parentId);
  if (it == stashed_.end()) return;
  // Extract before replaying: a message that still cannot be processed
  // re-stashes itself instead of looping.
  std::vector<Stashed> pending = std::move(it->second);
  stashed_.erase(it);
  for (const Stashed& held : pending) {
    // The stash does not record senders; no ring contains the sentinel, so
    // a replayed message can never trigger a completed-result reply (its
    // query is live - the stash dies with the parent otherwise).  Only
    // merge traffic and final results are stashed; neither needs a table
    // scan.  The original delivery time makes the emitted span record the
    // whole wait in the stash.
    handleMessage(kNoSender, held.message, held.receivedAtNs, now, fx);
  }
}

void ServiceCore::onPhaseDone(std::uint8_t phase, std::uint64_t parentId,
                              TopKVector raw, TimePoint startedAt,
                              TimePoint now, Effects& fx) {
  const auto it = active_.find(parentId);
  if (it == active_.end()) return;
  QueryState& parent = it->second;
  if (parent.aborted || (phase == 1 && parent.groupRaw)) return;
  (phase == 1 ? metrics_.groupPhaseMs : metrics_.mergePhaseMs)
      .observe(elapsedMs(startedAt, now));
  // Phase span covering this node's whole run of the phase ring; later
  // spans chain off it.
  parent.traceCtx = obs::emitChildSpan(
      spanSink_, parent.traceCtx, phase == 1 ? "group_phase" : "merge_phase",
      parentId, self_, phase, toTraceNs(startedAt), 0);
  if (phase == 2) {
    // Disseminate the final result around this delegate's group ring;
    // every member completes the parent on receipt (onResult's
    // forward-once branch), and this node completes it right here.
    queueSend(parent, net::ResultAnnouncement{parentId, raw, parent.traceCtx},
              now, fx);
    applyCompletion(parentId, std::move(raw), now, fx);
    return;
  }
  parent.groupRaw = std::move(raw);
  parent.lastActivity = now;
  if (!parent.isDelegate) {
    // A member now only waits for the final result, with nothing of its
    // own to retransmit.  Arm a probe instead: a group-ring successor that
    // already retired the query answers it with the stored result
    // (replayCompletedResult), so a lost dissemination hop is recovered at
    // the retransmission deadline rather than by the stale GC.
    parent.lastMessage = frameOf(net::RoundToken{parentId, 0, {}, {}});
    // The merge phase runs the same rounds over the merge ring, so it is
    // expected to take this group phase's time scaled by the two rings'
    // lengths.  The first probe falls due retransmitAfter after that
    // (capped at staleAfter: the group count comes off the wire).
    const std::chrono::duration<double> mergePhase =
        std::chrono::duration<double>(now - startedAt) *
        static_cast<double>(parent.mergeRingSize) /
        static_cast<double>(parent.ringOrder.size());
    parent.lastActivity =
        now + std::chrono::duration_cast<TimePoint::duration>(std::min(
                  mergePhase,
                  std::chrono::duration<double>(options_.staleAfter)));
  }
  if (parent.initiator) startMergePhase(parent, now, fx);
  replayStashed(parentId, now, fx);
}

void ServiceCore::startMergePhase(QueryState& parent, TimePoint now,
                                  Effects& fx) {
  const std::uint64_t parentId = parent.descriptor.queryId;
  QueryDescriptor merged = parent.descriptor;
  merged.queryId = protocol::mergeQueryId(parentId);
  merged.groupSize = 0;

  QueryState& state = registerQuery(merged, parentId, 2, now);
  state.initiator = true;
  state.traceCtx = parent.traceCtx;
  state.fanOut = std::move(parent.fanOut);
  buildParticipant(state, parent.layout.mergeRing, *parent.groupRaw);
  queueSend(state,
            announceFor(merged, parent.layout.mergeRing, parentId, 2,
                        parent.traceCtx),
            now, fx);
  beginRounds(state, now, fx);
}

// ---------------------------------------------------------------------------
// Completion.

void ServiceCore::applyCompletion(std::uint64_t queryId, TopKVector raw,
                                  TimePoint now, Effects& fx) {
  const auto it = active_.find(queryId);
  if (it == active_.end()) return;
  QueryState& state = it->second;

  const std::uint64_t parentId = state.parentId;
  const std::uint8_t phase = state.phase;
  const TimePoint startedAt = state.registeredAt;

  metrics_.queryLatencyMs.observe(elapsedMs(state.registeredAt, now));
  if (state.participant != nullptr) {
    // One flush per query keeps the per-step protocol hot path free of
    // atomics; see protocol::LocalAlgorithm::PassCounts.
    const auto& passes = state.participant->passCounts();
    metrics_.randomizedPasses.inc(passes.randomized);
    metrics_.realPasses.inc(passes.real);
    metrics_.passthroughPasses.inc(passes.passthrough);
  }
  metrics_.completed.inc();
  metrics_.activeQueries.sub(1);
  if (state.rootSpanId != 0 && state.traceCtx.active() &&
      spanSink_ != nullptr) {
    // The root "query" span, under the id reserved at initiation so every
    // hop's spans already chain off it.
    obs::SpanRecord span;
    span.traceId = state.traceCtx.traceId;
    span.spanId = state.rootSpanId;
    span.name = "query";
    span.queryId = queryId;
    span.node = self_;
    span.startNs = state.traceStartNs;
    span.durNs = obs::EventTracer::nowNs() - state.traceStartNs;
    spanSink_->recordSpan(span);
  }

  fx.retired.push_back(
      Retirement{queryId, presentResult(state.descriptor, raw), std::string{}});
  // Only a phase hand-off still reads `raw` below; otherwise it moves.
  Retained retained{phase == 0 ? std::move(raw) : TopKVector(raw),
                    std::nullopt, ringOf(state), std::nullopt};
  if (state.descriptor.isBottom()) {
    retained.mirroredIn = state.descriptor.params.domain;
  }
  if (state.trace != nullptr) retained.trace = std::move(*state.trace);
  if (completed_.insert_or_assign(queryId, std::move(retained)).second) {
    completedOrder_.push_back(queryId);
  }
  while (completed_.size() > options_.completedCap) {
    completed_.erase(completedOrder_.front());
    completedOrder_.pop_front();
  }
  if (state.isParent) {
    mergeParents_.erase(protocol::mergeQueryId(queryId));
    stashed_.erase(queryId);
  }
  active_.erase(it);

  if (phase != 0) {
    onPhaseDone(phase, parentId, std::move(raw), startedAt, now, fx);
  }
}

// ---------------------------------------------------------------------------
// Observers.

bool ServiceCore::knows(std::uint64_t queryId) const {
  return active_.contains(queryId) || completed_.contains(queryId) ||
         abandoned_.contains(queryId);
}

std::optional<TopKVector> ServiceCore::resultOf(std::uint64_t queryId) const {
  const auto it = completed_.find(queryId);
  if (it == completed_.end()) return std::nullopt;
  const Retained& retained = it->second;
  if (!retained.mirroredIn) return retained.raw;
  return mirrorValues(*retained.mirroredIn, retained.raw);
}

std::optional<protocol::ExecutionTrace> ServiceCore::traceOf(
    std::uint64_t queryId) const {
  const auto it = completed_.find(queryId);
  if (it == completed_.end()) return std::nullopt;
  return it->second.trace;
}

std::size_t ServiceCore::stashedMessages() const {
  std::size_t total = 0;
  for (const auto& [parentId, pending] : stashed_) total += pending.size();
  return total;
}

std::vector<ServiceCore::ActiveView> ServiceCore::activeView() const {
  std::vector<ActiveView> view;
  view.reserve(active_.size());
  for (const auto& [queryId, state] : active_) {
    view.push_back(ActiveView{queryId, state.aborted, ringOf(state).size(),
                              state.registeredAt});
  }
  return view;
}

std::string ServiceCore::queriesJson(TimePoint now) const {
  std::ostringstream os;
  os << "{\"node\":" << self_ << ",\"active\":[";
  bool first = true;
  for (const auto& [queryId, state] : active_) {
    if (!first) os << ',';
    first = false;
    os << "{\"query_id\":" << queryId << ",\"kind\":\""
       << (state.descriptor.isAggregate() ? "aggregate" : "ring")
       << "\",\"phase\":" << static_cast<int>(state.phase)
       << ",\"initiator\":" << (state.initiator ? "true" : "false")
       << ",\"parent_id\":" << state.parentId
       << ",\"ring_size\":" << ringOf(state).size()
       << ",\"age_ms\":" << elapsedMs(state.registeredAt, now)
       << ",\"trace_id\":\"" << state.traceCtx.traceId << "\"}";
  }
  os << "],\"completed\":[";
  // The most recent retirements, oldest first (the full cache can hold
  // ServiceOptions::completedCap entries - too much for a scrape body).
  constexpr std::size_t kRecentCompleted = 32;
  const std::size_t start = completedOrder_.size() > kRecentCompleted
                                ? completedOrder_.size() - kRecentCompleted
                                : 0;
  for (std::size_t i = start; i < completedOrder_.size(); ++i) {
    if (i > start) os << ',';
    const std::uint64_t queryId = completedOrder_[i];
    os << "{\"query_id\":" << queryId;
    const auto it = completed_.find(queryId);
    if (it != completed_.end()) {
      os << ",\"result_size\":" << it->second.raw.size();
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace privtopk::query
