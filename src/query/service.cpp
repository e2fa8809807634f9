#include "query/service.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/export.hpp"
#include "obs/process_metrics.hpp"
#include "obs/trace.hpp"
#include "query/federation.hpp"

namespace privtopk::query {

using namespace std::chrono_literals;

namespace {

constexpr char kService[] = "service";

/// Messages held per grouped query until this node's own phase-1 run
/// finishes (merge traffic at a delegate, the final result at a member);
/// beyond this the sender's retransmission covers us.
constexpr std::size_t kStashCap = 64;

/// Sender placeholder for replayed stashed messages, whose transport-level
/// origin was not recorded.  No ring ever contains it.
constexpr NodeId kNoSender = std::numeric_limits<NodeId>::max();

/// How often a dispatch worker runs maintenance (stale GC +
/// retransmission).  Idle workers wait at most this long, so an idle
/// service still collects stale queries.  Retransmit sends can block on
/// slow links; running maintain() between every pair of work items would
/// starve the run queue under a retransmission storm (a congestion
/// collapse in the concurrency soak on single-core hosts).
constexpr std::chrono::milliseconds kMaintainInterval{25};

double elapsedMsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// steady_clock time point -> the EventTracer::nowNs timebase, so phase
/// spans can start at the moment their state was registered.
std::int64_t toTraceNs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

std::uint64_t queryIdOf(const net::Message& message) {
  return std::visit([](const auto& m) { return m.queryId; }, message);
}

/// Builds a QueryAnnounce for `descriptor`, duplicating the privacy
/// mechanism selection into the wire-level echo fields (validated by the
/// net layer without decoding the descriptor blob).
net::QueryAnnounce announceFor(const QueryDescriptor& descriptor,
                               std::vector<NodeId> ringOrder,
                               std::uint64_t parentQueryId, std::uint8_t phase,
                               std::uint32_t groupSize,
                               obs::TraceContext ctx) {
  net::QueryAnnounce announce;
  announce.queryId = descriptor.queryId;
  announce.descriptor = descriptor.encode();
  announce.ringOrder = std::move(ringOrder);
  announce.parentQueryId = parentQueryId;
  announce.phase = phase;
  announce.groupSize = groupSize;
  const protocol::MechanismSpec& mechanism = descriptor.params.mechanism;
  announce.mechanismId = static_cast<std::uint8_t>(mechanism.kind);
  if (mechanism.kind == protocol::MechanismKind::Segmented) {
    announce.segments = mechanism.segments;
  } else if (mechanism.kind == protocol::MechanismKind::Ldp) {
    announce.ldpEpsilon = mechanism.ldpEpsilon;
  }
  announce.ctx = ctx;
  return announce;
}

/// Throws ProtocolError when the announce's mechanism echo disagrees with
/// the mechanism inside the decoded descriptor (a tampered or buggy
/// announce must not pass net-layer validation with one mechanism and run
/// another).
void requireMechanismEcho(const net::QueryAnnounce& announce,
                          const QueryDescriptor& descriptor) {
  const protocol::MechanismSpec& mechanism = descriptor.params.mechanism;
  protocol::MechanismSpec echoed;
  if (announce.mechanismId >
      static_cast<std::uint8_t>(protocol::MechanismKind::Ldp)) {
    throw ProtocolError("QueryAnnounce: unknown privacy mechanism");
  }
  echoed.kind = static_cast<protocol::MechanismKind>(announce.mechanismId);
  if (echoed.kind == protocol::MechanismKind::Segmented) {
    echoed.segments = announce.segments;
  } else if (echoed.kind == protocol::MechanismKind::Ldp) {
    echoed.ldpEpsilon = announce.ldpEpsilon;
  }
  if (!(echoed == mechanism)) {
    throw ProtocolError(
        "QueryAnnounce: mechanism echo disagrees with the descriptor");
  }
}

}  // namespace

NodeService::Metrics::Metrics()
    : initiated(obs::counter("privtopk.query.queries_initiated",
                             {{"engine", kService}})),
      participated(obs::counter("privtopk.query.queries_participated",
                                {{"engine", kService}})),
      completed(obs::counter("privtopk.query.queries_completed",
                             {{"engine", kService}})),
      stalePurged(obs::counter("privtopk.query.queries_stale_purged",
                               {{"engine", kService}})),
      droppedMessages(obs::counter("privtopk.query.dropped_messages",
                                   {{"engine", kService}})),
      roundsExecuted(obs::counter("privtopk.protocol.rounds_executed",
                                  {{"engine", kService}})),
      randomizedPasses(obs::counter("privtopk.protocol.randomized_passes",
                                    {{"engine", kService}})),
      realPasses(obs::counter("privtopk.protocol.real_value_passes",
                              {{"engine", kService}})),
      passthroughPasses(obs::counter("privtopk.protocol.passthrough_passes",
                                     {{"engine", kService}})),
      retransmits(obs::counter("privtopk.query.retransmits",
                               {{"engine", kService}})),
      ringRepairs(obs::counter("privtopk.query.ring_repairs",
                               {{"engine", kService}})),
      peersDeclaredDead(obs::counter("privtopk.query.peers_declared_dead",
                                     {{"engine", kService}})),
      duplicatesDropped(obs::counter("privtopk.query.duplicates_dropped",
                                     {{"engine", kService}})),
      resultReplays(obs::counter("privtopk.query.result_replays",
                                 {{"engine", kService}})),
      aborted(obs::counter("privtopk.query.queries_aborted",
                           {{"engine", kService}})),
      admissionsRejected(obs::counter("privtopk.query.admissions_rejected",
                                      {{"engine", kService}})),
      activeQueries(obs::gauge("privtopk.query.active_queries",
                               {{"engine", kService}})),
      inflightQueries(obs::gauge("privtopk.query.inflight_queries",
                                 {{"engine", kService}})),
      queueDepth(obs::gauge("privtopk.query.queue_depth",
                            {{"engine", kService}})),
      queryLatencyMs(obs::histogram("privtopk.query.latency_ms",
                                    {{"engine", kService}},
                                    obs::defaultLatencyBucketsMs())),
      announceToFirstTokenMs(
          obs::histogram("privtopk.query.announce_to_first_token_ms",
                         {{"engine", kService}},
                         obs::defaultLatencyBucketsMs())),
      groupPhaseMs(obs::histogram("privtopk.query.group_phase_ms",
                                  {{"engine", kService}},
                                  obs::defaultLatencyBucketsMs())),
      mergePhaseMs(obs::histogram("privtopk.query.merge_phase_ms",
                                  {{"engine", kService}},
                                  obs::defaultLatencyBucketsMs())) {}

NodeService::NodeService(NodeId self, const data::PrivateDatabase& db,
                         net::Transport& transport, std::uint64_t seed,
                         std::chrono::milliseconds staleAfter)
    : NodeService(self, db, transport, seed, [&] {
        ServiceOptions options;
        options.staleAfter = staleAfter;
        return options;
      }()) {}

NodeService::NodeService(NodeId self, const data::PrivateDatabase& db,
                         net::Transport& transport, std::uint64_t seed,
                         ServiceOptions options)
    : self_(self), db_(&db), transport_(&transport), seed_(seed), rng_(seed),
      options_(options) {
  if (options_.completedCap == 0) {
    throw ConfigError("NodeService: completedCap must be >= 1");
  }
  if (options_.deadAfterFailures < 1) {
    throw ConfigError("NodeService: deadAfterFailures must be >= 1");
  }
  if (options_.maxInflightInitiations == 0) {
    throw ConfigError("NodeService: maxInflightInitiations must be >= 1");
  }
  if (options_.maxQueuedInitiations == 0) {
    throw ConfigError("NodeService: maxQueuedInitiations must be >= 1");
  }
  options_.workerThreads = std::max<std::size_t>(1, options_.workerThreads);
  if (options_.spanRingCapacity > 0) {
    spanBuffer_ =
        std::make_unique<obs::SpanRingBuffer>(options_.spanRingCapacity);
  }
  spanFan_.buffer = spanBuffer_.get();
}

NodeService::~NodeService() { stop(); }

void NodeService::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  obs::registerProcessMetrics();
  nextMaintain_.store(std::chrono::steady_clock::now() + kMaintainInterval);
  try {
    transport_->subscribe(self_, [this](net::Envelope&& envelope) {
      onEnvelope(std::move(envelope));
    });
  } catch (...) {
    running_.store(false);
    throw;
  }
  workers_.reserve(options_.workerThreads);
  for (std::size_t i = 0; i < options_.workerThreads; ++i) {
    workers_.emplace_back([this] { dispatchLoop(); });
  }
  if (options_.httpPort) {
    http_ = std::make_unique<net::HttpServer>(
        *options_.httpPort,
        [this](const net::HttpRequest& request) { return handleHttp(request); });
  }
}

void NodeService::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  http_.reset();
  // No delivery runs past this point, so nothing is enqueued behind the
  // drain below.
  transport_->unsubscribe(self_);
  schedCv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Deterministic drain: initiations that never began are rejected, begun
  // ones fail - without this node's threads their rings cannot progress.
  std::vector<std::promise<TopKVector>> rejected;
  {
    std::scoped_lock lock(schedMutex_);
    for (auto& admission : admissionQueue_) {
      metrics_.queueDepth.sub(1);
      rejected.push_back(std::move(admission.promise));
    }
    admissionQueue_.clear();
    for (auto& [key, items] : inbox_) {
      for (auto& item : items) {
        if (auto* admission = std::get_if<Admission>(&item)) {
          inflightInitiations_.fetch_sub(1);
          metrics_.inflightQueries.sub(1);
          rejected.push_back(std::move(admission->promise));
        }
      }
    }
    inbox_.clear();
    readyKeys_.clear();
    busyKeys_.clear();
    pendingIds_.clear();
  }
  for (auto& promise : rejected) {
    promise.set_exception(std::make_exception_ptr(
        TransportError("NodeService stopped before the query could run")));
  }
  std::scoped_lock lock(mutex_);
  for (auto& [queryId, state] : active_) {
    if (state.admitted) {
      state.admitted = false;
      inflightInitiations_.fetch_sub(1);
      metrics_.inflightQueries.sub(1);
    }
    if (state.initiator && !state.promiseSettled) {
      state.promiseSettled = true;
      state.promise.set_exception(std::make_exception_ptr(
          TransportError("NodeService stopped with the query in flight")));
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler: the transport's delivery handler feeds a keyed run queue;
// dispatch workers drain it one item per key at a time, so each query's
// messages apply in arrival order while distinct queries progress in
// parallel.  The workers also run maintenance on a timer.

void NodeService::onEnvelope(net::Envelope&& envelope) {
  try {
    net::Message message = net::decodeMessage(envelope.payload);
    const std::uint64_t key = queryIdOf(message);
    enqueueWork(key, WorkItem{Inbound{envelope.from, std::move(message),
                                      obs::EventTracer::nowNs()}});
  } catch (const Error& e) {
    // Hostile or stale traffic must not take the service down.
    metrics_.droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_, ": dropped message from ",
                      envelope.from, ": ", e.what());
  }
}

void NodeService::dispatchLoop() {
  while (running_.load()) {
    maintainIfDue();
    auto work = popWork();
    if (!work) continue;
    runWorkItem(work->first, work->second);
    finishKey(work->first);
  }
}

void NodeService::maintainIfDue() {
  const auto now = std::chrono::steady_clock::now();
  auto due = nextMaintain_.load();
  if (now < due) return;
  // Another worker that saw the same deadline loses this exchange.
  if (!nextMaintain_.compare_exchange_strong(due, now + kMaintainInterval)) {
    return;
  }
  maintain();
}

void NodeService::enqueueWork(std::uint64_t key, WorkItem item) {
  {
    std::scoped_lock lock(schedMutex_);
    inbox_[key].push_back(std::move(item));
    if (!busyKeys_.contains(key)) readyKeys_.insert(key);
  }
  schedCv_.notify_one();
}

void NodeService::admitPending() {
  while (!admissionQueue_.empty() &&
         inflightInitiations_.load() < options_.maxInflightInitiations) {
    Admission admission = std::move(admissionQueue_.front());
    admissionQueue_.pop_front();
    metrics_.queueDepth.sub(1);
    inflightInitiations_.fetch_add(1);
    metrics_.inflightQueries.add(1);
    const std::uint64_t key = admission.descriptor.queryId;
    inbox_[key].push_back(WorkItem{std::move(admission)});
    if (!busyKeys_.contains(key)) readyKeys_.insert(key);
  }
}

void NodeService::releaseInflightSlot() {
  inflightInitiations_.fetch_sub(1);
  metrics_.inflightQueries.sub(1);
  // A waiting worker admits the next queued initiation; busy workers pass
  // through admitPending() on their next popWork().
  schedCv_.notify_all();
}

std::optional<std::pair<std::uint64_t, NodeService::WorkItem>>
NodeService::popWork() {
  std::unique_lock lock(schedMutex_);
  for (bool waited = false; running_.load(); waited = true) {
    admitPending();
    if (!readyKeys_.empty()) {
      const std::uint64_t key = *readyKeys_.begin();
      readyKeys_.erase(readyKeys_.begin());
      busyKeys_.insert(key);
      auto& queue = inbox_[key];
      WorkItem item = std::move(queue.front());
      queue.pop_front();
      if (queue.empty()) inbox_.erase(key);
      return std::make_pair(key, std::move(item));
    }
    if (waited) break;
    schedCv_.wait_until(lock, nextMaintain_.load());
  }
  return std::nullopt;
}

void NodeService::finishKey(std::uint64_t key) {
  bool moreWork = false;
  {
    std::scoped_lock lock(schedMutex_);
    busyKeys_.erase(key);
    if (inbox_.contains(key)) {
      readyKeys_.insert(key);
      moreWork = true;
    }
  }
  if (moreWork) schedCv_.notify_one();
}

void NodeService::runWorkItem(std::uint64_t key, WorkItem& item) {
  std::vector<Outbound> out;
  std::deque<Completion> done;
  std::optional<PendingScan> scan;
  if (auto* admission = std::get_if<Admission>(&item)) {
    performInitiation(*admission, out);
  } else {
    const auto& inbound = std::get<Inbound>(item);
    const std::int64_t queueNs =
        inbound.receivedAtNs > 0
            ? obs::EventTracer::nowNs() - inbound.receivedAtNs
            : 0;
    std::scoped_lock lock(mutex_);
    try {
      scan = handleMessage(inbound.from, inbound.message, queueNs, out, done);
    } catch (const Error& e) {
      metrics_.droppedMessages.inc();
      PRIVTOPK_LOG_WARN("service ", self_, ": dropped message for query ",
                        key, ": ", e.what());
    }
  }
  if (scan) {
    // The forwarded announce leaves before the scan, so the successor
    // scans its own table while this node scans.  The key stays busy, so
    // the query's round-1 token waits in the run queue until the state
    // the scan builds exists.
    flushOutbound(out);
    runScan(*scan, out);
  }
  // Flush sends before applying each completion: a finished query's final
  // forward (and a merge delegate's dissemination) must leave while the
  // state is still registered, or the successor resolution would fail.
  while (true) {
    flushOutbound(out);
    if (done.empty()) break;
    Completion completion = std::move(done.front());
    done.pop_front();
    std::scoped_lock lock(mutex_);
    applyCompletion(std::move(completion), out, done);
  }
}

void NodeService::runScan(const PendingScan& scan,
                          std::vector<Outbound>& out) {
  const std::int64_t t0 = scan.ctx.active() ? obs::EventTracer::nowNs() : 0;
  const LocalParty party(*db_);
  TopKVector input;
  std::vector<std::int64_t> addends;
  std::string failure;
  try {
    if (scan.descriptor.isAggregate()) {
      addends = party.localAggregate(scan.descriptor);
    } else {
      input = party.localInput(scan.descriptor);
    }
  } catch (const Error& e) {
    failure = e.what();
  }
  (void)obs::emitChildSpan(&spanFan_, scan.ctx, "local_input", scan.queryId,
                           self_, 0, t0, t0 - scan.handedBackNs);

  std::scoped_lock lock(mutex_);
  const auto it = active_.find(scan.queryId);
  // Garbage-collected or aborted (ring repair) while the scan ran.
  if (it == active_.end() || it->second.aborted) return;
  QueryState& state = it->second;
  if (failure.empty()) {
    try {
      if (scan.descriptor.isAggregate()) {
        state.addends = std::move(addends);
        return;
      }
      // Grouped sub-query: the algorithm seed is a pure derivation from
      // this node's seed and the parent id, not a draw from rng_, so
      // grouped runs replay deterministically regardless of concurrent
      // traffic.
      Rng phaseRng(protocol::groupPhaseSeed(seed_, state.parentId, 1));
      buildParticipant(state, state.descriptor,
                       std::exchange(state.ringOrder, {}), std::move(input),
                       state.phase == 1 ? phaseRng : rng_);
      if (scan.delegatedStart) beginRounds(state, out);
      return;
    } catch (const Error& e) {
      failure = e.what();
    }
  }
  metrics_.droppedMessages.inc();
  abortQuery(state, "cannot serve the query: " + failure);
}

void NodeService::maintain() {
  obs::updateProcessMetrics();
  const auto now = std::chrono::steady_clock::now();
  std::vector<Outbound> out;
  std::size_t releasedSlots = 0;
  {
    std::scoped_lock lock(mutex_);
    for (auto it = active_.begin(); it != active_.end();) {
      QueryState& state = it->second;
      const bool stale = now - state.registeredAt >= options_.staleAfter;
      if (state.aborted || stale) {
        if (!state.aborted) {
          PRIVTOPK_LOG_WARN("service ", self_,
                            ": garbage-collecting stale query ", it->first);
          metrics_.stalePurged.inc();
        }
        metrics_.activeQueries.sub(1);
        if (state.initiator && !state.promiseSettled) {
          state.promiseSettled = true;
          state.promise.set_exception(std::make_exception_ptr(
              TransportError("query timed out waiting for the ring")));
        }
        if (state.admitted) {
          state.admitted = false;
          ++releasedSlots;
        }
        if (state.isParent) {
          mergeParents_.erase(state.mergeId);
          stashed_.erase(it->first);
        }
        it = active_.erase(it);
        continue;
      }
      if (options_.retransmitAfter.count() > 0 && !state.lastMessage.empty() &&
          now - state.lastActivity >= options_.retransmitAfter) {
        state.lastActivity = now;
        metrics_.retransmits.inc();
        PRIVTOPK_LOG_WARN("service ", self_, ": retransmitting query ",
                          it->first, " to successor ", successorFor(state));
        // The successor may have missed the announce as well (it died on a
        // predecessor's link); duplicates are suppressed on arrival.
        if (!state.announceWire.empty() &&
            state.announceWire != state.lastMessage) {
          out.push_back(Outbound{it->first, state.announceWire, 0, false});
        }
        out.push_back(Outbound{it->first, state.lastMessage, 0, false});
      }
      ++it;
    }
  }
  for (std::size_t i = 0; i < releasedSlots; ++i) releaseInflightSlot();
  flushOutbound(out);
}

// ---------------------------------------------------------------------------
// Sends.

void NodeService::queueSend(QueryState& state, const net::Message& message,
                            std::vector<Outbound>& out) {
  state.lastMessage = net::encodeMessage(message);
  if (std::holds_alternative<net::QueryAnnounce>(message)) {
    state.announceWire = state.lastMessage;
  }
  state.lastActivity = std::chrono::steady_clock::now();
  out.push_back(
      Outbound{state.descriptor.queryId, state.lastMessage, 0, false});
}

void NodeService::flushOutbound(std::vector<Outbound>& out) {
  // Every send below runs with no service lock held.  Keep it so: an
  // in-process send runs the addressee's delivery handler (decode and
  // enqueue) inline on this thread, and holding mutex_ across it would
  // stall every query on this node behind the peer's work - or deadlock,
  // should a handler ever need a lock that a sender holds.
  // Index loop: ring repair may append repair notifies while we iterate.
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Moved, not copied: ring repair may append to (and reallocate) `out`,
    // and out[i] is not read again.
    const Outbound item = std::move(out[i]);
    if (item.direct) {
      // One-shot, best-effort (group fan-out, repair notifies); the
      // regular retransmission machinery covers losses.
      try {
        transport_->send(self_, item.target, item.wire);
      } catch (const OverloadError& e) {
        // Backpressure, not a dead peer: drop and let retransmission
        // recover (the peer is alive, just slow to drain).
        PRIVTOPK_LOG_WARN("service ", self_, ": direct send to ", item.target,
                          " rejected by backpressure: ", e.what());
      } catch (const TransportError& e) {
        PRIVTOPK_LOG_WARN("service ", self_, ": direct send to ", item.target,
                          " failed: ", e.what());
      }
      continue;
    }
    while (true) {
      NodeId succ = 0;
      {
        std::scoped_lock lock(mutex_);
        const auto it = active_.find(item.queryId);
        if (it == active_.end() || it->second.aborted) break;
        succ = successorFor(it->second);
      }
      try {
        transport_->send(self_, succ, item.wire);
        std::scoped_lock lock(mutex_);
        const auto it = active_.find(item.queryId);
        if (it != active_.end()) it->second.sendFailures = 0;
        break;
      } catch (const OverloadError& e) {
        // The successor's write queue is full.  That is congestion, not
        // death: counting it toward deadAfterFailures would amputate a
        // healthy-but-slow peer from the ring.  The retransmission
        // deadline retries once the queue drains.
        PRIVTOPK_LOG_WARN("service ", self_, ": send to ", succ,
                          " rejected by backpressure: ", e.what());
        break;
      } catch (const TransportError& e) {
        std::scoped_lock lock(mutex_);
        const auto it = active_.find(item.queryId);
        if (it == active_.end() || it->second.aborted) break;
        QueryState& state = it->second;
        ++state.sendFailures;
        PRIVTOPK_LOG_WARN("service ", self_, ": send to ", succ, " failed (",
                          state.sendFailures, "): ", e.what());
        if (state.sendFailures < options_.deadAfterFailures) {
          // Not yet condemned: the retransmission deadline retries later.
          break;
        }
        if (!repairAfterDeadSuccessor(state, succ, out)) break;
        // Ring repaired; retry toward the new successor.
      }
    }
  }
  out.clear();
}

// ---------------------------------------------------------------------------
// Ring bookkeeping.

const std::vector<NodeId>& NodeService::ringOf(const QueryState& state) {
  return state.participant ? state.participant->ringOrder() : state.ringOrder;
}

protocol::core::RepairOutcome NodeService::applyRepair(QueryState& state,
                                                       NodeId dead) {
  if (state.participant) return state.participant->onPeerDead(dead);
  return protocol::core::repairRing(state.ringOrder, dead);
}

NodeId NodeService::successorFor(const QueryState& state) const {
  // The participant knows which per-round ring ordering the privacy
  // mechanism has in flight; only pre-participant traffic (the announce,
  // forwarded before the local scan builds the participant) falls back to
  // the base order, where the two coincide for every mechanism (round-1
  // order == base).
  if (state.participant) return state.participant->successor();
  return protocol::core::ringSuccessor(ringOf(state), self_);
}

bool NodeService::repairAfterDeadSuccessor(QueryState& state, NodeId dead,
                                           std::vector<Outbound>& out) {
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
    abortQuery(state, "ring shrank below the privacy floor after repair");
    return false;
  }
  // Announce the shrunken ring.  Best-effort: circulation stops at any
  // node that already applied the repair, and a node whose own successor
  // is dead detects and repairs independently.
  const NodeId next = successorFor(state);
  out.push_back(
      Outbound{state.descriptor.queryId,
               net::encodeMessage(net::RingRepair{
                   state.descriptor.queryId, dead, next,
                   obs::emitChildSpan(&spanFan_, state.traceCtx, "repair",
                                      state.descriptor.queryId, self_, 0, t0,
                                      0)}),
               next, true});
  return true;
}

void NodeService::abortQuery(QueryState& state, const std::string& reason) {
  if (state.aborted) return;
  state.aborted = true;
  metrics_.aborted.inc();
  PRIVTOPK_LOG_WARN("service ", self_, ": aborting query ",
                    state.descriptor.queryId, ": ", reason);
  if (state.initiator && !state.promiseSettled) {
    state.promiseSettled = true;
    state.promise.set_exception(
        std::make_exception_ptr(TransportError("query aborted: " + reason)));
  }
}

// ---------------------------------------------------------------------------
// Initiation.

std::future<TopKVector> NodeService::initiate(QueryDescriptor descriptor,
                                              std::vector<NodeId> ringOrder) {
  descriptor.validate();
  if (!protocol::core::meetsPrivacyFloor(ringOrder.size())) {
    throw ConfigError("NodeService::initiate: ring needs >= 3 nodes");
  }
  if (ringOrder.front() != self_) {
    throw ConfigError("NodeService::initiate: initiator must be first on "
                      "the ring");
  }
  if (!running_.load()) {
    throw ConfigError("NodeService::initiate: service is not running");
  }
  {
    std::scoped_lock lock(mutex_);
    if (active_.contains(descriptor.queryId) ||
        completed_.contains(descriptor.queryId)) {
      throw ConfigError("NodeService::initiate: duplicate query id");
    }
  }

  Admission admission;
  admission.descriptor = std::move(descriptor);
  admission.ringOrder = std::move(ringOrder);
  std::future<TopKVector> future = admission.promise.get_future();
  {
    std::scoped_lock lock(schedMutex_);
    if (pendingIds_.contains(admission.descriptor.queryId)) {
      throw ConfigError("NodeService::initiate: duplicate query id");
    }
    if (admissionQueue_.size() >= options_.maxQueuedInitiations) {
      metrics_.admissionsRejected.inc();
      // Typed shedding: a full admission queue means THIS node is healthy
      // but saturated - clients must back off, not fail over as they would
      // for a dead link (TransportError).  Expect one queue slot to drain
      // per completed initiation; hint from the observed mean query
      // latency (50 ms before any completion has been recorded).
      const std::uint64_t completions = metrics_.queryLatencyMs.count();
      const double meanMs =
          completions > 0
              ? metrics_.queryLatencyMs.sum() / static_cast<double>(completions)
              : 50.0;
      const double hintMs = std::clamp(
          meanMs * static_cast<double>(admissionQueue_.size() + 1) /
              static_cast<double>(std::max<std::size_t>(
                  1, options_.maxInflightInitiations)),
          1.0,
          std::chrono::duration<double, std::milli>(options_.staleAfter)
              .count());
      throw OverloadError(
          "NodeService::initiate: admission queue is full",
          std::chrono::milliseconds(static_cast<std::int64_t>(hintMs)));
    }
    pendingIds_.insert(admission.descriptor.queryId);
    admissionQueue_.push_back(std::move(admission));
    metrics_.queueDepth.add(1);
  }
  schedCv_.notify_one();
  return future;
}

void NodeService::performInitiation(Admission& admission,
                                    std::vector<Outbound>& out) {
  const std::uint64_t queryId = admission.descriptor.queryId;
  try {
    {
      std::scoped_lock lock(mutex_);
      if (active_.contains(queryId) || completed_.contains(queryId)) {
        throw ConfigError("NodeService::initiate: duplicate query id");
      }
    }
    const QueryDescriptor& descriptor = admission.descriptor;
    const bool grouped =
        !descriptor.isAggregate() && descriptor.groupSize >= 3 &&
        admission.ringOrder.size() / descriptor.groupSize >= 3;
    if (grouped) {
      beginGrouped(admission, out);
    } else {
      beginFlat(admission, out);
    }
    std::scoped_lock lock(schedMutex_);
    pendingIds_.erase(queryId);
  } catch (...) {
    try {
      admission.promise.set_exception(std::current_exception());
    } catch (const std::future_error&) {
      // stop() settled it already.
    }
    {
      std::scoped_lock lock(schedMutex_);
      pendingIds_.erase(queryId);
    }
    releaseInflightSlot();
  }
}

void NodeService::beginFlat(Admission& admission, std::vector<Outbound>& out) {
  const QueryDescriptor descriptor = admission.descriptor;
  QueryState state;
  state.registeredAt = std::chrono::steady_clock::now();
  state.lastActivity = state.registeredAt;
  if (options_.traceQueries) {
    // The root "query" span is emitted at completion under the reserved
    // id, so every hop's span chains off a span that will exist.
    state.traceCtx.traceId = obs::allocateSpanId();
    state.rootSpanId = obs::allocateSpanId();
    state.traceCtx.parentSpanId = state.rootSpanId;
    state.traceStartNs = obs::EventTracer::nowNs();
  }
  // Scan before taking mutex_ and before anything is queued: a bad local
  // input fails initiate() with no traffic sent.
  const LocalParty party(*db_);
  TopKVector input;
  if (descriptor.isAggregate()) {
    state.addends = party.localAggregate(descriptor);
  } else {
    input = party.localInput(descriptor);
  }
  (void)obs::emitChildSpan(&spanFan_, state.traceCtx, "local_input",
                           descriptor.queryId, self_, 0, state.traceStartNs,
                           0);

  std::scoped_lock lock(mutex_);
  state.descriptor = descriptor;
  state.initiator = true;
  state.admitted = true;
  if (descriptor.isAggregate()) {
    state.ringOrder = std::move(admission.ringOrder);
    state.masks.resize(state.addends.size());
    for (auto& m : state.masks) m = rng_.next();
  } else {
    buildParticipant(state, descriptor, std::move(admission.ringOrder),
                     std::move(input), rng_);
  }
  state.promise = std::move(admission.promise);

  const auto [it, inserted] =
      active_.emplace(descriptor.queryId, std::move(state));
  (void)inserted;
  QueryState& registered = it->second;
  metrics_.initiated.inc();
  metrics_.activeQueries.add(1);

  // Announce first (FIFO links deliver it ahead of the round token on
  // every hop), then start the protocol immediately.
  queueSend(registered,
            announceFor(descriptor, ringOf(registered), 0, 0, 0,
                        registered.traceCtx),
            out);
  beginRounds(registered, out);
}

void NodeService::beginGrouped(Admission& admission,
                               std::vector<Outbound>& out) {
  const QueryDescriptor descriptor = admission.descriptor;
  const std::uint64_t parentId = descriptor.queryId;
  const auto groupSizeWire = static_cast<std::uint32_t>(descriptor.groupSize);

  // The partition and delegate selection are a pure function of this
  // node's seed and the query id, so the runner/simulator can replay the
  // exact grouping (protocol::GroupPlan).
  Rng layoutRng(protocol::groupLayoutSeed(seed_, parentId));
  const protocol::GroupLayout layout = protocol::makeGroupLayout(
      admission.ringOrder, self_, descriptor.groupSize, layoutRng);

  // Our own group's phase-1 sub-query, with this node as its delegate.
  // Its scan runs before mutex_ is taken and before anything is queued,
  // so a bad local input fails initiate() with no traffic sent.
  QueryDescriptor sub = descriptor;
  sub.queryId = protocol::groupSubQueryId(parentId, 0);
  sub.groupSize = 0;
  const auto now = std::chrono::steady_clock::now();
  const std::int64_t scanStartNs =
      options_.traceQueries ? obs::EventTracer::nowNs() : 0;
  TopKVector input = LocalParty(*db_).localInput(sub);

  std::scoped_lock lock(mutex_);

  // Parent entry: owns the initiator promise and tracks the two phases.
  // Its ring is this node's own group ring - the final-result
  // dissemination path.
  QueryState parent;
  parent.descriptor = descriptor;
  parent.ringOrder = layout.groups.front();
  parent.initiator = true;
  parent.admitted = true;
  parent.isParent = true;
  parent.isCoordinator = true;
  parent.isDelegate = true;
  parent.mergeId = protocol::mergeQueryId(parentId);
  parent.groupSubId = sub.queryId;
  parent.layout = layout;
  parent.promise = std::move(admission.promise);
  parent.registeredAt = now;
  parent.lastActivity = now;
  if (options_.traceQueries) {
    parent.traceCtx.traceId = obs::allocateSpanId();
    parent.rootSpanId = obs::allocateSpanId();
    parent.traceCtx.parentSpanId = parent.rootSpanId;
    parent.traceStartNs = scanStartNs;
  }
  const obs::TraceContext rootCtx = parent.traceCtx;
  (void)obs::emitChildSpan(&spanFan_, rootCtx, "local_input", sub.queryId,
                           self_, 0, scanStartNs, 0);
  mergeParents_[parent.mergeId] = parentId;
  active_.emplace(parentId, std::move(parent));
  metrics_.initiated.inc();
  metrics_.activeQueries.add(1);

  // Phase-1 fan-out: hand each remote group's announce straight to its
  // delegate, which forwards it and opens the ring (delegated start).
  for (std::size_t g = 1; g < layout.groups.size(); ++g) {
    QueryDescriptor remote = descriptor;
    remote.queryId = protocol::groupSubQueryId(parentId, g);
    remote.groupSize = 0;
    out.push_back(Outbound{
        remote.queryId,
        net::encodeMessage(announceFor(remote, layout.groups[g], parentId, 1,
                                       groupSizeWire, rootCtx)),
        layout.groups[g].front(), true});
  }

  // Our own group's phase-1 ring.
  QueryState state;
  state.descriptor = sub;
  state.initiator = true;
  state.promiseSettled = true;  // the result flows to the parent entry
  state.parentId = parentId;
  state.phase = 1;
  state.registeredAt = now;
  state.lastActivity = now;
  state.traceCtx = rootCtx;
  Rng phaseRng(protocol::groupPhaseSeed(seed_, parentId, 1));
  buildParticipant(state, sub, layout.groups.front(), std::move(input),
                   phaseRng);
  const auto [it, inserted] = active_.emplace(sub.queryId, std::move(state));
  (void)inserted;
  metrics_.activeQueries.add(1);
  QueryState& registered = it->second;
  queueSend(registered,
            announceFor(sub, layout.groups.front(), parentId, 1,
                        groupSizeWire, rootCtx),
            out);
  beginRounds(registered, out);
}

void NodeService::buildParticipant(QueryState& state,
                                   const QueryDescriptor& descriptor,
                                   std::vector<NodeId> ringOrder,
                                   TopKVector localInput, Rng& algRng) {
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
  cfg.spanSink = &spanFan_;  // zero-cost while the query carries no context
  state.participant = std::make_unique<protocol::core::Participant>(
      std::move(cfg), std::move(localInput),
      protocol::core::makeLocalAlgorithm(descriptor.kind, params, algRng));
}

void NodeService::beginRounds(QueryState& state, std::vector<Outbound>& out) {
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
              out);
    return;
  }
  const protocol::core::Actions actions =
      state.participant->onStart(state.traceCtx);
  if (actions.sendToken) queueSend(state, *actions.sendToken, out);
}

// ---------------------------------------------------------------------------
// Message handlers (mutex_ held).

std::optional<NodeService::PendingScan> NodeService::handleMessage(
    NodeId from, const net::Message& message, std::int64_t queueNs,
    std::vector<Outbound>& out, std::deque<Completion>& done) {
  if (const auto* announce = std::get_if<net::QueryAnnounce>(&message)) {
    return onAnnounce(*announce, queueNs, out);
  }
  if (const auto* token = std::get_if<net::RoundToken>(&message)) {
    onRoundToken(from, *token, queueNs, out, done);
  } else if (const auto* sum = std::get_if<net::SumToken>(&message)) {
    onSumToken(from, *sum, queueNs, out, done);
  } else if (const auto* result =
                 std::get_if<net::ResultAnnouncement>(&message)) {
    onResult(*result, queueNs, out, done);
  } else if (const auto* repair = std::get_if<net::RingRepair>(&message)) {
    onRingRepair(*repair, out);
  } else {
    metrics_.droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_, ": ignoring unknown message");
  }
  return std::nullopt;
}

std::optional<NodeService::PendingScan> NodeService::onAnnounce(
    const net::QueryAnnounce& announce, std::int64_t queueNs,
    std::vector<Outbound>& out) {
  if (active_.contains(announce.queryId) ||
      completed_.contains(announce.queryId)) {
    return std::nullopt;  // our own announce circled back, or a duplicate
  }
  const std::int64_t t0 =
      announce.ctx.active() ? obs::EventTracer::nowNs() : 0;
  const QueryDescriptor descriptor =
      QueryDescriptor::decode(announce.descriptor);
  if (descriptor.queryId != announce.queryId) {
    throw ProtocolError("QueryAnnounce: inner/outer query id mismatch");
  }
  requireMechanismEcho(announce, descriptor);
  if (!protocol::core::meetsPrivacyFloor(announce.ringOrder.size())) {
    throw ProtocolError("QueryAnnounce: ring needs >= 3 nodes");
  }
  if (!protocol::core::onRing(announce.ringOrder, self_)) {
    throw ProtocolError("QueryAnnounce: this node is not on the ring");
  }
  if (announce.phase != 0 && descriptor.isAggregate()) {
    throw ProtocolError("QueryAnnounce: aggregate queries cannot be grouped");
  }
  if (announce.phase == 2) {
    onMergeAnnounce(announce, descriptor, queueNs, out);
    return std::nullopt;
  }
  // A descriptor this node cannot serve is dropped here, before it is
  // registered or forwarded; the table itself is scanned after the forward.
  LocalParty(*db_).validateSchema(descriptor);

  QueryState state;
  state.descriptor = descriptor;
  state.ringOrder = announce.ringOrder;
  state.parentId = announce.parentQueryId;
  state.phase = announce.phase;
  state.registeredAt = std::chrono::steady_clock::now();
  state.lastActivity = state.registeredAt;

  const auto [it, inserted] =
      active_.emplace(announce.queryId, std::move(state));
  (void)inserted;
  metrics_.participated.inc();
  metrics_.activeQueries.add(1);
  // One "announce_handled" span per hop; the forwarded announce carries
  // the child context so the next hop chains off this one.
  const obs::TraceContext child =
      obs::emitChildSpan(&spanFan_, announce.ctx, "announce_handled",
                         announce.queryId, self_, 0, t0, queueNs);
  it->second.traceCtx = child;
  if (announce.phase == 1) registerParentFollower(announce, descriptor, child);
  net::QueryAnnounce forwarded = announce;  // keep the announce circling
  forwarded.ctx = child;
  queueSend(it->second, forwarded, out);
  // Delegated start (§4.2): the coordinator handed this announce straight
  // to the group's front node, which opens the ring once its scan is done.
  // FIFO links keep the forwarded announce ahead of the first token on
  // every hop.
  const bool delegatedStart =
      announce.phase == 1 && announce.ringOrder.front() == self_;
  return PendingScan{announce.queryId, descriptor, delegatedStart, child,
                     child.active() ? obs::EventTracer::nowNs() : 0};
}

void NodeService::registerParentFollower(const net::QueryAnnounce& announce,
                                         const QueryDescriptor& subDescriptor,
                                         const obs::TraceContext& ctx) {
  const std::uint64_t parentId = announce.parentQueryId;
  if (active_.contains(parentId) || completed_.contains(parentId)) return;
  QueryState parent;
  parent.descriptor = subDescriptor;
  parent.descriptor.queryId = parentId;
  parent.descriptor.groupSize = announce.groupSize;
  parent.ringOrder = announce.ringOrder;  // group ring: dissemination path
  parent.traceCtx = ctx;
  parent.isParent = true;
  parent.isDelegate = announce.ringOrder.front() == self_;
  parent.mergeId = protocol::mergeQueryId(parentId);
  parent.groupSubId = announce.queryId;
  parent.registeredAt = std::chrono::steady_clock::now();
  parent.lastActivity = parent.registeredAt;
  mergeParents_[parent.mergeId] = parentId;
  active_.emplace(parentId, std::move(parent));
  metrics_.participated.inc();
  metrics_.activeQueries.add(1);
}

void NodeService::onMergeAnnounce(const net::QueryAnnounce& announce,
                                  const QueryDescriptor& descriptor,
                                  std::int64_t queueNs,
                                  std::vector<Outbound>& out) {
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
  if (announce.queryId != parent.mergeId) {
    throw ProtocolError("QueryAnnounce: unexpected merge query id");
  }
  if (!parent.groupRaw) {
    // Our own group has not finished phase 1 yet; hold the announce until
    // the group result (this delegate's merge-ring input) exists.
    stash(announce.parentQueryId, net::Message{announce});
    return;
  }

  QueryState state;
  state.descriptor = descriptor;
  state.parentId = announce.parentQueryId;
  state.phase = 2;
  state.promiseSettled = true;  // the result flows to the parent entry
  state.registeredAt = std::chrono::steady_clock::now();
  state.lastActivity = state.registeredAt;
  Rng phaseRng(
      protocol::groupPhaseSeed(seed_, announce.parentQueryId, 2));
  buildParticipant(state, descriptor, announce.ringOrder, *parent.groupRaw,
                   phaseRng);
  const auto [it, inserted] =
      active_.emplace(announce.queryId, std::move(state));
  (void)inserted;
  metrics_.participated.inc();
  metrics_.activeQueries.add(1);
  const obs::TraceContext child =
      obs::emitChildSpan(&spanFan_, announce.ctx, "announce_handled",
                         announce.queryId, self_, 0, t0, queueNs);
  it->second.traceCtx = child;
  net::QueryAnnounce forwarded = announce;
  forwarded.ctx = child;
  queueSend(it->second, forwarded, out);
}

void NodeService::onRoundToken(NodeId from, const net::RoundToken& token,
                               std::int64_t queueNs,
                               std::vector<Outbound>& out,
                               std::deque<Completion>& done) {
  const auto it = active_.find(token.queryId);
  if (it == active_.end()) {
    if (maybeStashMergeTraffic(token.queryId, net::Message{token})) return;
    if (replayCompletedResult(token.queryId, from, out)) return;
    metrics_.droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_, ": token for unknown query ",
                      token.queryId);
    return;
  }
  QueryState& state = it->second;
  if (state.aborted) return;
  if (!state.participant) {
    // A grouped member's probe (see onGroupPhaseDone) reached a node that
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
  const protocol::core::Actions actions =
      state.participant->onToken(token.round, token.vector, token.ctx,
                                 queueNs);
  if (actions.duplicate) {
    // A retransmitted token we already processed: pass-once semantics.
    metrics_.duplicatesDropped.inc();
    return;
  }
  if (!state.firstTokenSeen) {
    state.firstTokenSeen = true;
    if (!state.initiator) {
      metrics_.announceToFirstTokenMs.observe(
          elapsedMsSince(state.registeredAt));
    }
  }
  state.lastActivity = std::chrono::steady_clock::now();

  if (actions.roundClosed) metrics_.roundsExecuted.inc();
  if (actions.sendToken) queueSend(state, *actions.sendToken, out);
  if (actions.sendResult) {
    const TopKVector result = actions.sendResult->result;
    queueSend(state, *actions.sendResult, out);
    done.push_back(Completion{token.queryId, result});
  }
}

void NodeService::onSumToken(NodeId from, const net::SumToken& token,
                             std::int64_t queueNs, std::vector<Outbound>& out,
                             std::deque<Completion>& done) {
  const auto it = active_.find(token.queryId);
  if (it == active_.end()) {
    if (replayCompletedResult(token.queryId, from, out)) return;
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
  state.lastActivity = std::chrono::steady_clock::now();

  if (state.initiator) {
    // Unmask and publish.
    TopKVector totals(token.sums.size());
    for (std::size_t i = 0; i < totals.size(); ++i) {
      totals[i] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(token.sums[i]) - state.masks[i]);
    }
    state.traceCtx =
        obs::emitChildSpan(&spanFan_, token.ctx, "sum_pass", token.queryId,
                           self_, token.round, t0, queueNs);
    queueSend(state,
              net::ResultAnnouncement{token.queryId, totals, state.traceCtx},
              out);
    done.push_back(Completion{token.queryId, std::move(totals)});
    return;
  }
  // Add our addends mod 2^64 and pass along.
  std::vector<std::int64_t> sums = token.sums;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    sums[i] = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(sums[i]) +
        static_cast<std::uint64_t>(state.addends[i]));
  }
  state.traceCtx =
      obs::emitChildSpan(&spanFan_, token.ctx, "sum_pass", token.queryId,
                         self_, token.round, t0, queueNs);
  queueSend(state,
            net::SumToken{token.queryId, token.round, std::move(sums),
                          state.traceCtx},
            out);
}

void NodeService::onResult(const net::ResultAnnouncement& result,
                           std::int64_t queueNs, std::vector<Outbound>& out,
                           std::deque<Completion>& done) {
  const auto it = active_.find(result.queryId);
  if (it == active_.end()) {
    // Already completed here (initiator's own announce returning, or a
    // duplicate): stop the circulation - unless it is merge traffic that
    // raced ahead of our own phase-1 run.
    (void)maybeStashMergeTraffic(result.queryId, net::Message{result});
    return;
  }
  QueryState& state = it->second;
  if (state.aborted) return;
  if (state.participant) {
    // The core emits the "result_dissemination" span and stamps the
    // forwarded announcement.
    if (result.ctx.active()) state.traceCtx = result.ctx;
    const protocol::core::Actions actions =
        state.participant->onResult(result.result, result.ctx);
    if (actions.duplicate || !actions.sendResult) return;
    // Forward once before completing.
    queueSend(state, *actions.sendResult, out);
    done.push_back(Completion{result.queryId, state.participant->result()});
    return;
  }
  if (state.isParent && !state.groupRaw) {
    // The final result overtook this member's own phase-1 result: the two
    // are different keys of the run queue.  Hold it until the phase-1
    // hand-off (onGroupPhaseDone replays it), so the group phase is
    // recorded before the parent retires.  A phase-1 entry that is gone
    // (collected) or aborted will never hand off: apply the result now.
    const auto sub = active_.find(state.groupSubId);
    if (sub != active_.end() && !sub->second.aborted) {
      stash(result.queryId, net::Message{result});
      return;
    }
  }
  // Aggregate follower, or a grouped parent receiving the disseminated
  // final result on its group ring: forward once before completing.
  const std::int64_t t0 = result.ctx.active() ? obs::EventTracer::nowNs() : 0;
  state.traceCtx =
      obs::emitChildSpan(&spanFan_, result.ctx, "result_dissemination",
                         result.queryId, self_, 0, t0, queueNs);
  net::ResultAnnouncement forwarded = result;
  forwarded.ctx = state.traceCtx;
  queueSend(state, forwarded, out);
  done.push_back(Completion{result.queryId, result.result});
}

bool NodeService::replayCompletedResult(std::uint64_t queryId, NodeId from,
                                        std::vector<Outbound>& out) {
  const auto it = completedReplay_.find(queryId);
  if (it == completedReplay_.end()) return false;
  const CompletedReplay& replay = it->second;
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
  out.push_back(Outbound{
      queryId,
      net::encodeMessage(net::ResultAnnouncement{queryId, replay.raw, {}}),
      from, true});
  return true;
}

void NodeService::onRingRepair(const net::RingRepair& repair,
                               std::vector<Outbound>& out) {
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
  state.lastActivity = std::chrono::steady_clock::now();
  if (outcome.belowFloor) {
    abortQuery(state, "ring shrank below the privacy floor after repair");
    return;
  }
  // Forward so every survivor learns the new ring.
  net::RingRepair forwarded = repair;
  forwarded.ctx = obs::emitChildSpan(
      &spanFan_, repair.ctx.active() ? repair.ctx : state.traceCtx, "repair",
      repair.queryId, self_, 0, t0, 0);
  out.push_back(Outbound{repair.queryId,
                         net::encodeMessage(net::Message{forwarded}),
                         successorFor(state), true});
}

// ---------------------------------------------------------------------------
// Grouped phase hand-off.

bool NodeService::maybeStashMergeTraffic(std::uint64_t queryId,
                                         const net::Message& message) {
  const auto parentRef = mergeParents_.find(queryId);
  if (parentRef == mergeParents_.end()) return false;
  const auto parentIt = active_.find(parentRef->second);
  if (parentIt == active_.end() || !parentIt->second.isParent) return false;
  stash(parentRef->second, message);
  return true;
}

void NodeService::stash(std::uint64_t parentId, net::Message message) {
  auto& pending = stashed_[parentId];
  if (pending.size() >= kStashCap) {
    metrics_.droppedMessages.inc();
    return;
  }
  pending.push_back(std::move(message));
}

void NodeService::replayStashed(std::uint64_t parentId,
                                std::vector<Outbound>& out,
                                std::deque<Completion>& done) {
  const auto it = stashed_.find(parentId);
  if (it == stashed_.end()) return;
  // Extract before replaying: a message that still cannot be processed
  // re-stashes itself instead of looping.
  std::vector<net::Message> pending = std::move(it->second);
  stashed_.erase(it);
  for (const net::Message& message : pending) {
    try {
      // The stash does not record senders; no ring contains the sentinel,
      // so a replayed message can never trigger a completed-result reply
      // (its query is live - the stash dies with the parent otherwise).
      // Only merge traffic and final results are stashed; neither needs a
      // table scan.
      (void)handleMessage(kNoSender, message, 0, out, done);
    } catch (const Error& e) {
      metrics_.droppedMessages.inc();
      PRIVTOPK_LOG_WARN("service ", self_, ": dropped stashed message: ",
                        e.what());
    }
  }
}

void NodeService::onGroupPhaseDone(
    std::uint64_t parentId, TopKVector raw,
    std::chrono::steady_clock::time_point startedAt,
    std::vector<Outbound>& out, std::deque<Completion>& done) {
  const auto it = active_.find(parentId);
  if (it == active_.end()) return;
  QueryState& parent = it->second;
  if (parent.aborted || parent.groupRaw) return;
  metrics_.groupPhaseMs.observe(elapsedMsSince(startedAt));
  parent.groupRaw = std::move(raw);
  parent.lastActivity = std::chrono::steady_clock::now();
  if (!parent.isDelegate) {
    // A member now only waits for the final result, with nothing of its
    // own to retransmit.  Arm a probe instead: a group-ring successor that
    // already retired the query answers it with the stored result
    // (replayCompletedResult), so a lost dissemination hop is recovered at
    // the retransmission deadline rather than by the stale GC.
    parent.lastMessage =
        net::encodeMessage(net::RoundToken{parentId, 0, {}, {}});
  }
  // Phase span covering this node's whole group ring run; subsequent
  // merge-phase spans chain off it.
  parent.traceCtx =
      obs::emitChildSpan(&spanFan_, parent.traceCtx, "group_phase", parentId,
                         self_, 1, toTraceNs(startedAt), 0);
  if (parent.isCoordinator) startMergePhase(parent, out);
  replayStashed(parentId, out, done);
}

void NodeService::startMergePhase(QueryState& parent,
                                  std::vector<Outbound>& out) {
  const std::uint64_t parentId = parent.descriptor.queryId;
  QueryDescriptor merged = parent.descriptor;
  merged.queryId = parent.mergeId;
  merged.groupSize = 0;

  QueryState state;
  state.descriptor = merged;
  state.initiator = true;
  state.promiseSettled = true;  // the result flows to the parent entry
  state.parentId = parentId;
  state.phase = 2;
  state.registeredAt = std::chrono::steady_clock::now();
  state.lastActivity = state.registeredAt;
  state.traceCtx = parent.traceCtx;
  Rng phaseRng(protocol::groupPhaseSeed(seed_, parentId, 2));
  buildParticipant(state, merged, parent.layout.mergeRing, *parent.groupRaw,
                   phaseRng);
  const auto [it, inserted] = active_.emplace(merged.queryId, std::move(state));
  (void)inserted;
  metrics_.activeQueries.add(1);
  QueryState& registered = it->second;
  queueSend(registered,
            announceFor(
                merged, parent.layout.mergeRing, parentId, 2,
                static_cast<std::uint32_t>(parent.descriptor.groupSize),
                parent.traceCtx),
            out);
  beginRounds(registered, out);
}

void NodeService::onMergePhaseDone(
    std::uint64_t parentId, TopKVector raw,
    std::chrono::steady_clock::time_point startedAt,
    std::vector<Outbound>& out, std::deque<Completion>& done) {
  const auto it = active_.find(parentId);
  if (it == active_.end()) return;
  QueryState& parent = it->second;
  if (parent.aborted) return;
  metrics_.mergePhaseMs.observe(elapsedMsSince(startedAt));
  parent.traceCtx =
      obs::emitChildSpan(&spanFan_, parent.traceCtx, "merge_phase", parentId,
                         self_, 2, toTraceNs(startedAt), 0);
  // Disseminate the final result around this delegate's group ring; every
  // member completes the parent on receipt (onResult's forward-once
  // branch), and this node completes it right here.
  queueSend(parent, net::ResultAnnouncement{parentId, raw, parent.traceCtx},
            out);
  done.push_back(Completion{parentId, std::move(raw)});
}

// ---------------------------------------------------------------------------
// Completion.

void NodeService::applyCompletion(Completion completion,
                                  std::vector<Outbound>& out,
                                  std::deque<Completion>& done) {
  const auto it = active_.find(completion.queryId);
  if (it == active_.end()) return;
  QueryState& state = it->second;

  const std::uint64_t parentId = state.parentId;
  const std::uint8_t phase = state.phase;
  const auto startedAt = state.registeredAt;
  bool releaseSlot = false;

  metrics_.queryLatencyMs.observe(elapsedMsSince(state.registeredAt));
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
  if (state.rootSpanId != 0 && state.traceCtx.active()) {
    // The root "query" span, under the id reserved at initiation so every
    // hop's spans already chain off it.
    obs::SpanRecord span;
    span.traceId = state.traceCtx.traceId;
    span.spanId = state.rootSpanId;
    span.name = "query";
    span.queryId = completion.queryId;
    span.node = self_;
    span.startNs = state.traceStartNs;
    span.durNs = obs::EventTracer::nowNs() - state.traceStartNs;
    spanFan_.recordSpan(span);
  }

  TopKVector presented = presentResult(state.descriptor, completion.raw);
  if (state.initiator && !state.promiseSettled) {
    state.promiseSettled = true;
    state.promise.set_value(presented);
  }
  const bool inserted =
      completed_.insert_or_assign(completion.queryId, std::move(presented))
          .second;
  if (inserted) completedOrder_.push_back(completion.queryId);
  completedReplay_.insert_or_assign(
      completion.queryId, CompletedReplay{completion.raw, ringOf(state)});
  if (state.trace != nullptr) {
    completedTraces_.insert_or_assign(completion.queryId,
                                      std::move(*state.trace));
  }
  while (completed_.size() > options_.completedCap) {
    completedTraces_.erase(completedOrder_.front());
    completedReplay_.erase(completedOrder_.front());
    completed_.erase(completedOrder_.front());
    completedOrder_.pop_front();
  }
  if (state.admitted) {
    state.admitted = false;
    releaseSlot = true;
  }
  if (state.isParent) {
    mergeParents_.erase(state.mergeId);
    stashed_.erase(completion.queryId);
  }
  active_.erase(it);
  completedCv_.notify_all();

  if (releaseSlot) releaseInflightSlot();
  if (phase == 1) {
    onGroupPhaseDone(parentId, std::move(completion.raw), startedAt, out,
                     done);
  } else if (phase == 2) {
    onMergePhaseDone(parentId, std::move(completion.raw), startedAt, out,
                     done);
  }
}

// ---------------------------------------------------------------------------
// Queries about queries.

std::optional<TopKVector> NodeService::resultOf(std::uint64_t queryId) const {
  std::scoped_lock lock(mutex_);
  const auto it = completed_.find(queryId);
  if (it == completed_.end()) return std::nullopt;
  return it->second;
}

std::optional<TopKVector> NodeService::waitFor(
    std::uint64_t queryId, std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mutex_);
  const bool done = completedCv_.wait_for(lock, timeout, [&] {
    return completed_.contains(queryId);
  });
  if (!done) return std::nullopt;
  return completed_.at(queryId);
}

std::optional<protocol::ExecutionTrace> NodeService::traceOf(
    std::uint64_t queryId) const {
  std::scoped_lock lock(mutex_);
  const auto it = completedTraces_.find(queryId);
  if (it == completedTraces_.end()) return std::nullopt;
  return it->second;
}

std::size_t NodeService::activeQueries() const {
  std::scoped_lock lock(mutex_);
  return active_.size();
}

std::size_t NodeService::completedQueries() const {
  std::scoped_lock lock(mutex_);
  return completed_.size();
}

obs::MetricsSnapshot NodeService::metricsSnapshot() const {
  return obs::MetricsRegistry::global().snapshot();
}

// ---------------------------------------------------------------------------
// Distributed tracing + scrape endpoint.

void NodeService::SpanFan::recordSpan(const obs::SpanRecord& span) {
  if (buffer != nullptr) buffer->recordSpan(span);
  obs::EventTracer::global().recordSpan(span);
}

std::uint16_t NodeService::httpPort() const {
  return http_ ? http_->port() : 0;
}

std::vector<obs::SpanRecord> NodeService::spans() const {
  if (!spanBuffer_) return {};
  return spanBuffer_->snapshot();
}

std::vector<obs::SpanRecord> NodeService::spansForQuery(
    std::uint64_t queryId) const {
  if (!spanBuffer_) return {};
  return spanBuffer_->forQuery(queryId);
}

std::string NodeService::queriesJson() const {
  std::ostringstream os;
  std::scoped_lock lock(mutex_);
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
       << ",\"age_ms\":" << elapsedMsSince(state.registeredAt)
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
      os << ",\"result_size\":" << it->second.size();
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

net::HttpResponse NodeService::handleHttp(const net::HttpRequest& request) {
  net::HttpResponse response;
  if (request.target == "/healthz") {
    response.body = "ok\n";
    return response;
  }
  if (request.target == "/metrics") {
    obs::updateProcessMetrics();
    response.contentType = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::renderPrometheus(metricsSnapshot());
    return response;
  }
  if (request.target == "/queries") {
    response.contentType = "application/json";
    response.body = queriesJson();
    return response;
  }
  constexpr std::string_view kTrace = "/trace";
  if (request.target.rfind(kTrace, 0) == 0) {
    std::vector<obs::SpanRecord> selected;
    if (request.target.size() == kTrace.size()) {
      selected = spans();
    } else if (request.target[kTrace.size()] == '/') {
      const std::string idText = request.target.substr(kTrace.size() + 1);
      char* end = nullptr;
      const std::uint64_t queryId = std::strtoull(idText.c_str(), &end, 10);
      if (idText.empty() || end == nullptr || *end != '\0') {
        response.status = 400;
        response.body = "bad query id\n";
        return response;
      }
      selected = spansForQuery(queryId);
    } else {
      response.status = 404;
      response.body = "not found\n";
      return response;
    }
    std::string body;
    for (const obs::SpanRecord& span : selected) {
      body += obs::renderSpanJson(span);
      body += '\n';
    }
    response.contentType = "application/x-ndjson";
    response.body = std::move(body);
    return response;
  }
  response.status = 404;
  response.body = "not found\n";
  return response;
}

}  // namespace privtopk::query
