#include "query/service.hpp"

#include <algorithm>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/export.hpp"
#include "obs/process_metrics.hpp"
#include "obs/trace.hpp"

namespace privtopk::query {

NodeService::NodeService(NodeId self, const data::PrivateDatabase& db,
                         net::Transport& transport, std::uint64_t seed,
                         ServiceOptions options)
    : self_(self), transport_(&transport),
      spanBuffer_(options.spanRingCapacity > 0
                      ? std::make_unique<obs::SpanRingBuffer>(
                            options.spanRingCapacity)
                      : nullptr),
      core_(self, db, seed, options, &spanFan_) {
  if (options.maxInflightInitiations == 0) {
    throw ConfigError("NodeService: maxInflightInitiations must be >= 1");
  }
  if (options.maxQueuedInitiations == 0) {
    throw ConfigError("NodeService: maxQueuedInitiations must be >= 1");
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
  const ServiceOptions& options = core_.options();
  workers_.resize(std::max<std::size_t>(1, options.workerThreads));
  for (auto& worker : workers_) {
    worker = std::thread([this] { dispatchLoop(); });
  }
  if (options.httpPort) {
    http_ = std::make_unique<net::HttpServer>(
        *options.httpPort,
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
      core_.metrics().queueDepth.sub(1);
      rejected.push_back(std::move(admission.promise));
    }
    admissionQueue_.clear();
    for (auto& [key, items] : inbox_) {
      for (auto& item : items) {
        if (auto* admission = std::get_if<Admission>(&item)) {
          inflightInitiations_.fetch_sub(1);
          core_.metrics().inflightQueries.sub(1);
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
  for (auto& [queryId, promise] : promises_) {
    inflightInitiations_.fetch_sub(1);
    core_.metrics().inflightQueries.sub(1);
    promise.set_exception(std::make_exception_ptr(
        TransportError("NodeService stopped with the query in flight")));
  }
  promises_.clear();
}

// ---------------------------------------------------------------------------
// Scheduler: the transport's delivery handler feeds a keyed run queue;
// dispatch workers drain it one item per key at a time, so each query's
// messages apply in arrival order while distinct queries progress in
// parallel.  The workers also run maintenance on a timer.

void NodeService::onEnvelope(net::Envelope&& envelope) {
  try {
    net::Message message = net::decodeMessage(envelope.payload);
    const std::uint64_t key =
        std::visit([](const auto& m) { return m.queryId; }, message);
    enqueueWork(key, WorkItem{Inbound{envelope.from, std::move(message),
                                      obs::EventTracer::nowNs()}});
  } catch (const Error& e) {
    // Hostile or stale traffic must not take the service down.
    core_.metrics().droppedMessages.inc();
    PRIVTOPK_LOG_WARN("service ", self_, ": dropped message from ",
                      envelope.from, ": ", e.what());
  }
}

void NodeService::dispatchLoop() {
  while (running_.load()) {
    maintainIfDue();
    auto work = popWork();
    if (!work) continue;
    runWorkItem(work->second);
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
  obs::updateProcessMetrics();
  ServiceCore::Effects fx;
  {
    std::scoped_lock lock(mutex_);
    fx = core_.tick(now);
  }
  perform(std::move(fx));
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
         inflightInitiations_.load() < core_.options().maxInflightInitiations) {
    Admission admission = std::move(admissionQueue_.front());
    admissionQueue_.pop_front();
    core_.metrics().queueDepth.sub(1);
    inflightInitiations_.fetch_add(1);
    core_.metrics().inflightQueries.add(1);
    const std::uint64_t key = admission.descriptor.queryId;
    inbox_[key].push_back(WorkItem{std::move(admission)});
    if (!busyKeys_.contains(key)) readyKeys_.insert(key);
  }
}

void NodeService::releaseInflightSlot() {
  inflightInitiations_.fetch_sub(1);
  core_.metrics().inflightQueries.sub(1);
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

void NodeService::runWorkItem(WorkItem& item) {
  if (auto* admission = std::get_if<Admission>(&item)) {
    performInitiation(*admission);
    return;
  }
  const auto& inbound = std::get<Inbound>(item);
  ServiceCore::Effects fx;
  {
    std::scoped_lock lock(mutex_);
    fx = core_.onMessage(inbound.from, inbound.message, inbound.receivedAtNs,
                         std::chrono::steady_clock::now());
  }
  perform(std::move(fx));
}

void NodeService::performInitiation(Admission& admission) {
  const std::uint64_t queryId = admission.descriptor.queryId;
  ServiceCore::Effects fx;
  bool started = false;
  try {
    // Scan before taking mutex_: a bad local input fails initiate() with
    // no traffic sent.
    ServiceCore::LocalScan scan = core_.scanTable(admission.descriptor);
    std::scoped_lock lock(mutex_);
    fx = core_.initiate(admission.descriptor, std::move(admission.ringOrder),
                        std::move(scan), std::chrono::steady_clock::now());
    promises_.emplace(queryId, std::move(admission.promise));
    started = true;
  } catch (...) {
    try {
      admission.promise.set_exception(std::current_exception());
    } catch (const std::future_error&) {
      // stop() settled it already.
    }
  }
  {
    std::scoped_lock lock(schedMutex_);
    pendingIds_.erase(queryId);
  }
  if (!started) {
    releaseInflightSlot();
    return;
  }
  perform(std::move(fx));
}

void NodeService::perform(ServiceCore::Effects fx) {
  // Every send below runs with no service lock held.  Keep it so: an
  // in-process send runs the addressee's delivery handler (decode and
  // enqueue) inline on this thread, and holding mutex_ across it would
  // stall every query on this node behind the peer's work - or deadlock,
  // should a handler ever need a lock that a sender holds.
  for (const ServiceCore::Outbound& item : fx.sends) {
    try {
      transport_->send(self_, item.target, *item.wire);
      if (item.ring) {
        std::scoped_lock lock(mutex_);
        core_.onSendSucceeded(item.queryId);
      }
    } catch (const OverloadError& e) {
      // The peer's write queue is full.  That is congestion, not death:
      // counting it toward deadAfterFailures would amputate a
      // healthy-but-slow peer from the ring.  Retransmission recovers.
      PRIVTOPK_LOG_WARN("service ", self_, ": send to ", item.target,
                        " rejected by backpressure: ", e.what());
    } catch (const TransportError& e) {
      PRIVTOPK_LOG_WARN("service ", self_, ": send to ", item.target,
                        " failed: ", e.what());
      if (!item.ring) continue;  // best-effort
      ServiceCore::Effects repaired;
      {
        std::scoped_lock lock(mutex_);
        repaired = core_.onSendFailed(item);
      }
      perform(std::move(repaired));
    }
  }
  // Retire after the sends: a finished query's final forward has left
  // before its initiator's future resolves.
  if (!fx.retired.empty()) {
    std::scoped_lock lock(mutex_);
    settle(fx.retired);
  }
  for (const ServiceCore::PendingScan& scan : fx.scans) {
    // The forwarded announce left above, so the successor scans its own
    // table while this node scans.  The query's key stays busy, so its
    // round-1 token waits in the run queue until the state exists.
    ServiceCore::LocalScan result = core_.scanTable(scan.descriptor);
    ServiceCore::Effects built;
    {
      std::scoped_lock lock(mutex_);
      built = core_.onScanned(scan, std::move(result),
                              std::chrono::steady_clock::now());
    }
    perform(std::move(built));
  }
}

void NodeService::settle(std::vector<ServiceCore::Retirement>& retired) {
  bool completed = false;
  for (ServiceCore::Retirement& retirement : retired) {
    completed = completed || retirement.result.has_value();
    const auto it = promises_.find(retirement.queryId);
    if (it == promises_.end()) continue;
    if (retirement.result) {
      it->second.set_value(std::move(*retirement.result));
    } else {
      it->second.set_exception(
          std::make_exception_ptr(TransportError(retirement.error)));
    }
    promises_.erase(it);
    releaseInflightSlot();
  }
  retired.clear();
  if (completed) completedCv_.notify_all();
}

std::future<TopKVector> NodeService::initiate(QueryDescriptor descriptor,
                                              std::vector<NodeId> ringOrder) {
  ServiceCore::validateInitiation(descriptor, ringOrder, self_);
  if (!running_.load()) {
    throw ConfigError("NodeService::initiate: service is not running");
  }
  {
    std::scoped_lock lock(mutex_);
    if (core_.knows(descriptor.queryId)) {
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
    const ServiceOptions& options = core_.options();
    if (admissionQueue_.size() >= options.maxQueuedInitiations) {
      core_.metrics().admissionsRejected.inc();
      // Typed shedding: a full admission queue means THIS node is healthy
      // but saturated - clients must back off, not fail over as they would
      // for a dead link (TransportError).  Expect one queue slot to drain
      // per completed initiation; hint from the observed mean query
      // latency (50 ms before any completion has been recorded).
      const obs::Histogram& latency = core_.metrics().queryLatencyMs;
      const std::uint64_t completions = latency.count();
      const double meanMs =
          completions > 0 ? latency.sum() / static_cast<double>(completions)
                          : 50.0;
      const double hintMs = std::clamp(
          meanMs * static_cast<double>(admissionQueue_.size() + 1) /
              static_cast<double>(options.maxInflightInitiations),
          1.0,
          std::chrono::duration<double, std::milli>(options.staleAfter)
              .count());
      throw OverloadError(
          "NodeService::initiate: admission queue is full",
          std::chrono::milliseconds(static_cast<std::int64_t>(hintMs)));
    }
    pendingIds_.insert(admission.descriptor.queryId);
    admissionQueue_.push_back(std::move(admission));
    core_.metrics().queueDepth.add(1);
  }
  schedCv_.notify_one();
  return future;
}

// ---------------------------------------------------------------------------
// Queries about queries.

std::optional<TopKVector> NodeService::resultOf(std::uint64_t queryId) const {
  std::scoped_lock lock(mutex_);
  return core_.resultOf(queryId);
}

std::optional<TopKVector> NodeService::waitFor(
    std::uint64_t queryId, std::chrono::milliseconds timeout) const {
  std::unique_lock lock(mutex_);
  std::optional<TopKVector> result;
  (void)completedCv_.wait_for(lock, timeout, [&] {
    result = core_.resultOf(queryId);
    return result.has_value();
  });
  return result;
}

std::optional<protocol::ExecutionTrace> NodeService::traceOf(
    std::uint64_t queryId) const {
  std::scoped_lock lock(mutex_);
  return core_.traceOf(queryId);
}

std::size_t NodeService::activeQueries() const {
  std::scoped_lock lock(mutex_);
  return core_.activeQueries();
}

std::size_t NodeService::completedQueries() const {
  std::scoped_lock lock(mutex_);
  return core_.completedQueries();
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
  std::scoped_lock lock(mutex_);
  return core_.queriesJson(std::chrono::steady_clock::now());
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
