#include "query/gateway.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace privtopk::query {

namespace {

constexpr char kComponent[] = "gateway";

using SteadyClock = std::chrono::steady_clock;

double elapsedMsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

}  // namespace

const char* toString(Priority priority) {
  switch (priority) {
    case Priority::Batch: return "batch";
    case Priority::Normal: return "normal";
    case Priority::Interactive: return "interactive";
  }
  return "?";
}

Gateway::Metrics::Metrics()
    : hits(obs::counter("privtopk.gateway.hits", {{"component", kComponent}})),
      misses(obs::counter("privtopk.gateway.misses",
                          {{"component", kComponent}})),
      coalesced(obs::counter("privtopk.gateway.coalesced",
                             {{"component", kComponent}})),
      executions(obs::counter("privtopk.gateway.executions",
                              {{"component", kComponent}})),
      shedRateLimit(obs::counter(
          "privtopk.gateway.shed",
          {{"component", kComponent}, {"reason", "rate_limit"}})),
      shedQueueFull(obs::counter(
          "privtopk.gateway.shed",
          {{"component", kComponent}, {"reason", "queue_full"}})),
      invalidations(obs::counter("privtopk.gateway.invalidations",
                                 {{"component", kComponent}})),
      inflight(obs::gauge("privtopk.gateway.inflight_executions",
                          {{"component", kComponent}})),
      queued(obs::gauge("privtopk.gateway.queued_executions",
                        {{"component", kComponent}})),
      hitLatencyMs(obs::histogram("privtopk.gateway.hit_latency_ms",
                                  {{"component", kComponent}},
                                  obs::defaultFastLatencyBucketsMs())),
      executeLatencyMs(obs::histogram("privtopk.gateway.execute_latency_ms",
                                      {{"component", kComponent}},
                                      obs::defaultLatencyBucketsMs())),
      queueWaitMs(obs::histogram("privtopk.gateway.queue_wait_ms",
                                 {{"component", kComponent}},
                                 obs::defaultLatencyBucketsMs())) {}

Gateway::Gateway(const Federation& federation, std::uint64_t seed,
                 GatewayOptions options)
    : Gateway(
          [federation = &federation](const QueryDescriptor& descriptor,
                                     Rng& rng) {
            return federation->execute(descriptor, rng);
          },
          seed, options) {}

Gateway::Gateway(Executor executor, std::uint64_t seed, GatewayOptions options)
    : executor_(std::move(executor)),
      seed_(seed),
      options_(options),
      cache_(ResultCache::Options{options.cacheCapacity, options.cacheTtl}) {
  if (!executor_) throw ConfigError("Gateway: null executor");
  if (options_.maxConcurrentExecutions == 0) {
    throw ConfigError("Gateway: maxConcurrentExecutions must be >= 1");
  }
}

QueryOutcome Gateway::execute(const QueryDescriptor& descriptor) {
  GatewayRequest request;
  request.descriptor = descriptor;
  return execute(request);
}

QueryOutcome Gateway::execute(const GatewayRequest& request) {
  const auto arrivedAt = SteadyClock::now();
  const std::string key = ResultCache::keyFor(
      request.descriptor, dataEpoch_.load(std::memory_order_relaxed));

  std::shared_ptr<Flight> flight;
  bool leader = false;
  std::uint64_t seq = 0;
  {
    std::unique_lock lock(mutex_);
    if (auto cached = cache_.lookup(key)) {
      ++tallies_.hits;
      metrics_.hits.inc();
      metrics_.hitLatencyMs.observe(elapsedMsSince(arrivedAt));
      return std::move(*cached);
    }
    const auto it = flights_.find(key);
    if (it != flights_.end()) {
      // Single-flight: attach to the identical in-flight execution.
      flight = it->second;
      ++tallies_.coalesced;
      metrics_.coalesced.inc();
      ++flightWaiters_;
    } else {
      // Flight leader: pass admission BEFORE the flight exists, so a shed
      // request leaves nothing behind for later arrivals to wait on.
      std::chrono::milliseconds retryAfter{0};
      if (!tryTakeToken(request.tenant, arrivedAt, retryAfter)) {
        ++tallies_.shedRateLimit;
        metrics_.shedRateLimit.inc();
        throw OverloadError("Gateway: tenant '" + request.tenant +
                                "' exceeded its execution rate limit",
                            retryAfter);
      }
      const bool slotFree =
          inflightExecutions_ < options_.maxConcurrentExecutions;
      if (!slotFree && queuedExecutions_ >= options_.maxQueuedExecutions) {
        ++tallies_.shedQueueFull;
        metrics_.shedQueueFull.inc();
        // Expect one queue slot to drain per completed execution; hint
        // from the observed mean execution latency (50 ms before any).
        const std::uint64_t n = metrics_.executeLatencyMs.count();
        const double meanMs =
            n > 0 ? metrics_.executeLatencyMs.sum() / static_cast<double>(n)
                  : 50.0;
        const double hintMs = std::clamp(
            meanMs * static_cast<double>(queuedExecutions_ + 1) /
                static_cast<double>(options_.maxConcurrentExecutions),
            1.0, 60'000.0);
        throw OverloadError(
            "Gateway: admission queue is full",
            std::chrono::milliseconds(static_cast<std::int64_t>(hintMs)));
      }
      flight = std::make_shared<Flight>();
      flights_[key] = flight;
      leader = true;
      ++tallies_.misses;
      metrics_.misses.inc();
      seq = executionSeq_++;
      if (slotFree) {
        ++inflightExecutions_;
      } else {
        auto ticket = std::make_shared<Ticket>();
        ticket->lane = request.priority;
        lanes_[static_cast<std::size_t>(request.priority)].push_back(ticket);
        ++queuedExecutions_;
        metrics_.queued.set(static_cast<std::int64_t>(queuedExecutions_));
        cv_.wait(lock, [&] { return ticket->granted; });
        --queuedExecutions_;
        metrics_.queued.set(static_cast<std::int64_t>(queuedExecutions_));
        metrics_.queueWaitMs.observe(elapsedMsSince(arrivedAt));
      }
      metrics_.inflight.set(static_cast<std::int64_t>(inflightExecutions_));
    }
  }

  if (leader) return runFlight(key, request.descriptor, flight, seq);

  // Coalesced waiter: the leader settles the flight and wakes us.
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return flight->done; });
  --flightWaiters_;
  if (flight->error) std::rethrow_exception(flight->error);
  return flight->outcome;
}

QueryOutcome Gateway::runFlight(const std::string& key,
                                const QueryDescriptor& descriptor,
                                const std::shared_ptr<Flight>& flight,
                                std::uint64_t seq) {
  // A private, deterministic stream per execution: callers never share rng
  // state, so concurrent executions cannot race on it.
  Rng rng(splitmix64(seed_) ^ splitmix64(seq));

  QueryOutcome outcome;
  std::exception_ptr error;
  const auto startedAt = SteadyClock::now();
  try {
    outcome = executor_(descriptor, rng);
  } catch (...) {
    error = std::current_exception();
  }
  const double elapsedMs = elapsedMsSince(startedAt);

  {
    std::scoped_lock lock(mutex_);
    ++tallies_.executions;
    metrics_.executions.inc();
    metrics_.executeLatencyMs.observe(elapsedMs);
    if (error) {
      flight->error = error;
    } else {
      cache_.insert(key, outcome);
      flight->outcome = outcome;
    }
    flight->done = true;
    flights_.erase(key);
    releaseSlotLocked();
  }
  cv_.notify_all();

  if (error) std::rethrow_exception(error);
  return outcome;
}

bool Gateway::tryTakeToken(const std::string& tenant,
                           std::chrono::steady_clock::time_point now,
                           std::chrono::milliseconds& retryAfter) {
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    Bucket bucket;
    bucket.limits = options_.defaultLimits;
    bucket.tokens = bucket.limits.burst;
    bucket.refilledAt = now;
    it = buckets_.emplace(tenant, bucket).first;
  }
  Bucket& bucket = it->second;
  if (bucket.limits.ratePerSec <= 0.0) return true;  // unlimited
  const double elapsedSec =
      std::chrono::duration<double>(now - bucket.refilledAt).count();
  bucket.tokens = std::min(bucket.limits.burst,
                           bucket.tokens +
                               elapsedSec * bucket.limits.ratePerSec);
  bucket.refilledAt = now;
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return true;
  }
  const double waitSec = (1.0 - bucket.tokens) / bucket.limits.ratePerSec;
  retryAfter = std::chrono::milliseconds(
      static_cast<std::int64_t>(std::ceil(waitSec * 1000.0)));
  return false;
}

void Gateway::grantSlotsLocked() {
  bool granted = false;
  while (inflightExecutions_ < options_.maxConcurrentExecutions) {
    std::shared_ptr<Ticket> next;
    for (int lane = 2; lane >= 0 && !next; --lane) {
      auto& queue = lanes_[static_cast<std::size_t>(lane)];
      if (!queue.empty()) {
        next = queue.front();
        queue.pop_front();
      }
    }
    if (!next) break;
    next->granted = true;
    ++inflightExecutions_;
    granted = true;
  }
  if (granted) cv_.notify_all();
}

void Gateway::releaseSlotLocked() {
  --inflightExecutions_;
  metrics_.inflight.set(static_cast<std::int64_t>(inflightExecutions_));
  grantSlotsLocked();
}

void Gateway::setTenantLimits(const std::string& tenant, TenantLimits limits) {
  std::scoped_lock lock(mutex_);
  Bucket bucket;
  bucket.limits = limits;
  bucket.tokens = limits.burst;
  bucket.refilledAt = SteadyClock::now();
  buckets_[tenant] = bucket;
}

void Gateway::bumpDataEpoch() {
  dataEpoch_.fetch_add(1, std::memory_order_relaxed);
  std::scoped_lock lock(mutex_);
  ++tallies_.invalidations;
  metrics_.invalidations.inc();
}

std::uint64_t Gateway::dataEpoch() const {
  return dataEpoch_.load(std::memory_order_relaxed);
}

void Gateway::invalidate(const QueryDescriptor& descriptor) {
  const std::string key = ResultCache::keyFor(
      descriptor, dataEpoch_.load(std::memory_order_relaxed));
  cache_.erase(key);
  std::scoped_lock lock(mutex_);
  ++tallies_.invalidations;
  metrics_.invalidations.inc();
}

void Gateway::invalidateAll() {
  cache_.clear();
  std::scoped_lock lock(mutex_);
  ++tallies_.invalidations;
  metrics_.invalidations.inc();
}

GatewayStats Gateway::stats() const {
  std::scoped_lock lock(mutex_);
  GatewayStats stats = tallies_;
  const ResultCache::Counters cache = cache_.counters();
  stats.evictions = cache.evictions;
  stats.expirations = cache.expirations;
  stats.cacheSize = cache_.size();
  stats.inflightExecutions = inflightExecutions_;
  stats.queuedExecutions = queuedExecutions_;
  stats.flightWaiters = flightWaiters_;
  return stats;
}

}  // namespace privtopk::query
