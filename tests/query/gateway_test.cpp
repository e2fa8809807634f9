// Gateway contract tests: cache sharing via normalization, single-flight
// coalescing (N identical concurrent queries cost exactly one execution),
// TTL/epoch invalidation, LRU bounds, per-tenant rate limiting with typed
// OverloadError shedding, priority-lane draining, and a concurrent hammer
// whose invariants hold under TSan (test_query runs under TSan in CI).

#include "query/gateway.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "data/generator.hpp"
#include "net/fault.hpp"
#include "net/inproc.hpp"
#include "query/service.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

QueryDescriptor descriptor(std::uint64_t queryId = 1, std::size_t k = 3) {
  QueryDescriptor d;
  d.queryId = queryId;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = 12;
  return d;
}

/// Spins (politely) until `pred` holds; fails the test on timeout.
void waitUntil(const std::function<bool()>& pred,
               std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "condition never became true";
    std::this_thread::sleep_for(1ms);
  }
}

/// Controllable executor: records entry order (by descriptor k), can hold
/// every call until released, and can throw on demand.
struct StubExecutor {
  std::mutex m;
  std::condition_variable cv;
  bool hold = false;
  bool shouldThrow = false;
  std::size_t entered = 0;
  std::vector<std::size_t> order;

  QueryOutcome operator()(const QueryDescriptor& d, Rng&) {
    std::unique_lock lock(m);
    order.push_back(d.params.k);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return !hold; });
    if (shouldThrow) throw ProtocolError("stub executor failure");
    QueryOutcome outcome;
    outcome.values = {static_cast<Value>(d.params.k)};
    outcome.rounds = 1;
    return outcome;
  }

  void release() {
    std::scoped_lock lock(m);
    hold = false;
    cv.notify_all();
  }
};

Gateway::Executor wrap(const std::shared_ptr<StubExecutor>& stub) {
  return [stub](const QueryDescriptor& d, Rng& rng) { return (*stub)(d, rng); };
}

TEST(Gateway, RepeatedQuestionHitsCache) {
  auto stub = std::make_shared<StubExecutor>();
  Gateway gateway(wrap(stub), /*seed=*/1);

  const auto first = gateway.execute(descriptor());
  const auto second = gateway.execute(descriptor());
  EXPECT_EQ(first.values, second.values);
  EXPECT_EQ(stub->entered, 1u);

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.cacheSize, 1u);
}

TEST(Gateway, NormalizationMergesEquivalentQuestions) {
  auto stub = std::make_shared<StubExecutor>();
  Gateway gateway(wrap(stub), 2);

  // The query id is a transport nonce, not part of the question.
  (void)gateway.execute(descriptor(/*queryId=*/1));
  (void)gateway.execute(descriptor(/*queryId=*/999));

  // Max IS top-1; grouping is an execution strategy, not a question.
  QueryDescriptor top1 = descriptor(5, /*k=*/1);
  (void)gateway.execute(top1);
  QueryDescriptor max = descriptor(6, /*k=*/7);
  max.type = QueryType::Max;
  max.groupSize = 3;
  (void)gateway.execute(max);

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stub->entered, 2u);
}

TEST(Gateway, CoalescingCostsExactlyOneExecution) {
  constexpr std::size_t kCallers = 8;
  auto stub = std::make_shared<StubExecutor>();
  stub->hold = true;
  Gateway gateway(wrap(stub), 3);

  std::vector<std::thread> threads;
  std::mutex resultMutex;
  std::vector<TopKVector> results;
  threads.reserve(kCallers);
  for (std::size_t i = 0; i < kCallers; ++i) {
    threads.emplace_back([&] {
      const auto outcome = gateway.execute(descriptor());
      std::scoped_lock lock(resultMutex);
      results.push_back(outcome.values);
    });
  }

  // One leader is inside the executor; everyone else must be attached to
  // its flight (NOT queued for an execution slot of their own).
  {
    std::unique_lock lock(stub->m);
    stub->cv.wait(lock, [&] { return stub->entered == 1; });
  }
  waitUntil([&] { return gateway.stats().flightWaiters == kCallers - 1; });
  EXPECT_EQ(gateway.stats().queuedExecutions, 0u);

  stub->release();
  for (auto& t : threads) t.join();

  ASSERT_EQ(results.size(), kCallers);
  for (const auto& values : results) EXPECT_EQ(values, results.front());
  const auto stats = gateway.stats();
  EXPECT_EQ(stub->entered, 1u);
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, kCallers - 1);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(Gateway, ExecutorErrorFansOutAndIsNotCached) {
  auto stub = std::make_shared<StubExecutor>();
  stub->hold = true;
  stub->shouldThrow = true;
  Gateway gateway(wrap(stub), 4);

  std::thread leader([&] {
    EXPECT_THROW((void)gateway.execute(descriptor()), ProtocolError);
  });
  {
    std::unique_lock lock(stub->m);
    stub->cv.wait(lock, [&] { return stub->entered == 1; });
  }
  std::thread waiter([&] {
    EXPECT_THROW((void)gateway.execute(descriptor()), ProtocolError);
  });
  waitUntil([&] { return gateway.stats().flightWaiters == 1; });
  stub->release();
  leader.join();
  waiter.join();

  // The failure is not cached and the flight is gone: the next call runs.
  stub->shouldThrow = false;
  EXPECT_EQ(gateway.execute(descriptor()).values, TopKVector{3});
  const auto stats = gateway.stats();
  EXPECT_EQ(stats.executions, 2u);
  EXPECT_EQ(stats.cacheSize, 1u);
}

TEST(Gateway, EpochBumpInvalidatesEveryEntry) {
  auto stub = std::make_shared<StubExecutor>();
  Gateway gateway(wrap(stub), 5);

  (void)gateway.execute(descriptor());
  EXPECT_EQ(gateway.dataEpoch(), 0u);
  gateway.bumpDataEpoch();
  EXPECT_EQ(gateway.dataEpoch(), 1u);
  (void)gateway.execute(descriptor());  // logically stale: re-executes
  (void)gateway.execute(descriptor());  // fresh at the new epoch: hit

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.executions, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(Gateway, InvalidateDropsOneQuestion) {
  auto stub = std::make_shared<StubExecutor>();
  Gateway gateway(wrap(stub), 6);

  (void)gateway.execute(descriptor(1, 3));
  (void)gateway.execute(descriptor(1, 5));
  gateway.invalidate(descriptor(/*queryId=*/77, 3));  // same QUESTION as k=3

  (void)gateway.execute(descriptor(1, 3));  // re-executes
  (void)gateway.execute(descriptor(1, 5));  // still cached
  const auto stats = gateway.stats();
  EXPECT_EQ(stats.executions, 3u);
  EXPECT_EQ(stats.hits, 1u);

  gateway.invalidateAll();
  EXPECT_EQ(gateway.stats().cacheSize, 0u);
}

TEST(Gateway, LruEvictionRespectsCapacity) {
  auto stub = std::make_shared<StubExecutor>();
  GatewayOptions options;
  options.cacheCapacity = 1;
  Gateway gateway(wrap(stub), 7, options);

  (void)gateway.execute(descriptor(1, 3));
  (void)gateway.execute(descriptor(1, 5));  // evicts k=3
  (void)gateway.execute(descriptor(1, 3));  // miss again

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.executions, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_EQ(stats.cacheSize, 1u);
}

TEST(Gateway, RateLimitShedsWithRetryAfterHint) {
  auto stub = std::make_shared<StubExecutor>();
  Gateway gateway(wrap(stub), 8);
  // One execution, then a ~17 minute refill: the second miss must shed.
  gateway.setTenantLimits("acme", {/*ratePerSec=*/0.001, /*burst=*/1.0});

  GatewayRequest request;
  request.descriptor = descriptor(1, 3);
  request.tenant = "acme";
  (void)gateway.execute(request);

  GatewayRequest second = request;
  second.descriptor = descriptor(1, 5);
  try {
    (void)gateway.execute(second);
    FAIL() << "over-budget execution should have been shed";
  } catch (const OverloadError& e) {
    EXPECT_GT(e.retryAfter().count(), 0);
  }

  // Cache hits are free - they cost no execution and leak nothing.
  (void)gateway.execute(request);
  // Other tenants have their own bucket (default: unlimited).
  GatewayRequest other = second;
  other.tenant = "globex";
  (void)gateway.execute(other);

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.shedRateLimit, 1u);
  EXPECT_EQ(stats.executions, 2u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(Gateway, PriorityLanesDrainInteractiveFirst) {
  auto stub = std::make_shared<StubExecutor>();
  stub->hold = true;
  GatewayOptions options;
  options.maxConcurrentExecutions = 1;
  Gateway gateway(wrap(stub), 9, options);

  std::thread leader([&] { (void)gateway.execute(descriptor(1, 1)); });
  {
    std::unique_lock lock(stub->m);
    stub->cv.wait(lock, [&] { return stub->entered == 1; });
  }

  // Queue a batch request FIRST, then an interactive one; the interactive
  // lane must still get the freed slot first.
  GatewayRequest batch;
  batch.descriptor = descriptor(1, 2);
  batch.priority = Priority::Batch;
  std::thread batchThread([&] { (void)gateway.execute(batch); });
  waitUntil([&] { return gateway.stats().queuedExecutions == 1; });

  GatewayRequest interactive;
  interactive.descriptor = descriptor(1, 3);
  interactive.priority = Priority::Interactive;
  std::thread interactiveThread([&] { (void)gateway.execute(interactive); });
  waitUntil([&] { return gateway.stats().queuedExecutions == 2; });

  stub->release();
  leader.join();
  batchThread.join();
  interactiveThread.join();

  const std::vector<std::size_t> expected{1, 3, 2};
  EXPECT_EQ(stub->order, expected);
  EXPECT_EQ(gateway.stats().executions, 3u);
}

TEST(Gateway, FullAdmissionQueueSheds) {
  auto stub = std::make_shared<StubExecutor>();
  stub->hold = true;
  GatewayOptions options;
  options.maxConcurrentExecutions = 1;
  options.maxQueuedExecutions = 1;
  Gateway gateway(wrap(stub), 10, options);

  std::thread leader([&] { (void)gateway.execute(descriptor(1, 1)); });
  {
    std::unique_lock lock(stub->m);
    stub->cv.wait(lock, [&] { return stub->entered == 1; });
  }
  std::thread queued([&] { (void)gateway.execute(descriptor(1, 2)); });
  waitUntil([&] { return gateway.stats().queuedExecutions == 1; });

  try {
    (void)gateway.execute(descriptor(1, 3));
    FAIL() << "queue-full execution should have been shed";
  } catch (const OverloadError& e) {
    EXPECT_GT(e.retryAfter().count(), 0);
  }
  EXPECT_EQ(gateway.stats().shedQueueFull, 1u);

  stub->release();
  leader.join();
  queued.join();
  EXPECT_EQ(gateway.stats().executions, 2u);
}

TEST(Gateway, FederationBackedAnswersMatchTruth) {
  data::FleetSpec spec;
  spec.nodes = 4;
  spec.rowsPerNode = 10;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(11);
  const auto fleet = data::generateFleet(spec, rng);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  const Federation federation(fleet);
  Gateway gateway(federation, /*seed=*/12);

  const auto outcome = gateway.execute(descriptor());
  EXPECT_EQ(outcome.values, data::trueTopK(raw, 3));
  EXPECT_EQ(gateway.execute(descriptor()).values, outcome.values);
  EXPECT_EQ(gateway.stats().executions, 1u);
}

// The TSan target: many threads, a small hot descriptor pool, full
// accounting invariants afterwards.  Each distinct question must execute
// exactly once (cache + coalescing close every double-execution gap).
TEST(Gateway, ConcurrentHammerKeepsInvariants) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 200;
  constexpr std::size_t kQuestions = 6;

  data::FleetSpec spec;
  spec.nodes = 4;
  spec.rowsPerNode = 12;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(13);
  const auto fleet = data::generateFleet(spec, rng);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  const Federation federation(fleet);
  Gateway gateway(federation, 14);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng pick(100 + t);
      for (std::size_t i = 0; i < kIterations; ++i) {
        const auto k = static_cast<std::size_t>(
            pick.uniformInt(1, static_cast<Value>(kQuestions)));
        GatewayRequest request;
        request.descriptor = descriptor(t * kIterations + i, k);
        request.tenant = t % 2 == 0 ? "even" : "odd";
        const auto outcome = gateway.execute(request);
        ASSERT_EQ(outcome.values, data::trueTopK(raw, k));
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            kThreads * kIterations);
  EXPECT_EQ(stats.executions, kQuestions);
  EXPECT_EQ(stats.misses, kQuestions);
  EXPECT_EQ(stats.cacheSize, kQuestions);
  EXPECT_EQ(stats.inflightExecutions, 0u);
  EXPECT_EQ(stats.queuedExecutions, 0u);
  EXPECT_EQ(stats.flightWaiters, 0u);
}

// ---------------------------------------------------------------------------
// Gateway over a slow-link federation: executions take genuinely long
// (tens of delayed hops), so cache hits, single-flight coalescing and the
// retry-after machinery must stay correct while flights are long-lived.
// ---------------------------------------------------------------------------

/// 5-node in-process NodeService fleet behind a FaultInjectingTransport
/// that delays every ring link by 10 ms, so one ring query runs for
/// hundreds of ms.
struct DelayedFederation {
  static constexpr std::size_t kNodes = 5;

  std::vector<data::PrivateDatabase> dbs;
  net::InProcTransport inner{kNodes};
  net::FaultInjectingTransport delayed{
      inner, net::FaultSpec::parse("delay:0->1:10,delay:1->2:10,"
                                   "delay:2->3:10,delay:3->4:10,"
                                   "delay:4->0:10")};
  std::vector<std::unique_ptr<NodeService>> services;

  DelayedFederation() {
    data::FleetSpec spec;
    spec.nodes = kNodes;
    spec.rowsPerNode = 10;
    spec.tableName = "sales";
    spec.attribute = "revenue";
    Rng rng(77);
    dbs = data::generateFleet(spec, rng);
    ServiceOptions options;
    options.workerThreads = 2;
    for (std::size_t i = 0; i < kNodes; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], delayed, 600 + i, options));
      services.back()->start();
    }
  }

  ~DelayedFederation() {
    for (auto& s : services) s->stop();
    delayed.shutdown();
  }

  [[nodiscard]] Gateway::Executor executor() {
    return [this](const QueryDescriptor& d, Rng&) {
      const NodeId initiator = static_cast<NodeId>(d.queryId % kNodes);
      std::vector<NodeId> ring(kNodes);
      std::iota(ring.begin(), ring.end(), NodeId{0});
      std::rotate(ring.begin(), ring.begin() + initiator, ring.end());
      auto future = services[initiator]->initiate(d, ring);
      if (future.wait_for(30s) != std::future_status::ready) {
        throw TransportError("delayed execution timed out");
      }
      QueryOutcome outcome;
      outcome.values = future.get();
      return outcome;
    };
  }

  [[nodiscard]] TopKVector truth(std::size_t k) const {
    return data::trueTopK(data::fleetValues(dbs, "sales", "revenue"), k);
  }

  static QueryDescriptor wanDescriptor(std::uint64_t queryId, std::size_t k) {
    QueryDescriptor d;
    d.queryId = queryId;
    d.kind = protocol::ProtocolKind::Naive;
    d.tableName = "sales";
    d.attribute = "revenue";
    d.type = QueryType::TopK;
    d.params.k = k;
    d.params.rounds = 2;
    return d;
  }
};

TEST(GatewayOverWan, LongFlightsCoalesceAndThenHitTheCache) {
  DelayedFederation fed;
  Gateway gateway(fed.executor(), /*seed=*/21);
  const auto d = DelayedFederation::wanDescriptor(1, 3);

  const auto start = std::chrono::steady_clock::now();
  std::thread leader([&] {
    EXPECT_EQ(gateway.execute(d).values, fed.truth(3));
  });
  waitUntil([&] { return gateway.stats().inflightExecutions == 1; });

  // The flight is airborne for many delayed hops: identical questions must
  // attach to it, not start their own WAN round-trip.
  std::vector<std::thread> followers;
  for (int i = 0; i < 3; ++i) {
    followers.emplace_back([&] {
      EXPECT_EQ(gateway.execute(d).values, fed.truth(3));
    });
  }
  waitUntil([&] { return gateway.stats().flightWaiters == 3; });
  leader.join();
  for (auto& t : followers) t.join();
  const auto coldElapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(coldElapsed, 50ms) << "link delays did not make the execution "
                                  "WAN-scale; the test is not testing "
                                  "anything";

  // Cache hits must answer at memory speed despite the WAN backend.
  const auto cachedStart = std::chrono::steady_clock::now();
  EXPECT_EQ(gateway.execute(d).values, fed.truth(3));
  EXPECT_LT(std::chrono::steady_clock::now() - cachedStart, coldElapsed / 2);

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.coalesced, 3u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(GatewayOverWan, RetryAfterHintsStayHonestUnderLongExecutions) {
  DelayedFederation fed;
  GatewayOptions options;
  options.maxConcurrentExecutions = 1;
  options.maxQueuedExecutions = 1;
  Gateway gateway(fed.executor(), 22, options);

  // Distinct questions: k=1 occupies the single slot for a WAN round
  // trip, k=2 takes the only queue slot, k=3 must shed with a hint.
  std::thread leader([&] {
    EXPECT_EQ(gateway.execute(DelayedFederation::wanDescriptor(1, 1)).values,
              fed.truth(1));
  });
  waitUntil([&] { return gateway.stats().inflightExecutions == 1; });
  std::thread queued([&] {
    EXPECT_EQ(gateway.execute(DelayedFederation::wanDescriptor(2, 2)).values,
              fed.truth(2));
  });
  waitUntil([&] { return gateway.stats().queuedExecutions == 1; });

  try {
    (void)gateway.execute(DelayedFederation::wanDescriptor(3, 3));
    FAIL() << "third concurrent WAN execution should have been shed";
  } catch (const OverloadError& e) {
    EXPECT_GT(e.retryAfter().count(), 0);
  }
  EXPECT_EQ(gateway.stats().shedQueueFull, 1u);

  leader.join();
  queued.join();

  // Backing off as hinted succeeds once the WAN flights land.
  EXPECT_EQ(gateway.execute(DelayedFederation::wanDescriptor(3, 3)).values,
            fed.truth(3));
  EXPECT_EQ(gateway.stats().executions, 3u);
}

}  // namespace
}  // namespace privtopk::query
