// Long-haul WAN soak: thousands of mixed queries (flat / grouped /
// aggregate / segmented / LDP / schedule) through the multi-tenant
// Gateway over a 9-node federation whose transport is fault-injected
// (FaultInjectingTransport over InProcTransport: message drops and two
// delayed links).  The soak continuously checks liveness, then asserts
// against a faultless sequential re-run:
//   * bit-exact agreement for every deterministic query class,
//   * LDP results sound up to the mechanism's declared noise bound,
//   * bounded RSS growth (procfs, via obs process metrics),
//   * zero orphan spans across every trace the fleet recorded,
//   * bounded retry amplification (gateway resubmits + ring retransmits).
//
// Sized for ctest by default and multi-hour capable via environment
// knobs (labels: soak;slow - see tests/CMakeLists.txt).  Link latency,
// jitter and reordering are modelled in seeded virtual time instead
// (query::ServiceSim, tests/query/service_sim_test.cpp), where a failure
// replays from its seed:
//   PRIVTOPK_SOAK_QUERIES   total queries (default 1000)
//   PRIVTOPK_SOAK_RSS_MB    RSS growth bound in MiB (default 512)
//   PRIVTOPK_SOAK_SECONDS   wall-clock cap; 0 = run all queries
//   PRIVTOPK_SOAK_TIMELINE  path to write merged trace timelines to

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/generator.hpp"
#include "net/fault.hpp"
#include "net/inproc.hpp"
#include "obs/metrics.hpp"
#include "obs/process_metrics.hpp"
#include "obs/trace_view.hpp"
#include "protocol/mechanism.hpp"
#include "query/gateway.hpp"
#include "query/service.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kNodes = 9;
constexpr std::size_t kDrivers = 8;

std::size_t envSize(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(raw, nullptr, 10));
}

std::string envString(const char* name, const char* fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : raw;
}

std::vector<data::PrivateDatabase> makeFleet() {
  data::FleetSpec spec;
  spec.nodes = kNodes;
  spec.rowsPerNode = 12;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(24601);
  return data::generateFleet(spec, rng);
}

std::vector<NodeId> ringFrom(NodeId initiator, std::size_t n) {
  std::vector<NodeId> ring(n);
  std::iota(ring.begin(), ring.end(), NodeId{0});
  std::rotate(ring.begin(), ring.begin() + initiator, ring.end());
  return ring;
}

/// The mixed workload.  Every 10th query repeats the descriptor from
/// nine slots earlier (same queryId: a genuine duplicate question, so
/// the gateway may serve it from cache or coalesce it).  The rest cycle
/// through seven classes x four k values; every class except LDP is
/// value-deterministic, so a faultless sequential re-run must agree
/// bit for bit no matter how faults scrambled the soak run.
QueryDescriptor soakDescriptor(std::size_t i) {
  if (i % 10 == 9) return soakDescriptor(i - 9);
  QueryDescriptor d;
  d.queryId = 50'000 + i;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = 1 + (i % 4);
  d.params.rounds = 3;
  switch (i % 7) {
    case 0:  // grouped ring execution (three groups of three)
      d.kind = protocol::ProtocolKind::Naive;
      d.type = QueryType::TopK;
      d.groupSize = 3;
      break;
    case 1:  // exact secure-sum aggregates
      d.kind = protocol::ProtocolKind::Naive;
      d.type = ((i / 7) % 2 == 0) ? QueryType::Sum : QueryType::Count;
      break;
    case 2:  // segmented mechanism: exact after `segments` rounds
      d.kind = protocol::ProtocolKind::Probabilistic;
      d.type = QueryType::TopK;
      d.params.mechanism.kind = protocol::MechanismKind::Segmented;
      d.params.mechanism.segments = 4;
      break;
    case 3:  // LDP mechanism: sound only up to its noise bound
      d.kind = protocol::ProtocolKind::Probabilistic;
      d.type = QueryType::TopK;
      d.params.mechanism.kind = protocol::MechanismKind::Ldp;
      d.params.mechanism.ldpEpsilon = 2.0;
      break;
    case 4:  // schedule with p0 = 0 reduces to the naive merge
      d.kind = protocol::ProtocolKind::Probabilistic;
      d.type = QueryType::TopK;
      d.params.p0 = 0.0;
      break;
    case 5:
      d.kind = protocol::ProtocolKind::Naive;
      d.type = QueryType::Max;
      d.params.k = 1;
      break;
    default:
      d.kind = protocol::ProtocolKind::Naive;
      d.type = QueryType::TopK;
      break;
  }
  return d;
}

bool isLdp(const QueryDescriptor& d) {
  return d.params.mechanism.kind == protocol::MechanismKind::Ldp;
}

/// A 9-node federation over InProc, fault-injected by a
/// FaultInjectingTransport.  An empty spec skips the decorator, which is
/// how the faultless re-run cluster is built.
struct WanCluster {
  std::vector<data::PrivateDatabase> dbs = makeFleet();
  net::InProcTransport inner{kNodes};
  std::unique_ptr<net::FaultInjectingTransport> faulty;
  std::vector<std::unique_ptr<NodeService>> services;

  WanCluster(const std::string& faultSpec, ServiceOptions options,
             std::uint64_t seedBase) {
    if (!faultSpec.empty()) {
      faulty = std::make_unique<net::FaultInjectingTransport>(
          inner, net::FaultSpec::parse(faultSpec));
    }
    net::Transport& stack =
        faulty ? *faulty : static_cast<net::Transport&>(inner);
    for (std::size_t i = 0; i < kNodes; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], stack, seedBase + i, options));
      services.back()->start();
    }
  }

  ~WanCluster() {
    for (auto& s : services) s->stop();
    if (faulty) faulty->shutdown();
    inner.shutdown();
  }

  /// Blocks until every service has drained its active-query table.
  void drain(std::chrono::seconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    for (auto& service : services) {
      while (service->activeQueries() != 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(20ms);
      }
      EXPECT_EQ(service->activeQueries(), 0u) << "service failed to drain";
    }
  }
};

TEST(WanSoak, MixedWorkloadOverDelayedLossyFederationMatchesRerun) {
  const std::size_t kQueries = envSize("PRIVTOPK_SOAK_QUERIES", 1000);
  const std::size_t rssBoundMb = envSize("PRIVTOPK_SOAK_RSS_MB", 512);
  const std::size_t wallSeconds = envSize("PRIVTOPK_SOAK_SECONDS", 0);

  ServiceOptions options;
  options.retransmitAfter = 250ms;
  options.workerThreads = 3;
  options.maxInflightInitiations = 8;
  options.maxQueuedInitiations = 64;
  options.traceQueries = true;
  options.spanRingCapacity = 1 << 15;

  // Deterministic loss on five ring links and fixed sender-side delays
  // on two.
  const std::string faults =
      "drop:0->1:2,drop:2->3:5,drop:4->5:9,drop:6->7:13,drop:8->0:6,"
      "delay:1->2:2,delay:5->6:3";

  WanCluster soak(faults, options, /*seedBase=*/8100);

  obs::registerProcessMetrics();
  obs::updateProcessMetrics();
  auto& rssGauge = obs::gauge("privtopk.node.rss_bytes");
  const std::int64_t rssBaseline = rssGauge.value();
  auto& retransmitCounter =
      obs::counter("privtopk.query.retransmits", {{"engine", "service"}});
  const std::uint64_t retransmitsBefore = retransmitCounter.value();

  // A small execution budget with a tiny admission queue deliberately
  // oversubscribes the 8 driver threads, so the OverloadError
  // retry-after path is exercised continuously.
  GatewayOptions gatewayOptions;
  gatewayOptions.cacheCapacity = 512;
  gatewayOptions.maxConcurrentExecutions = 4;
  gatewayOptions.maxQueuedExecutions = 2;
  // Each execution gets a fresh wire queryId: the descriptor's own id is
  // normalized away by the cache, and reusing it would trip the service's
  // completed-query retention when an epoch bump re-executes a question
  // whose original id already ran (drivers finish out of claim order).
  std::atomic<std::uint64_t> wireQueryId{1'000'000};
  Gateway gateway(
      [&](const QueryDescriptor& d, Rng&) -> QueryOutcome {
        QueryDescriptor run = d;
        run.queryId = wireQueryId.fetch_add(1);
        const NodeId initiator = static_cast<NodeId>(run.queryId % kNodes);
        auto future = soak.services[initiator]->initiate(
            run, ringFrom(initiator, kNodes));
        if (future.wait_for(120s) != std::future_status::ready) {
          throw TransportError("wan soak: execution timed out");
        }
        QueryOutcome out;
        out.values = future.get();
        return out;
      },
      /*seed=*/31, gatewayOptions);

  // --- Drive the mixed workload from kDrivers concurrent tenants. ---
  std::vector<TopKVector> results(kQueries);
  std::vector<char> completed(kQueries, 0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> gatewayRetries{0};
  std::mutex errorsMutex;
  std::vector<std::string> errors;
  const bool capped = wallSeconds > 0;
  const auto wallDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(wallSeconds);

  auto drive = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= kQueries) return;
      if (capped && std::chrono::steady_clock::now() >= wallDeadline) return;
      // Periodic epoch bumps model upstream data refreshes: they
      // invalidate the cache so most questions re-execute over the WAN
      // instead of the whole soak collapsing onto ~30 cached answers.
      if (i > 0 && i % 64 == 0) gateway.bumpDataEpoch();
      GatewayRequest request;
      request.descriptor = soakDescriptor(i);
      request.tenant = "tenant-" + std::to_string(i % 3);
      for (int attempt = 0; attempt < 200; ++attempt) {
        try {
          results[i] = gateway.execute(request).values;
          completed[i] = 1;
          break;
        } catch (const OverloadError& e) {
          gatewayRetries.fetch_add(1);
          const auto hint = std::clamp<std::chrono::milliseconds>(
              e.retryAfter(), 1ms, 50ms);
          std::this_thread::sleep_for(hint);
        } catch (const std::exception& e) {
          std::scoped_lock lock(errorsMutex);
          errors.push_back("query " + std::to_string(i) + ": " + e.what());
          return;
        }
      }
      if (completed[i] == 0) {
        std::scoped_lock lock(errorsMutex);
        errors.push_back("query " + std::to_string(i) +
                         ": starved out after 200 overload retries");
        return;
      }
    }
  };

  // Scraper: continuously merges span rings (dedup by spanId, so ring
  // eviction over a multi-hour run cannot lose history) and samples RSS.
  std::unordered_map<std::uint64_t, obs::SpanRecord> spansById;
  std::atomic<bool> scraping{true};
  std::int64_t rssPeak = rssBaseline;
  auto scrape = [&] {
    for (auto& service : soak.services) {
      for (auto& span : service->spans()) {
        spansById.emplace(span.spanId, std::move(span));
      }
    }
    obs::updateProcessMetrics();
    rssPeak = std::max(rssPeak, rssGauge.value());
  };
  std::thread scraper([&] {
    while (scraping.load()) {
      scrape();
      std::this_thread::sleep_for(200ms);
    }
  });

  std::vector<std::thread> drivers;
  for (std::size_t t = 0; t < kDrivers; ++t) drivers.emplace_back(drive);
  for (auto& t : drivers) t.join();

  soak.drain(30s);
  scraping = false;
  scraper.join();
  scrape();  // final merge after every follower retired its spans

  // Only assert once every background thread is joined: a fatal failure
  // returns from the test body, and a still-joinable scraper would turn
  // that report into std::terminate.
  for (const auto& error : errors) ADD_FAILURE() << error;
  ASSERT_TRUE(errors.empty());

  const std::size_t completedCount = static_cast<std::size_t>(
      std::count(completed.begin(), completed.end(), 1));
  if (capped) {
    ASSERT_GT(completedCount, 0u) << "wall-clock cap ran zero queries";
  } else {
    ASSERT_EQ(completedCount, kQueries);
  }

  // --- Gateway accounting stayed coherent under the storm. ---
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.inflightExecutions, 0u);
  EXPECT_EQ(stats.queuedExecutions, 0u);
  EXPECT_GE(stats.hits + stats.misses + stats.coalesced, completedCount);
  if (!capped && kQueries >= 1000) {
    EXPECT_GE(stats.executions, 100u) << "soak barely touched the WAN";
    EXPECT_GE(stats.hits + stats.coalesced, 50u)
        << "dedup paths were never exercised";
  }

  // --- Bounded retry amplification. ---
  // Gateway resubmits: every shed is one retry, and the driver loop caps
  // a single query at 200 attempts; amplification across the soak must
  // stay linear in the workload, not quadratic.
  EXPECT_LE(gatewayRetries.load(), 5 * kQueries + 100)
      << "gateway retry amplification blew up";
  // Ring-level retransmits: recovery traffic for injected drops plus
  // occasional link-delay spurious timeouts, never a retransmit storm.
  const std::uint64_t retransmitsDuring =
      retransmitCounter.value() - retransmitsBefore;
  EXPECT_LE(retransmitsDuring, 30 * completedCount + 100)
      << "ring retransmit amplification blew up";

  // --- Bounded RSS growth. ---
  const std::int64_t rssGrowth = rssPeak - rssBaseline;
  EXPECT_LE(rssGrowth,
            static_cast<std::int64_t>(rssBoundMb) * 1024 * 1024)
      << "RSS grew " << (rssGrowth >> 20) << " MiB during the soak";

  // --- Zero orphan spans across every recorded trace. ---
  std::map<std::uint64_t, std::vector<obs::SpanRecord>> byTrace;
  for (const auto& [id, span] : spansById) {
    byTrace[span.traceId].push_back(span);
  }
  EXPECT_FALSE(byTrace.empty()) << "soak recorded no spans at all";
  std::size_t orphans = 0;
  for (const auto& [traceId, spans] : byTrace) {
    const auto timeline = obs::buildTimeline(spans, traceId);
    orphans += timeline.orphanSpanIds.size();
    if (!timeline.orphanSpanIds.empty()) {
      ADD_FAILURE() << "trace " << traceId << " has "
                    << timeline.orphanSpanIds.size() << " orphan spans";
    }
  }
  EXPECT_EQ(orphans, 0u);

  // Optional artifact: merged timelines of the busiest traces.
  if (const std::string path = envString("PRIVTOPK_SOAK_TIMELINE", "");
      !path.empty()) {
    std::vector<const std::pair<const std::uint64_t,
                                std::vector<obs::SpanRecord>>*> traces;
    traces.reserve(byTrace.size());
    for (const auto& entry : byTrace) traces.push_back(&entry);
    std::sort(traces.begin(), traces.end(), [](auto* a, auto* b) {
      return a->second.size() > b->second.size();
    });
    std::ofstream out(path);
    out << "# WAN soak: " << completedCount << " queries, "
        << byTrace.size() << " traces, "
        << spansById.size() << " spans\n\n";
    for (std::size_t t = 0; t < std::min<std::size_t>(8, traces.size());
         ++t) {
      out << obs::renderTimeline(
                 obs::buildTimeline(traces[t]->second, traces[t]->first))
          << "\n";
    }
  }

  // --- Faultless sequential re-run: the ground truth for agreement. ---
  ServiceOptions rerunOptions;
  rerunOptions.workerThreads = 2;
  WanCluster rerun("", rerunOptions, /*seedBase=*/9300);
  const auto allValues = data::fleetValues(rerun.dbs, "sales", "revenue");

  std::map<std::size_t, TopKVector> rerunResults;
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (i % 10 == 9) continue;  // duplicate descriptor: same queryId
    if (completed[i] == 0) continue;
    const QueryDescriptor d = soakDescriptor(i);
    const NodeId initiator = static_cast<NodeId>(d.queryId % kNodes);
    auto future =
        rerun.services[initiator]->initiate(d, ringFrom(initiator, kNodes));
    ASSERT_EQ(future.wait_for(30s), std::future_status::ready)
        << "re-run query " << i << " never completed";
    rerunResults[i] = future.get();
  }

  std::size_t checkedExact = 0, checkedLdp = 0;
  for (std::size_t i = 0; i < kQueries; ++i) {
    if (completed[i] == 0) continue;
    const std::size_t base = (i % 10 == 9) ? i - 9 : i;
    if (completed[base] == 0) continue;  // capped run cut the base off
    const QueryDescriptor d = soakDescriptor(base);
    if (isLdp(d)) {
      // Non-reproducible by design: assert the repo's soundness
      // contract instead - k sorted values, none above the truth by
      // more than the mechanism's declared slack.
      const Value slack = protocol::makeMechanism(d.params.mechanism)
                              ->soundnessSlack(d.params);
      const TopKVector truth = data::trueTopK(allValues, d.effectiveK());
      for (const TopKVector* got : {&results[i], &rerunResults[base]}) {
        ASSERT_EQ(got->size(), d.effectiveK()) << "ldp query " << i;
        EXPECT_TRUE(std::is_sorted(got->begin(), got->end(),
                                   std::greater<>()))
            << "ldp query " << i;
        for (std::size_t slot = 0; slot < got->size(); ++slot) {
          EXPECT_LE((*got)[slot], truth[slot] + slack)
              << "ldp query " << i << " slot " << slot
              << " exceeded the soundness slack";
        }
      }
      ++checkedLdp;
    } else {
      EXPECT_EQ(results[i], rerunResults.at(base))
          << "query " << i << " diverged from the sequential re-run";
      ++checkedExact;
    }
  }
  if (!capped) {
    EXPECT_GE(checkedExact, kQueries * 3 / 4);
    EXPECT_GE(checkedLdp, kQueries / 10);
  }

  rerun.drain(10s);
}

}  // namespace
}  // namespace privtopk::query
