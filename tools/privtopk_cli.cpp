// privtopk command-line tool.
//
// Subcommands:
//   analyze    - print the paper's analytic bounds for given parameters
//   generate   - write synthetic per-party CSV datasets
//   query      - run a federated query across local CSV files (simulation)
//   node       - run ONE NodeService over TCP (deployment)
//   metrics    - run one in-process federated query, dump the metrics
//   trace-view - merge per-node span dumps/endpoints into one timeline
//
// Examples:
//   privtopk analyze --p0 1 --d 0.5 --epsilon 0.001
//   privtopk generate --parties 4 --rows 100 --dist zipf --out /tmp/party
//   privtopk query --csv /tmp/party0.csv,/tmp/party1.csv,/tmp/party2.csv
//       --schema id:text,value:int --table data --attribute value
//       --type topk --k 3
//   privtopk query --csv ... --repeat 100 --cache-ttl 5000 --tenant acme
//       --priority interactive --rate-limit 2 --burst 4
//   privtopk query --csv ... --privacy-mechanism segmented --segments 8
//   privtopk query --csv ... --privacy-mechanism ldp --ldp-epsilon 0.5
//   privtopk node --self 0 --peers 127.0.0.1:9100,127.0.0.1:9101,...
//       --ring 0,1,2 --csv /tmp/party0.csv --schema id:text,value:int
//       --attribute value --k 3 --encrypt
//   privtopk node --self 0 ... --trace-queries --http-port 9190
//       --span-dump /tmp/node0.spans
//   privtopk trace-view --spans /tmp/node0.spans,/tmp/node1.spans,...
//   privtopk trace-view --endpoints 127.0.0.1:9190,127.0.0.1:9191 --query-id 1
//   privtopk metrics --parties 4 --k 3 --format both --trace
//   privtopk metrics --parties 5 --k 3 --fault-spec "drop:0->1:2,crash:2@0"
// (multi-flag invocations continue on one shell line or with backslashes;
//  the --fault-spec grammar is documented in docs/ROBUSTNESS.md)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <thread>

#include "analysis/bounds.hpp"
#include "analysis/optimal_schedule.hpp"
#include "common/args.hpp"
#include "common/parallel.hpp"
#include "data/csv.hpp"
#include "data/generator.hpp"
#include "net/fault.hpp"
#include "net/http.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "obs/trace_view.hpp"
#include "query/federation.hpp"
#include "query/filter.hpp"
#include "query/gateway.hpp"
#include "query/service.hpp"
#include "privacy/adversary.hpp"
#include "privacy/anonymity.hpp"
#include "privacy/distribution_exposure.hpp"
#include "privacy/lop.hpp"
#include "protocol/trace_io.hpp"

using namespace privtopk;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: privtopk "
               "<analyze|generate|query|node|metrics|trace-view|"
               "record-traces|analyze-traces> [flags]\n"
               "run with a subcommand and no flags for its flag list\n");
  return 2;
}

data::Schema parseSchema(const std::string& spec) {
  std::vector<data::ColumnSpec> columns;
  for (const std::string& part : splitString(spec, ',')) {
    const auto pieces = splitString(part, ':');
    if (pieces.size() != 2) {
      throw ConfigError("schema entry '" + part + "' is not name:type");
    }
    data::ColumnType type;
    if (pieces[1] == "int") {
      type = data::ColumnType::Int;
    } else if (pieces[1] == "real") {
      type = data::ColumnType::Real;
    } else if (pieces[1] == "text") {
      type = data::ColumnType::Text;
    } else {
      throw ConfigError("unknown column type '" + pieces[1] + "'");
    }
    columns.push_back({pieces[0], type});
  }
  return data::Schema(columns);
}

query::QueryDescriptor descriptorFromArgs(const ArgParser& args) {
  query::QueryDescriptor d;
  d.queryId = static_cast<std::uint64_t>(args.getInt("query-id", 1));
  d.tableName = args.getString("table", "data");
  d.attribute = args.getString("attribute", "value");
  d.params.k = static_cast<std::size_t>(args.getInt("k", 1));
  d.params.p0 = args.getDouble("p0", 1.0);
  d.params.d = args.getDouble("d", 0.5);
  d.params.epsilon = args.getDouble("epsilon", 0.001);
  d.params.domain = Domain{args.getInt("domain-min", 1),
                           args.getInt("domain-max", 10000)};
  if (args.has("rounds")) {
    d.params.rounds = static_cast<Round>(args.getInt("rounds", 5));
  }
  d.groupSize = static_cast<std::size_t>(args.getInt("group-size", 0));

  // Privacy mechanism selection (docs/PRIVACY.md).  Knobs only apply when
  // given, so the mechanism defaults stay in one place (MechanismParams).
  const std::string mechanism =
      args.getString("privacy-mechanism", "schedule");
  if (mechanism == "schedule") {
    d.params.mechanism.kind = protocol::MechanismKind::Schedule;
  } else if (mechanism == "segmented") {
    d.params.mechanism.kind = protocol::MechanismKind::Segmented;
  } else if (mechanism == "ldp") {
    d.params.mechanism.kind = protocol::MechanismKind::Ldp;
  } else {
    throw ConfigError("--privacy-mechanism must be schedule|segmented|ldp");
  }
  if (args.has("segments")) {
    d.params.mechanism.segments =
        static_cast<std::uint32_t>(args.getInt("segments", 4));
  }
  if (args.has("ldp-epsilon")) {
    d.params.mechanism.ldpEpsilon = args.getDouble("ldp-epsilon", 1.0);
  }

  const std::string type = args.getString("type", "topk");
  if (type == "topk") d.type = query::QueryType::TopK;
  else if (type == "bottomk") d.type = query::QueryType::BottomK;
  else if (type == "max") d.type = query::QueryType::Max;
  else if (type == "min") d.type = query::QueryType::Min;
  else if (type == "sum") d.type = query::QueryType::Sum;
  else if (type == "count") d.type = query::QueryType::Count;
  else if (type == "average") d.type = query::QueryType::Average;
  else throw ConfigError("unknown query type '" + type + "'");

  const std::string protocol = args.getString("protocol", "probabilistic");
  if (protocol == "probabilistic") {
    d.kind = protocol::ProtocolKind::Probabilistic;
  } else if (protocol == "naive") {
    d.kind = protocol::ProtocolKind::Naive;
  } else if (protocol == "anonymous-naive") {
    d.kind = protocol::ProtocolKind::AnonymousNaive;
  } else {
    throw ConfigError("unknown protocol '" + protocol + "'");
  }
  return d;
}

int cmdAnalyze(int argc, const char* const* argv) {
  const ArgParser args(argc, argv,
                       {"p0", "d", "epsilon", "n", "rounds"});
  const double p0 = args.getDouble("p0", 1.0);
  const double d = args.getDouble("d", 0.5);
  const double epsilon = args.getDouble("epsilon", 0.001);
  const auto n = static_cast<std::size_t>(args.getInt("n", 4));

  const Round rmin = analysis::minRounds(p0, d, epsilon);
  std::printf("parameters: p0 = %g, d = %g, epsilon = %g, n = %zu\n\n", p0, d,
              epsilon, n);
  std::printf("rounds for precision >= %g:  %u   (tight bound: %u)\n",
              1.0 - epsilon, rmin, analysis::minRoundsTight(p0, d, epsilon));
  std::printf("expected peak LoP bound (Eq. 6):  %.4f\n",
              analysis::probabilisticLoPBound(p0, d, rmin + 8));
  std::printf("naive-protocol average LoP at n=%zu:  %.4f  "
              "(paper Eq. 5 reference ln(n)/n = %.4f)\n\n",
              n, analysis::naiveAverageLoP(n), analysis::naiveLoPBound(n));

  std::printf("%-8s %-14s %-14s\n", "round", "Pr(r)", "precision bound");
  for (Round r = 1; r <= rmin + 2; ++r) {
    std::printf("%-8u %-14.6f %-14.6f\n", r,
                analysis::randomizationProbability(p0, d, r),
                analysis::precisionBound(p0, d, r));
  }

  const auto optimal = analysis::optimalSchedule(std::max<Round>(rmin, 2),
                                                 epsilon);
  std::printf("\noptimal schedule for the same budget (peak LoP bound "
              "%.4f):\n  ",
              optimal.peakLoPBound);
  for (double q : optimal.probabilities) std::printf("%.4f ", q);
  std::printf("\n");
  return 0;
}

int cmdGenerate(int argc, const char* const* argv) {
  const ArgParser args(argc, argv,
                       {"parties", "rows", "dist", "out", "seed",
                        "domain-min", "domain-max", "attribute"});
  data::FleetSpec spec;
  spec.nodes = static_cast<std::size_t>(args.getInt("parties", 4));
  spec.rowsPerNode = static_cast<std::size_t>(args.getInt("rows", 100));
  spec.distribution = args.getString("dist", "uniform");
  spec.domain = Domain{args.getInt("domain-min", 1),
                       args.getInt("domain-max", 10000)};
  spec.tableName = "data";
  spec.attribute = args.getString("attribute", "value");
  const std::string prefix = args.getString("out", "party");

  Rng rng(static_cast<std::uint64_t>(args.getInt("seed", 42)));
  const auto fleet = data::generateFleet(spec, rng);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string path = prefix + std::to_string(i) + ".csv";
    data::saveCsvFile(path, fleet[i].table(spec.tableName));
    std::printf("wrote %s (%zu rows)\n", path.c_str(), spec.rowsPerNode);
  }
  return 0;
}

int cmdQuery(int argc, const char* const* argv) {
  const ArgParser args(
      argc, argv,
      {"csv", "schema", "table", "attribute", "type", "k", "protocol", "p0",
       "d", "epsilon", "rounds", "seed", "domain-min", "domain-max",
       "query-id", "verbose", "filter", "group-size", "privacy-mechanism",
       "segments", "ldp-epsilon", "repeat", "cache-ttl", "cache-capacity",
       "tenant", "priority", "rate-limit", "burst"});
  const auto files = args.getList("csv");
  if (files.size() < 3) {
    throw ConfigError("--csv needs at least 3 comma-separated files "
                      "(the protocol requires n >= 3)");
  }
  const data::Schema schema =
      parseSchema(args.getString("schema", "id:text,value:int"));
  query::QueryDescriptor descriptor = descriptorFromArgs(args);
  descriptor.filter = query::Filter::parse(args.getString("filter", ""));

  std::vector<data::PrivateDatabase> parties;
  for (const auto& file : files) {
    data::PrivateDatabase db(file);
    db.addTable(descriptor.tableName, data::loadCsvFile(file, schema));
    parties.push_back(std::move(db));
  }

  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
  const query::Federation federation(parties);

  // Any gateway knob routes the query through query::Gateway: repeated
  // runs of the same question are answered from cache (zero additional
  // leakage) and the tenant's token bucket gates protocol executions.
  const bool viaGateway = args.has("repeat") || args.has("cache-ttl") ||
                          args.has("cache-capacity") || args.has("tenant") ||
                          args.has("priority") || args.has("rate-limit") ||
                          args.has("burst");
  query::QueryOutcome outcome;
  if (viaGateway) {
    query::GatewayOptions gatewayOptions;
    gatewayOptions.cacheCapacity =
        static_cast<std::size_t>(args.getInt("cache-capacity", 4096));
    gatewayOptions.cacheTtl =
        std::chrono::milliseconds(args.getInt("cache-ttl", 0));
    query::Gateway gateway(
        [&](const query::QueryDescriptor& d, Rng& rng) {
          return federation.execute(d, rng);
        },
        seed, gatewayOptions);

    query::GatewayRequest request;
    request.descriptor = descriptor;
    request.tenant = args.getString("tenant", "default");
    const std::string priority = args.getString("priority", "normal");
    if (priority == "batch") request.priority = query::Priority::Batch;
    else if (priority == "normal") request.priority = query::Priority::Normal;
    else if (priority == "interactive") {
      request.priority = query::Priority::Interactive;
    } else {
      throw ConfigError("--priority must be batch|normal|interactive");
    }
    if (args.has("rate-limit")) {
      gateway.setTenantLimits(request.tenant,
                              {args.getDouble("rate-limit", 0.0),
                               args.getDouble("burst", 1.0)});
    }

    const auto repeat = static_cast<std::size_t>(args.getInt("repeat", 1));
    std::size_t shed = 0;
    for (std::size_t i = 0; i < repeat; ++i) {
      try {
        outcome = gateway.execute(request);
      } catch (const OverloadError&) {
        ++shed;
        if (i == 0) throw;  // no earlier answer to report
      }
    }
    const query::GatewayStats stats = gateway.stats();
    std::printf("%s(%zu) over %zu parties: %s\n", toString(descriptor.type),
                descriptor.effectiveK(), parties.size(),
                toString(outcome.values).c_str());
    std::printf("protocol: %s, rounds: %u, ring messages: %zu\n",
                toString(descriptor.kind), outcome.rounds, outcome.messages);
    std::printf("gateway: %zu requests as tenant '%s' (%s), "
                "%llu hits, %llu executions, %zu shed\n",
                repeat, request.tenant.c_str(), toString(request.priority),
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.executions), shed);
  } else {
    Rng rng(seed);
    outcome = federation.execute(descriptor, rng);
    std::printf("%s(%zu) over %zu parties: %s\n", toString(descriptor.type),
                descriptor.effectiveK(), parties.size(),
                toString(outcome.values).c_str());
    std::printf("protocol: %s, rounds: %u, ring messages: %zu\n",
                toString(descriptor.kind), outcome.rounds, outcome.messages);
  }
  if (args.getBool("verbose")) {
    for (const auto& step : outcome.trace.steps) {
      std::printf("  r%u pos%zu node%u -> %s\n", step.round, step.position,
                  step.node, toString(step.output).c_str());
    }
  }
  return 0;
}

int cmdNode(int argc, const char* const* argv) {
  const ArgParser args(
      argc, argv,
      {"self", "peers", "ring", "csv", "schema", "table", "attribute", "type",
       "k", "p0", "d", "epsilon", "rounds", "seed", "domain-min",
       "domain-max", "query-id", "encrypt", "timeout-ms", "fault-spec",
       "group-size", "privacy-mechanism", "segments",
       "ldp-epsilon", "trace-queries", "http-port", "span-dump",
       "span-ring"});
  const auto self = static_cast<NodeId>(args.getInt("self", 0));
  const query::QueryDescriptor descriptor = descriptorFromArgs(args);

  // Address book: index in --peers is the node id.
  std::vector<net::TcpPeer> peers;
  NodeId id = 0;
  for (const std::string& hostPort : args.getList("peers")) {
    const auto parts = splitString(hostPort, ':');
    if (parts.size() != 2) {
      throw ConfigError("peer '" + hostPort + "' is not host:port");
    }
    peers.push_back(net::TcpPeer{
        id++, parts[0],
        static_cast<std::uint16_t>(std::stoi(parts[1]))});
  }

  std::vector<NodeId> ring;
  for (const std::string& node : args.getList("ring")) {
    ring.push_back(static_cast<NodeId>(std::stoul(node)));
  }
  if (std::find(ring.begin(), ring.end(), self) == ring.end()) {
    throw ConfigError("node: --self is not on --ring");
  }
  const std::chrono::milliseconds timeout(args.getInt("timeout-ms", 30000));

  const data::Schema schema =
      parseSchema(args.getString("schema", "id:text,value:int"));
  data::PrivateDatabase db("self");
  db.addTable(descriptor.tableName,
              data::loadCsvFile(args.getString("csv"), schema));

  net::TcpOptions tcpOptions;
  tcpOptions.encrypt = args.getBool("encrypt");
  tcpOptions.keySeed = descriptor.queryId ^ 0x9e3779b97f4a7c15ULL;
  net::TcpTransport tcpTransport(self, peers, tcpOptions);

  // Optional deterministic fault schedule for robustness drills (see
  // docs/ROBUSTNESS.md for the grammar).
  const net::FaultSpec faultSpec =
      net::FaultSpec::parse(args.getString("fault-spec", ""));
  std::unique_ptr<net::FaultInjectingTransport> faulty;
  if (!faultSpec.empty()) {
    faulty =
        std::make_unique<net::FaultInjectingTransport>(tcpTransport, faultSpec);
  }
  net::Transport& transport =
      faulty ? *faulty : static_cast<net::Transport&>(tcpTransport);

  const auto seed =
      static_cast<std::uint64_t>(args.getInt("seed", 42)) + self;

  // The ring's first node initiates; everyone else waits for the
  // disseminated final result.
  query::ServiceOptions serviceOptions;
  serviceOptions.staleAfter = timeout;
  serviceOptions.traceQueries = args.getBool("trace-queries");
  serviceOptions.spanRingCapacity =
      static_cast<std::size_t>(args.getInt("span-ring", 8192));
  if (args.has("http-port")) {
    serviceOptions.httpPort =
        static_cast<std::uint16_t>(args.getInt("http-port", 0));
  }
  query::NodeService service(self, db, transport, seed, serviceOptions);
  service.start();
  if (service.httpPort() != 0) {
    std::printf("node %u serving http on 127.0.0.1:%u\n", self,
                service.httpPort());
  }
  std::printf("node %u joined ring, waiting for the protocol...\n", self);
  TopKVector result;
  if (ring.front() == self) {
    auto future = service.initiate(descriptor, ring);
    if (future.wait_for(timeout) != std::future_status::ready) {
      throw TransportError("node: query did not complete in time");
    }
    result = future.get();
  } else {
    const auto got = service.waitFor(descriptor.queryId, timeout);
    if (!got) throw TransportError("node: query did not complete in time");
    result = *got;
  }
  std::printf("result: %s\n", toString(result).c_str());
  // Trailing traffic (the announce still circling, dissemination hops)
  // lands shortly after the local result; drain so the span dump and a
  // final scrape see the settled state.
  const auto drainDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.activeQueries() > 0 &&
         std::chrono::steady_clock::now() < drainDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (args.has("span-dump")) {
    const std::string path = args.getString("span-dump");
    std::ofstream dump(path);
    if (!dump) throw ConfigError("node: cannot write " + path);
    std::size_t count = 0;
    for (const obs::SpanRecord& span : service.spans()) {
      dump << obs::renderSpanJson(span) << '\n';
      ++count;
    }
    std::printf("wrote %zu spans to %s\n", count, path.c_str());
  }
  service.stop();
  transport.shutdown();
  return 0;
}

// Runs one federated query on a synthetic in-process cluster of
// NodeServices, then dumps the populated metrics registry in Prometheus
// text format and/or JSON.  This is the quickest way to see the whole
// observability surface end to end; --trace additionally traces the query
// and streams its spans to stderr as JSON lines (`trace-view --spans`).
int cmdMetrics(int argc, const char* const* argv) {
  const ArgParser args(
      argc, argv,
      {"parties", "rows", "dist", "type", "k", "protocol", "p0", "d",
       "epsilon", "rounds", "seed", "domain-min", "domain-max", "query-id",
       "format", "trace", "fault-spec", "group-size", "privacy-mechanism",
       "segments", "ldp-epsilon"});
  const auto n = static_cast<std::size_t>(args.getInt("parties", 4));
  if (n < 3) throw ConfigError("metrics: --parties must be >= 3");
  const std::string format = args.getString("format", "both");
  if (format != "prometheus" && format != "json" && format != "both") {
    throw ConfigError("metrics: --format must be prometheus|json|both");
  }
  const query::QueryDescriptor descriptor = descriptorFromArgs(args);

  data::FleetSpec spec;
  spec.nodes = n;
  spec.rowsPerNode = static_cast<std::size_t>(args.getInt("rows", 50));
  spec.distribution = args.getString("dist", "uniform");
  spec.domain = descriptor.params.domain;
  spec.tableName = descriptor.tableName;
  spec.attribute = descriptor.attribute;
  Rng rng(static_cast<std::uint64_t>(args.getInt("seed", 42)));
  const auto fleet = data::generateFleet(spec, rng);

  if (args.getBool("trace")) obs::EventTracer::global().enable(&std::cerr);

  net::InProcTransport inproc(n);
  const net::FaultSpec faultSpec =
      net::FaultSpec::parse(args.getString("fault-spec", ""));
  std::unique_ptr<net::FaultInjectingTransport> faulty;
  if (!faultSpec.empty()) {
    faulty = std::make_unique<net::FaultInjectingTransport>(inproc, faultSpec);
  }
  net::Transport& transport =
      faulty ? *faulty : static_cast<net::Transport&>(inproc);
  // Under injected faults the ring needs headroom to detect and repair
  // before the default initiator deadline.
  query::ServiceOptions serviceOptions;
  serviceOptions.traceQueries = args.getBool("trace");
  if (!faultSpec.empty()) {
    serviceOptions.retransmitAfter = std::chrono::milliseconds(250);
    serviceOptions.deadAfterFailures = 2;
  }
  std::vector<std::unique_ptr<query::NodeService>> services;
  for (std::size_t i = 0; i < n; ++i) {
    services.push_back(std::make_unique<query::NodeService>(
        static_cast<NodeId>(i), fleet[i], transport,
        static_cast<std::uint64_t>(args.getInt("seed", 42)) + i,
        serviceOptions));
    services.back()->start();
  }

  std::vector<NodeId> ring(n);
  std::iota(ring.begin(), ring.end(), NodeId{0});
  auto future = services.front()->initiate(descriptor, ring);
  if (future.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    throw TransportError("metrics: query did not complete within 30s");
  }
  const TopKVector result = future.get();

  // The initiator's future resolves before the result announcement has
  // finished circling; wait for every follower to retire the query so the
  // snapshot shows the settled state (active 0, all latencies recorded).
  const auto drainDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (auto& service : services) {
    while (service->activeQueries() > 0 &&
           std::chrono::steady_clock::now() < drainDeadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const obs::MetricsSnapshot snapshot = services.front()->metricsSnapshot();
  for (auto& service : services) service->stop();
  transport.shutdown();
  obs::EventTracer::global().disable();

  std::printf("# %s(%zu) over %zu parties: %s\n", toString(descriptor.type),
              descriptor.effectiveK(), n, toString(result).c_str());
  if (format == "prometheus" || format == "both") {
    std::fputs(obs::renderPrometheus(snapshot).c_str(), stdout);
  }
  if (format == "json" || format == "both") {
    std::fputs(obs::renderJson(snapshot).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}

// Merges per-node span dumps (files and/or live /trace endpoints) into
// cross-node timelines: clock alignment, critical path, phase breakdown.
int cmdTraceView(int argc, const char* const* argv) {
  const ArgParser args(argc, argv,
                       {"spans", "endpoints", "query-id", "trace-id"});
  std::vector<obs::SpanRecord> all;
  for (const std::string& path : args.getList("spans")) {
    std::ifstream in(path);
    if (!in) throw ConfigError("trace-view: cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto spans = obs::parseSpanDump(buffer.str());
    std::fprintf(stderr, "%s: %zu spans\n", path.c_str(), spans.size());
    all.insert(all.end(), spans.begin(), spans.end());
  }
  for (const std::string& hostPort : args.getList("endpoints")) {
    const auto parts = splitString(hostPort, ':');
    if (parts.size() != 2) {
      throw ConfigError("endpoint '" + hostPort + "' is not host:port");
    }
    std::string target = "/trace";
    if (args.has("query-id")) {
      target += "/" + std::to_string(args.getInt("query-id", 0));
    }
    const auto body = net::httpGet(
        parts[0], static_cast<std::uint16_t>(std::stoi(parts[1])), target);
    if (!body) {
      throw TransportError("trace-view: GET http://" + hostPort + target +
                           " failed");
    }
    const auto spans = obs::parseSpanDump(*body);
    std::fprintf(stderr, "http://%s%s: %zu spans\n", hostPort.c_str(),
                 target.c_str(), spans.size());
    all.insert(all.end(), spans.begin(), spans.end());
  }
  if (all.empty()) {
    std::fprintf(stderr,
                 "trace-view: no spans loaded (use --spans files and/or "
                 "--endpoints host:port)\n");
    return 1;
  }

  std::vector<std::uint64_t> traceIds;
  if (args.has("trace-id")) {
    // Ids use the full 64-bit range; parse unsigned.
    traceIds.push_back(
        std::strtoull(args.getString("trace-id").c_str(), nullptr, 10));
  } else if (args.has("query-id")) {
    traceIds = obs::traceIdsForQuery(
        all, static_cast<std::uint64_t>(args.getInt("query-id", 0)));
  } else {
    traceIds = obs::traceIdsOf(all);
  }
  if (traceIds.empty()) {
    std::fprintf(stderr, "trace-view: no matching traces\n");
    return 1;
  }
  for (const std::uint64_t traceId : traceIds) {
    const obs::TraceTimeline timeline = obs::buildTimeline(all, traceId);
    std::fputs(obs::renderTimeline(timeline).c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return 0;
}

int cmdRecordTraces(int argc, const char* const* argv) {
  const ArgParser args(
      argc, argv,
      {"csv", "schema", "table", "attribute", "type", "k", "protocol", "p0",
       "d", "epsilon", "rounds", "seed", "domain-min", "domain-max",
       "query-id", "filter", "trials", "threads", "out", "group-size",
       "privacy-mechanism", "segments", "ldp-epsilon"});
  const auto files = args.getList("csv");
  if (files.size() < 3) {
    throw ConfigError("--csv needs at least 3 comma-separated files");
  }
  const data::Schema schema =
      parseSchema(args.getString("schema", "id:text,value:int"));
  query::QueryDescriptor descriptor = descriptorFromArgs(args);
  descriptor.filter = query::Filter::parse(args.getString("filter", ""));
  if (descriptor.isAggregate()) {
    throw ConfigError("record-traces: aggregate queries have no ring trace");
  }
  if (descriptor.groupSize != 0) {
    throw ConfigError(
        "record-traces: grouped execution has no single-ring trace "
        "(drop --group-size)");
  }

  std::vector<data::PrivateDatabase> parties;
  for (const auto& file : files) {
    data::PrivateDatabase db(file);
    db.addTable(descriptor.tableName, data::loadCsvFile(file, schema));
    parties.push_back(std::move(db));
  }
  const query::Federation federation(parties);

  // Trials fan out across threads (--threads, PRIVTOPK_BENCH_THREADS,
  // default all cores) with a counter-based RNG stream per trial, so the
  // recorded archive is bit-identical for any thread count.
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
  const int trials = static_cast<int>(args.getInt("trials", 100));
  const std::size_t threads = resolveThreadCount(
      static_cast<int>(args.getInt("threads", 0)), kBenchThreadsEnvVar);
  std::vector<protocol::ExecutionTrace> traces(
      static_cast<std::size_t>(trials));
  parallelFor(threads, traces.size(), [&](std::size_t t) {
    Rng rng(splitmix64(seed) ^ splitmix64(t));
    traces[t] = federation.execute(descriptor, rng).trace;
  });
  const std::string out = args.getString("out", "query.traces");
  protocol::saveTraceArchive(out, traces);
  std::printf("recorded %d traces of %s(%zu) over %zu parties -> %s\n",
              trials, toString(descriptor.type), descriptor.effectiveK(),
              parties.size(), out.c_str());
  return 0;
}

int cmdAnalyzeTraces(int argc, const char* const* argv) {
  const ArgParser args(argc, argv, {"file", "bins", "p0", "d"});
  const auto traces =
      protocol::loadTraceArchive(args.getString("file", "query.traces"));
  if (traces.empty()) throw ConfigError("analyze-traces: empty archive");
  const auto& first = traces.front();
  std::printf("archive: %zu traces, n = %zu, k = %zu, %u rounds\n\n",
              traces.size(), first.nodeCount, first.k, first.rounds);

  privacy::LoPAccumulator lop(first.nodeCount, first.rounds,
                              privacy::Grouping::ByNodeId);
  privacy::CollusionAnalyzer collusion(first.rounds);
  for (const auto& trace : traces) {
    lop.addTrial(trace);
    collusion.addTrial(trace);
  }

  std::printf("Loss of Privacy (Eq. 1, peak over rounds):\n");
  std::printf("  average over nodes: %.4f\n", lop.averageLoP());
  std::printf("  worst node:         %.4f\n\n", lop.worstLoP());

  std::printf("%-8s %-14s %-22s\n", "round", "avg LoP", "collusion P(own|changed)");
  const auto perRound = lop.perRoundAverage();
  const auto& perRoundCollusion = collusion.perRound();
  for (std::size_t r = 0; r < perRound.size(); ++r) {
    std::printf("%-8zu %-14.4f %-22.4f\n", r + 1, perRound[r],
                perRoundCollusion[r].conditionalExposure());
  }

  if (first.k == 1) {
    privacy::AttributionAnalyzer attribution;
    const protocol::ExponentialSchedule schedule(args.getDouble("p0", 1.0),
                                                 args.getDouble("d", 0.5));
    double exposure = 0.0;
    for (const auto& trace : traces) {
      attribution.addTrial(trace);
      exposure += privacy::averageDistributionExposure(
          trace, schedule,
          static_cast<std::size_t>(args.getInt("bins", 100)));
    }
    std::printf("\nmax-query extras:\n");
    std::printf("  mean emission round:          %.2f\n",
                attribution.stats().meanEmissionRound);
    std::printf("  mean owner-set size:          %.2f\n",
                attribution.stats().meanOwnerSetSize);
    std::printf("  Bayesian exposure (colluders): %.4f\n",
                exposure / static_cast<double>(traces.size()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "analyze") return cmdAnalyze(argc - 1, argv + 1);
    if (command == "generate") return cmdGenerate(argc - 1, argv + 1);
    if (command == "query") return cmdQuery(argc - 1, argv + 1);
    if (command == "node") return cmdNode(argc - 1, argv + 1);
    if (command == "metrics") return cmdMetrics(argc - 1, argv + 1);
    if (command == "trace-view") return cmdTraceView(argc - 1, argv + 1);
    if (command == "record-traces") return cmdRecordTraces(argc - 1, argv + 1);
    if (command == "analyze-traces") return cmdAnalyzeTraces(argc - 1, argv + 1);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
