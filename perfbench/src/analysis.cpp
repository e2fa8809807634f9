#include "analysis.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <variant>

#include "net/message.hpp"
#include "query/federation.hpp"

namespace perfbench {

using namespace privtopk;

namespace {

/// Descriptors replayed through Federation::execute and localInput.
constexpr std::size_t kReplays = 48;
/// Messages decoded (then re-encoded) per timed codec batch.
constexpr std::size_t kCodecBatch = 256;

double mean(double sum, std::size_t n) {
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double msBetween(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) / 1e6;
}

double usBetween(std::int64_t fromNs, std::int64_t toNs) {
  return static_cast<double>(toNs - fromNs) / 1e3;
}

std::string format(double v) {
  std::ostringstream out;
  out.precision(6);
  out << v;
  return out.str();
}

std::int64_t counterTotal(const obs::MetricsSnapshot& snapshot,
                          const std::string& name) {
  std::int64_t total = 0;
  for (const auto& m : snapshot.metrics) {
    if (m.name == name) total += m.value;
  }
  return total;
}

double processThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stod(line.substr(8));
  }
  return 0.0;
}

/// (query id, node) -> indices into a record vector, in time order.
struct QueryNodeKey {
  std::uint64_t query = 0;
  NodeId node = 0;
  friend bool operator==(const QueryNodeKey&, const QueryNodeKey&) = default;
};
struct QueryNodeHash {
  std::size_t operator()(const QueryNodeKey& k) const {
    return std::hash<std::uint64_t>()(splitmix64(k.query) ^ k.node);
  }
};
using Index = std::unordered_map<QueryNodeKey, std::vector<std::size_t>,
                                 QueryNodeHash>;

/// The decoded view of the captured traffic.
struct Traffic {
  std::vector<SentRecord> sends;
  std::vector<ReceivedRecord> receives;
  std::vector<std::uint64_t> sendQuery;
  std::vector<std::size_t> paired;  ///< receive -> send
  Index sendsAt;                    ///< (query, sender) -> sends by start
  Index receivesAt;                 ///< (query, receiver) -> receives by time
  double encodeNs = 0.0;
  double decodeNs = 0.0;
  std::size_t payloadBytes = 0;
  std::size_t reencodedBytes = 0;
  std::size_t sizeMismatches = 0;
};

Traffic collect(Fleet& fleet) {
  Traffic t;
  for (const auto& capture : fleet.captures()) {
    auto sends = capture->takeSends();
    auto receives = capture->takeReceives();
    t.sends.insert(t.sends.end(), std::make_move_iterator(sends.begin()),
                   std::make_move_iterator(sends.end()));
    t.receives.insert(t.receives.end(), receives.begin(), receives.end());
  }
  // Decode every payload for its query id, timing decode and re-encode in
  // batches so the clock reads stay negligible next to the work.
  t.sendQuery.resize(t.sends.size());
  std::vector<net::Message> batch;
  batch.reserve(kCodecBatch);
  for (std::size_t begin = 0; begin < t.sends.size(); begin += kCodecBatch) {
    const std::size_t end = std::min(begin + kCodecBatch, t.sends.size());
    batch.clear();
    const std::int64_t d0 = nowNs();
    for (std::size_t i = begin; i < end; ++i) {
      batch.push_back(net::decodeMessage(t.sends[i].payload));
    }
    const std::int64_t d1 = nowNs();
    std::size_t encoded = 0;
    for (const auto& message : batch) {
      encoded += net::encodeMessage(message).size();
    }
    const std::int64_t e1 = nowNs();
    t.decodeNs += static_cast<double>(d1 - d0);
    t.encodeNs += static_cast<double>(e1 - d1);
    t.reencodedBytes += encoded;
    for (std::size_t i = begin; i < end; ++i) {
      t.payloadBytes += t.sends[i].payload.size();
      t.sendQuery[i] = std::visit([](const auto& m) { return m.queryId; },
                                  batch[i - begin]);
    }
  }

  std::vector<LinkEvent> sendEvents;
  sendEvents.reserve(t.sends.size());
  for (const auto& s : t.sends) {
    sendEvents.push_back({s.from, s.to, s.startNs});
  }
  std::vector<LinkEvent> receiveEvents;
  receiveEvents.reserve(t.receives.size());
  for (const auto& r : t.receives) {
    receiveEvents.push_back({r.from, r.to, r.atNs});
  }
  t.paired = pairFifo(sendEvents, receiveEvents);

  for (std::size_t i = 0; i < t.sends.size(); ++i) {
    t.sendsAt[{t.sendQuery[i], t.sends[i].from}].push_back(i);
  }
  for (std::size_t j = 0; j < t.receives.size(); ++j) {
    if (t.paired[j] == kUnpaired) continue;
    if (t.receives[j].bytes != t.sends[t.paired[j]].payload.size()) {
      ++t.sizeMismatches;
    }
    t.receivesAt[{t.sendQuery[t.paired[j]], t.receives[j].to}].push_back(j);
  }
  for (auto& [key, list] : t.sendsAt) {
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return t.sends[a].startNs < t.sends[b].startNs;
    });
  }
  for (auto& [key, list] : t.receivesAt) {
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      return t.receives[a].atNs < t.receives[b].atNs;
    });
  }
  return t;
}

/// The first send of `query` by `node` that starts at or after `atNs`
/// (kUnpaired when there is none).
std::size_t nextSend(const Traffic& t, std::uint64_t query, NodeId node,
                     std::int64_t atNs) {
  const auto it = t.sendsAt.find({query, node});
  if (it == t.sendsAt.end()) return kUnpaired;
  const auto next = std::lower_bound(
      it->second.begin(), it->second.end(), atNs,
      [&](std::size_t i, std::int64_t v) { return t.sends[i].startNs < v; });
  return next == it->second.end() ? kUnpaired : *next;
}

/// One execution's critical path, walked backwards from future-ready and
/// split into the spans the layer metrics report: completion (the
/// initiator's last receive -> ready), transport hops (send() start ->
/// paired receive() return), service hop-self spans (a receive -> the
/// node's next send for the query) and initiation (initiate -> the
/// initiator's first send).  Whatever these spans leave uncovered -- a
/// node that sends again without receiving in between, or a walk that
/// loses the path -- is unattributed.
struct PathSplit {
  double transportNs = 0.0;
  double serviceNs = 0.0;  ///< completion, hop-self spans and initiation
  bool complete = false;
};

PathSplit walkCriticalPath(const Traffic& t, const ExecRecord& exec) {
  PathSplit split;
  NodeId node = exec.initiator;
  // The last receive at `node` at or before `atNs` (and after the query
  // began), or kUnpaired.
  const auto lastReceive = [&](std::int64_t atNs) {
    const auto it = t.receivesAt.find({exec.queryId, node});
    if (it == t.receivesAt.end()) return kUnpaired;
    const auto pos = std::upper_bound(
        it->second.begin(), it->second.end(), atNs,
        [&](std::int64_t v, std::size_t j) { return v < t.receives[j].atNs; });
    if (pos == it->second.begin() ||
        t.receives[*std::prev(pos)].atNs < exec.startNs) {
      return kUnpaired;
    }
    return *std::prev(pos);
  };
  std::size_t receive = lastReceive(exec.readyNs);
  if (receive == kUnpaired) return split;
  split.serviceNs += static_cast<double>(exec.readyNs - t.receives[receive].atNs);
  for (;;) {
    const ReceivedRecord& r = t.receives[receive];
    const SentRecord& s = t.sends[t.paired[receive]];
    // A receive before its send means the pairing is wrong; stop rather
    // than walk forward in time.
    if (s.startNs >= r.atNs) return split;
    split.transportNs += static_cast<double>(r.atNs - s.startNs);
    node = s.from;
    receive = lastReceive(s.startNs);
    if (receive == kUnpaired && node != exec.initiator) return split;
    const std::int64_t spanStart =
        receive == kUnpaired ? exec.startNs : t.receives[receive].atNs;
    // The span ends at the node's first send after spanStart; a later send
    // on the path leaves the gap between the two unattributed.
    const std::size_t first = nextSend(t, exec.queryId, node, spanStart);
    if (first != kUnpaired && t.sends[first].startNs <= s.startNs) {
      split.serviceNs += static_cast<double>(t.sends[first].startNs - spanStart);
    }
    if (receive == kUnpaired) {
      split.complete = true;
      return split;
    }
  }
}

/// `gateLayerSum`: the layer-sum tolerance is enforced (paper-tcp).
void addLayerMetrics(Report& report, Bench& bench,
                     const std::vector<Question>& pool,
                     const PhaseResult& traced, bool gateLayerSum) {
  Traffic t = collect(bench.fleet());
  const std::size_t queries = traced.execs.size();
  // Count only the live phase's traffic (the capture also saw warm-up).
  std::int64_t windowStart = std::numeric_limits<std::int64_t>::max();
  std::int64_t windowEnd = 0;
  for (const auto& e : traced.execs) {
    windowStart = std::min(windowStart, e.startNs);
    windowEnd = std::max(windowEnd, e.readyNs);
  }
  const auto inWindow = [&](const SentRecord& s) {
    return s.startNs >= windowStart && s.startNs <= windowEnd;
  };
  std::vector<double> sendUs;
  std::vector<double> hopUs;
  std::vector<double> hopSelfUs;
  std::size_t sendCount = 0;
  std::size_t sendBytes = 0;
  for (const auto& s : t.sends) {
    if (!inWindow(s)) continue;
    ++sendCount;
    sendBytes += s.payload.size();
    sendUs.push_back(usBetween(s.startNs, s.endNs));
  }
  std::size_t pairedCount = 0;
  for (std::size_t j = 0; j < t.receives.size(); ++j) {
    if (t.paired[j] == kUnpaired || !inWindow(t.sends[t.paired[j]])) continue;
    ++pairedCount;
    const SentRecord& s = t.sends[t.paired[j]];
    const ReceivedRecord& r = t.receives[j];
    hopUs.push_back(usBetween(s.startNs, r.atNs));
    // Hop-self: this receive's return to the receiver's next send for the
    // same query.
    const std::size_t next = nextSend(t, t.sendQuery[t.paired[j]], r.to, r.atNs);
    if (next != kUnpaired) {
      hopSelfUs.push_back(usBetween(r.atNs, t.sends[next].startNs));
    }
  }
  std::size_t overloads = 0;
  for (const auto& c : bench.fleet().captures()) {
    overloads += c->overloadErrors();
  }

  std::vector<double> execMs;
  for (const auto& e : traced.execs) {
    execMs.push_back(msBetween(e.startNs, e.readyNs));
  }
  std::vector<double> execSorted = execMs;
  const double execP50 = percentile(execSorted, 0.5).value;

  report.addPercentile("service.exec_p50_ms", execMs, 0.5, "ms");
  report.addPercentile("service.exec_p99_ms", execMs, 0.99, "ms");
  report.addPercentile("service.hop_self_p50_us", hopSelfUs, 0.5, "us");
  report.addPercentile("service.hop_self_p99_us", hopSelfUs, 0.99, "us");
  report.add("service.hops_per_query",
             mean(static_cast<double>(pairedCount), queries), "count");
  report.addPercentile("transport.send_p50_us", sendUs, 0.5, "us");
  report.addPercentile("transport.send_p99_us", sendUs, 0.99, "us");
  report.addPercentile("transport.hop_p50_us", hopUs, 0.5, "us");
  report.addPercentile("transport.hop_p99_us", hopUs, 0.99, "us");
  report.add("transport.sends_per_query",
             mean(static_cast<double>(sendCount), queries), "count");
  report.add("transport.bytes_per_send",
             mean(static_cast<double>(sendBytes), sendCount), "bytes");
  report.add("transport.overload_errors", static_cast<double>(overloads),
             "count");
  report.add("codec.encode_us", mean(t.encodeNs / 1e3, t.sends.size()), "us");
  report.add("codec.decode_us", mean(t.decodeNs / 1e3, t.sends.size()), "us");
  report.add("codec.bytes_per_message",
             mean(static_cast<double>(t.payloadBytes), t.sends.size()),
             "bytes");
  report.add("codec.messages_per_query",
             mean(static_cast<double>(sendCount), queries), "count");
  report.notes.push_back("trace: " + std::to_string(sendCount) + " sends, " +
                         std::to_string(pairedCount) + " paired receives, " +
                         std::to_string(t.sizeMismatches) +
                         " pairs with mismatched payload sizes");
  if (t.reencodedBytes != t.payloadBytes) {
    report.violations.push_back(
        "re-encoding the captured messages gave " +
        std::to_string(t.reencodedBytes) + " bytes, not " +
        std::to_string(t.payloadBytes));
  }

  // Layer sum over flat executions (grouped ones change query ids between
  // phases, so their path cannot be followed by id).
  double execNs = 0.0;
  double transportNs = 0.0;
  double serviceNs = 0.0;
  std::size_t walked = 0;
  std::size_t incomplete = 0;
  for (const auto& e : traced.execs) {
    if (pool[e.question].descriptor.groupSize != 0) continue;
    const PathSplit split = walkCriticalPath(t, e);
    ++walked;
    if (!split.complete) ++incomplete;
    execNs += static_cast<double>(e.readyNs - e.startNs);
    transportNs += split.transportNs;
    serviceNs += split.serviceNs;
  }
  const double unattributedPct =
      execNs > 0 ? 100.0 * (execNs - transportNs - serviceNs) / execNs : 0.0;
  report.add("trace.unattributed_pct", unattributedPct, "%");
  report.add("trace.path_transport_pct",
             execNs > 0 ? 100.0 * transportNs / execNs : 0.0, "%");
  report.add("trace.path_service_pct",
             execNs > 0 ? 100.0 * serviceNs / execNs : 0.0, "%");
  report.notes.push_back("layer sum: " + std::to_string(walked) +
                         " flat executions walked, " +
                         std::to_string(incomplete) +
                         " incomplete paths, unattributed " +
                         format(unattributedPct) + "% (tolerance " +
                         format(kLayerSumTolerancePct) + "%" +
                         (gateLayerSum ? ")" : ", not enforced here)"));
  if (gateLayerSum && walked > 0 &&
      std::abs(unattributedPct) > kLayerSumTolerancePct) {
    report.violations.push_back("layer sum misses service.exec by " +
                                format(unattributedPct) + "%");
  }

  // Protocol and data layers: replay evenly spaced recorded descriptors
  // off the live path.
  const auto& tables = bench.fleet().tables();
  const query::Federation federation(tables);
  double runnerUs = 0.0;
  double rounds = 0.0;
  double messages = 0.0;
  double localUs = 0.0;
  std::size_t localCalls = 0;
  std::size_t replays = 0;
  std::size_t rowsScanned = 0;
  for (const auto& db : tables) rowsScanned += db.table(kTable).rowCount();
  const std::size_t stride = std::max<std::size_t>(1, queries / kReplays);
  for (std::size_t i = 0; i < queries && replays < kReplays; i += stride) {
    query::QueryDescriptor d = pool[traced.execs[i].question].descriptor;
    d.queryId = traced.execs[i].queryId;
    Rng rng(splitmix64(d.queryId));
    const std::int64_t r0 = nowNs();
    const query::QueryOutcome outcome = federation.execute(d, rng);
    runnerUs += usBetween(r0, nowNs());
    rounds += static_cast<double>(outcome.rounds);
    messages += static_cast<double>(outcome.messages);
    for (const auto& db : tables) {
      const query::LocalParty party(db);
      const std::int64_t l0 = nowNs();
      if (d.isAggregate()) {
        (void)party.localAggregate(d);
      } else {
        (void)party.localInput(d);
      }
      localUs += usBetween(l0, nowNs());
      ++localCalls;
    }
    ++replays;
  }
  const double runnerPerQuery = mean(runnerUs, replays);
  report.add("protocol.runner_us_per_query", runnerPerQuery, "us");
  report.add("protocol.rounds_per_query", mean(rounds, replays), "count");
  report.add("protocol.messages_per_query", mean(messages, replays), "count");
  report.add("protocol.compute_share",
             execP50 > 0 ? runnerPerQuery / 1e3 / execP50 : 0.0, "ratio");
  report.add("data.local_input_us", mean(localUs, localCalls), "us");
  report.add("data.rows_scanned_per_query", static_cast<double>(rowsScanned),
             "count");
  report.notes.push_back("replayed " + std::to_string(replays) +
                         " descriptors through Federation::execute");
}

void addGatewayMetrics(Report& report, const std::vector<Question>& pool,
                       const PhaseResult& traced) {
  const auto& a = traced.gatewayAfter;
  const auto& b = traced.gatewayBefore;
  const double requests = static_cast<double>(traced.attempted);
  const auto delta = [&](std::uint64_t after, std::uint64_t before) {
    return requests > 0 ? static_cast<double>(after - before) / requests : 0.0;
  };
  if (traced.calls.empty()) {
    report.notes.push_back("gateway: absent on this workload");
  }
  report.add("gateway.hit_ratio", delta(a.hits, b.hits), "ratio");
  report.add("gateway.coalesced_ratio", delta(a.coalesced, b.coalesced),
             "ratio");
  report.add("gateway.executions_per_request",
             delta(a.executions, b.executions), "ratio");
  report.add("gateway.shed_ratio",
             delta(a.shedRateLimit + a.shedQueueFull,
                   b.shedRateLimit + b.shedQueueFull),
             "ratio");

  // Calls are leaders (ran the executor), coalesced waiters (arrived while
  // a flight of the same cache key was open) or hits.  Self time covers
  // leaders (call minus executor) and hits (the whole call).
  std::map<std::string, std::size_t> keyIds;
  std::vector<std::size_t> keyOf(pool.size());
  for (std::size_t q = 0; q < pool.size(); ++q) {
    const Bytes key = query::normalizedForCaching(pool[q].descriptor).encode();
    keyOf[q] =
        keyIds.emplace(std::string(key.begin(), key.end()), keyIds.size())
            .first->second;
  }
  std::unordered_map<std::size_t, const ExecRecord*> execOfRequest;
  for (const auto& e : traced.execs) execOfRequest[e.request] = &e;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> flights(
      keyIds.size());
  std::vector<double> selfUs;
  std::vector<double> queueWaitMs;
  for (const auto& c : traced.calls) {
    if (!c.leader) continue;
    const auto it = execOfRequest.find(c.request);
    if (it == execOfRequest.end()) continue;
    const ExecRecord& e = *it->second;
    flights[keyOf[c.question]].push_back({c.callNs, e.readyNs});
    selfUs.push_back(usBetween(c.callNs, c.returnNs) -
                     usBetween(e.startNs, e.readyNs));
    queueWaitMs.push_back(msBetween(c.callNs, e.startNs));
  }
  for (auto& f : flights) std::sort(f.begin(), f.end());
  for (const auto& c : traced.calls) {
    if (c.leader) continue;
    const auto& f = flights[keyOf[c.question]];
    const auto pos = std::upper_bound(
        f.begin(), f.end(),
        std::pair{c.callNs, std::numeric_limits<std::int64_t>::max()});
    const bool coalesced =
        pos != f.begin() && std::prev(pos)->second >= c.callNs;
    if (!coalesced) selfUs.push_back(usBetween(c.callNs, c.returnNs));
  }
  report.addPercentile("gateway.self_p50_us", selfUs, 0.5, "us");
  report.addPercentile("gateway.self_p99_us", selfUs, 0.99, "us");
  report.addPercentile("gateway.queue_wait_p99_ms", queueWaitMs, 0.99, "ms");
}

}  // namespace

void Report::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Report::addPercentile(const std::string& name, std::vector<double> samples,
                           double q, const std::string& unit) {
  const Percentile p = percentile(samples, q);
  add(name, p.value, unit);
  if (p.samples == 0) {
    notes.push_back(name + ": no samples, the layer is absent here");
    return;
  }
  notes.push_back(name + " = " + format(p.value) + " " + unit + " (n=" +
                  std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
                  " beyond)");
  if (!p.reportable()) {
    violations.push_back(name + " has only " + std::to_string(p.beyond) +
                         " samples beyond it (need " +
                         std::to_string(kMinBeyond) + ")");
  }
}

namespace {

/// A request's latency tagged with the steal rank of the worst slice its
/// lifetime overlapped.
struct RankedSample {
  std::size_t worstRank = 0;
  double ms = 0.0;
};

/// The slices of a measured run (between two host samples, over every
/// round) in increasing order of stolen CPU time, and every answered
/// request tagged by RankedSample.
struct SliceRanking {
  std::vector<double> stealPct;          ///< by rank
  std::vector<double> seconds;           ///< by rank
  /// By rank: process CPU less the load generator's share of its round's
  /// load-generator CPU, in proportion to the slice's length.
  std::vector<double> systemCpuMs;
  std::vector<std::size_t> answeredIn;   ///< by rank: requests returned
  std::vector<RankedSample> latency;     ///< sorted by worstRank
  std::vector<RankedSample> execLatency; ///< sorted by worstRank
};

SliceRanking rankSlices(const std::vector<PhaseResult>& rounds) {
  std::vector<double> steal;
  std::vector<double> seconds;
  std::vector<double> systemCpu;
  std::vector<std::size_t> firstSlice;  // of each round
  for (const auto& round : rounds) {
    const auto& samples = round.hostSamples;
    firstSlice.push_back(steal.size());
    const auto roundNs =
        static_cast<double>(samples.back().atNs - samples.front().atNs);
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const double total =
          samples[i].totalJiffies - samples[i - 1].totalJiffies;
      steal.push_back(total > 0 ? 100.0 *
                                      (samples[i].stealJiffies -
                                       samples[i - 1].stealJiffies) /
                                      total
                                : 0.0);
      const auto sliceNs =
          static_cast<double>(samples[i].atNs - samples[i - 1].atNs);
      seconds.push_back(sliceNs / 1e9);
      systemCpu.push_back(samples[i].processCpuMs -
                          samples[i - 1].processCpuMs -
                          round.loadgenCpuMs * sliceNs / roundNs);
    }
  }
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::vector<std::size_t> rank(steal.size());
  SliceRanking out;
  out.answeredIn.assign(steal.size(), 0);
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = r;
    out.stealPct.push_back(steal[order[r]]);
    out.seconds.push_back(seconds[order[r]]);
    out.systemCpuMs.push_back(systemCpu[order[r]]);
  }
  for (std::size_t ri = 0; ri < rounds.size(); ++ri) {
    const auto& samples = rounds[ri].hostSamples;
    if (samples.size() < 2) continue;
    // The round's slice [samples[i], samples[i + 1]) holding `ns`, clamped
    // to the round's first and last slice.
    const auto sliceAt = [&](std::int64_t ns) {
      const auto it = std::upper_bound(
          samples.begin(), samples.end(), ns,
          [](std::int64_t v, const HostSample& s) { return v < s.atNs; });
      const auto i = static_cast<std::size_t>(it - samples.begin());
      return firstSlice[ri] + std::clamp<std::size_t>(i, 1, samples.size() - 1) - 1;
    };
    const auto tag = [&](const std::vector<double>& ms,
                         const std::vector<std::int64_t>& endNs,
                         std::vector<RankedSample>& into, bool count) {
      for (std::size_t i = 0; i < ms.size(); ++i) {
        const std::size_t last = sliceAt(endNs[i]);
        std::size_t worst = rank[last];
        for (std::size_t s = sliceAt(endNs[i] - static_cast<std::int64_t>(
                                                    ms[i] * 1e6));
             s < last; ++s) {
          worst = std::max(worst, rank[s]);
        }
        into.push_back(RankedSample{worst, ms[i]});
        if (count) ++out.answeredIn[rank[last]];
      }
    };
    tag(rounds[ri].latencyMs, rounds[ri].latencyEndNs, out.latency, true);
    tag(rounds[ri].execLatencyMs, rounds[ri].execEndNs, out.execLatency,
        false);
  }
  const auto byRank = [](const RankedSample& a, const RankedSample& b) {
    return a.worstRank < b.worstRank;
  };
  std::stable_sort(out.latency.begin(), out.latency.end(), byRank);
  std::stable_sort(out.execLatency.begin(), out.execLatency.end(), byRank);
  return out;
}

/// Adds percentile `q` of the requests that overlapped only the `kept`
/// least-stolen of `slices` slices, taking in further slices until the
/// percentile is reportable.
void addRankedPercentile(Report& report, const std::string& name,
                         const std::vector<RankedSample>& samples,
                         std::size_t kept, std::size_t slices, double q) {
  std::vector<double> pooled;
  std::size_t next = 0;
  std::size_t used = kept;
  for (;; ++used) {
    while (next < samples.size() && samples[next].worstRank < used) {
      pooled.push_back(samples[next++].ms);
    }
    std::vector<double> probe = pooled;
    if (used >= slices || percentile(probe, q).reportable()) break;
  }
  report.notes.push_back(name + " pools the requests that overlapped only the " +
                         std::to_string(used) + " least-stolen of " +
                         std::to_string(slices) + " slices");
  report.addPercentile(name, std::move(pooled), q, "ms");
}

}  // namespace

Report endToEnd(const std::vector<PhaseResult>& rounds,
                const std::vector<double>& setupSeconds) {
  Report report;
  // The timing figures use the slices the hypervisor disturbed least:
  // stolen CPU time slows every layer at once and says nothing about the
  // program.
  const SliceRanking ranking = rankSlices(rounds);
  const std::size_t slices = ranking.stealPct.size();
  // The least-stolen share, and every slice that ties with its last.
  auto kept = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(kKeptSliceShare * static_cast<double>(slices))),
      1, std::max<std::size_t>(slices, 1));
  while (kept < slices &&
         ranking.stealPct[kept] <= ranking.stealPct[kept - 1]) {
    ++kept;
  }
  double keptSeconds = 0.0;
  double keptAnswered = 0.0;
  double keptCpuMs = 0.0;
  for (std::size_t r = 0; r < std::min(kept, slices); ++r) {
    keptSeconds += ranking.seconds[r];
    keptAnswered += static_cast<double>(ranking.answeredIn[r]);
    keptCpuMs += ranking.systemCpuMs[r];
  }
  report.add("throughput_qps",
             keptSeconds > 0 ? keptAnswered / keptSeconds : 0.0, "1/s");
  addRankedPercentile(report, "p50_ms", ranking.latency, kept, slices, 0.5);
  addRankedPercentile(report, "p99_ms", ranking.latency, kept, slices, 0.99);
  addRankedPercentile(report, "exec_p99_ms", ranking.execLatency, kept,
                      slices, 0.99);

  std::vector<double> rss;
  PhaseResult all;
  for (const auto& r : rounds) {
    rss.push_back(r.rssMb);
    all.attempted += r.attempted;
    all.answered += r.answered;
    all.precisionSum += r.precisionSum;
    all.precisionCount += r.precisionCount;
    all.wireBytes += r.wireBytes;
    all.loadgenCpuMs += r.loadgenCpuMs;
    all.lateMs.insert(all.lateMs.end(), r.lateMs.begin(), r.lateMs.end());
  }
  const double answered = static_cast<double>(all.answered);
  report.add("answered_ratio",
             all.attempted > 0 ? answered / static_cast<double>(all.attempted)
                               : 0.0,
             "ratio");
  report.add("precision", mean(all.precisionSum, all.precisionCount), "ratio");
  report.add("cpu_ms_per_query", keptAnswered > 0 ? keptCpuMs / keptAnswered : 0.0,
             "ms");
  report.add("wire_bytes_per_query",
             mean(static_cast<double>(all.wireBytes), all.answered), "bytes");
  report.add("rss_mb", median(rss), "MiB");
  report.add("setup_s", median(setupSeconds), "s");
  const auto list = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) out.append(" ").append(format(v));
    return out;
  };
  std::vector<double> steal;
  for (const auto& r : rounds) steal.push_back(r.stealPct);
  report.notes.push_back("host CPU steal per round (%)" + list(steal));
  report.notes.push_back(
      "throughput_qps and cpu_ms_per_query count the " + std::to_string(kept) +
      " least-stolen of " + std::to_string(slices) + " slices (at most " +
      format(slices == 0 ? 0.0 : ranking.stealPct[kept - 1]) + "% steal)");
  report.notes.push_back("setup_s is the median of" + list(setupSeconds));
  report.notes.push_back("loadgen cpu " + format(all.loadgenCpuMs) +
                         " ms, excluded from cpu_ms_per_query");
  if (!all.lateMs.empty()) {
    const Percentile p = percentile(all.lateMs, 0.99);
    report.notes.push_back("generator lateness p99 " + format(p.value) +
                           " ms (n=" + std::to_string(p.samples) + ")");
  }
  return report;
}

Report perLayer(Bench& bench, const WorkloadSpec& spec,
                const std::vector<Question>& pool, PhaseResult& traced,
                double untracedP50Ms, const obs::MetricsSnapshot& before,
                const obs::MetricsSnapshot& after) {
  Report report;
  addGatewayMetrics(report, pool, traced);
  addLayerMetrics(report, bench, pool, traced, spec.name == "paper-tcp");
  const double queries = static_cast<double>(traced.execs.size());
  const auto counterDelta = [&](const std::string& name) {
    return static_cast<double>(counterTotal(after, name) -
                               counterTotal(before, name));
  };
  report.add("service.retransmits_per_query",
             queries > 0
                 ? counterDelta("privtopk.query.retransmits") / queries
                 : 0.0,
             "count");
  report.add("service.admission_rejects",
             counterDelta("privtopk.query.admissions_rejected"), "count");
  report.add("proc.threads", processThreads(), "count");
  if (spec.gateway) {
    report.addPercentile("loadgen.late_p99_ms", traced.lateMs, 0.99, "ms");
  } else {
    report.add("loadgen.late_p99_ms", 0.0, "ms");
    report.notes.push_back("loadgen.late_p99_ms: closed loop, no due times");
  }
  report.add("loadgen.cpu_ms", traced.loadgenCpuMs, "ms");
  std::vector<double> latency = traced.latencyMs;
  const double tracedP50 = percentile(latency, 0.5).value;
  report.add("trace.overhead_pct",
             untracedP50Ms > 0
                 ? 100.0 * (tracedP50 - untracedP50Ms) / untracedP50Ms
                 : 0.0,
             "%");
  report.notes.push_back("p50 traced " + format(tracedP50) +
                         " ms vs untraced " + format(untracedP50Ms) + " ms");
  return report;
}

double rssMb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
