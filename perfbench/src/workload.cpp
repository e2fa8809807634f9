#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "data/distribution.hpp"
#include "data/generator.hpp"
#include "protocol/mechanism.hpp"
#include "query/federation.hpp"

namespace perfbench {

using namespace privtopk;
using query::QueryDescriptor;
using query::QueryType;

namespace {

/// Load-generator threads: the machine's core count, and never more.
constexpr std::size_t kCallers = 4;
/// zipf-gateway: requests between two bumpDataEpoch() calls.
constexpr std::size_t kBumpEvery = 128;
constexpr std::size_t kTenants = 6;
/// Failure messages kept for the report.
constexpr std::size_t kKeptFailures = 5;
constexpr auto kQueryTimeout = std::chrono::seconds(30);

double cpuMs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}
double threadCpuMs() { return cpuMs(CLOCK_THREAD_CPUTIME_ID); }
double processCpuMs() { return cpuMs(CLOCK_PROCESS_CPUTIME_ID); }

/// Total and stolen jiffies of all CPUs, from /proc/stat (user through
/// steal; the guest fields are already counted in user and nice).
std::pair<double, double> cpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(stat >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

/// Samples the host CPU counters on its own thread every kSliceNs until
/// stopped.
class HostSampler {
 public:
  HostSampler() : thread_([this] { loop(); }) {}
  ~HostSampler() { stop(); }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  /// Takes a last sample, joins the thread and returns every sample.
  std::vector<HostSample> stop() {
    {
      const std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable()) thread_.join();
    return std::move(samples_);
  }
  /// The sampler thread's own CPU time (valid after stop()).
  [[nodiscard]] double cpuMs() const { return cpuMs_; }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    auto next = std::chrono::steady_clock::now();
    for (;;) {
      const auto [total, steal] = cpuJiffies();
      samples_.push_back(HostSample{nowNs(), total, steal, processCpuMs()});
      if (stopping_) break;
      next += std::chrono::nanoseconds(kSliceNs);
      wake_.wait_until(lock, next, [&] { return stopping_; });
    }
    cpuMs_ = threadCpuMs();
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<HostSample> samples_;
  double cpuMs_ = 0.0;
  std::thread thread_;  // last: it runs loop(), which uses the rest
};

QueryDescriptor baseDescriptor() {
  QueryDescriptor d;
  d.tableName = kTable;
  d.attribute = kValue;
  return d;
}

Question rankedQuestion(QueryType type, protocol::MechanismKind mechanism,
                        std::size_t k) {
  Question q;
  q.descriptor = baseDescriptor();
  q.descriptor.type = type;
  q.descriptor.params.k = k;
  q.descriptor.params.mechanism.kind = mechanism;
  // The schedule and ldp top-k answers are randomized: sound, not exact.
  // A schedule Max misses the maximum only when its holder randomizes in
  // every round, which Eq. 4 bounds by epsilon; at the default 1e-3 a run
  // of a thousand Max queries would see a miss, so Max asks for 1e-9
  // (9 rounds instead of 5) and is then held to the exact answer.
  if (type == QueryType::Max) q.descriptor.params.epsilon = 1e-9;
  const bool exact = mechanism == protocol::MechanismKind::Segmented ||
                     type == QueryType::Max;
  q.contract = exact ? Contract::Exact : Contract::Sound;
  q.slack = protocol::makeMechanism(q.descriptor.params.mechanism)
                ->soundnessSlack(q.descriptor.params);
  return q;
}

/// paper-tcp and zipf-gateway: 7 in 10 Eq.-2 schedule top-k, then one
/// each of segmented, ldp and Max; k around 10, p0 = 1, d = 1/2 and the
/// round budget from Eq. 4 (the ProtocolParams defaults).  k is a function
/// of the slot, not the seed, so every seed asks an equally costly mix;
/// the schedule slots of a block of ten get distinct k (6..12) so that,
/// with the per-block region filter of the gateway pool, no two questions
/// share a cache key.
Question smallQuestion(std::size_t slot) {
  using protocol::MechanismKind;
  const std::size_t k = 8 + (slot / 10) % 5;
  switch (slot % 10) {
    case 7: return rankedQuestion(QueryType::TopK, MechanismKind::Segmented, k);
    case 8: return rankedQuestion(QueryType::TopK, MechanismKind::Ldp, k);
    case 9: return rankedQuestion(QueryType::Max, MechanismKind::Schedule, 1);
    default:
      return rankedQuestion(QueryType::TopK, MechanismKind::Schedule,
                            6 + slot % 10);
  }
}

/// bulk-inproc: per block of 8, four flat schedule top-k, one §4.2
/// grouped (groupSize 3), one segmented, one Sum and one Average; k spread
/// over [100, 300] by slot.  Two slots of every block carry a filter,
/// rotating over the block's slots, so a quarter of the pool is filtered;
/// the seed picks only the region a region filter selects, so every seed's
/// pool costs the same.
Question bulkQuestion(std::size_t slot, Rng& rng) {
  using protocol::MechanismKind;
  const std::size_t k = 100 + (slot * 37) % 201;
  Question q;
  switch (slot % 8) {
    case 2:
      q = rankedQuestion(QueryType::TopK, MechanismKind::Schedule, k);
      q.descriptor.groupSize = 3;
      break;
    case 3:
      q = rankedQuestion(QueryType::TopK, MechanismKind::Segmented, k);
      break;
    case 5:
    case 7:
      q.descriptor = baseDescriptor();
      q.descriptor.type = slot % 8 == 5 ? QueryType::Sum : QueryType::Average;
      break;
    default: q = rankedQuestion(QueryType::TopK, MechanismKind::Schedule, k);
  }
  if (slot % 4 == (slot / 8) % 4) {
    query::FilterClause clause;
    if (slot % 2 == 0) {
      clause = {kRegion, query::FilterOp::Eq, rng.uniformInt(0, kRegions - 1)};
    } else {
      clause = {kValue, query::FilterOp::Le,
                static_cast<Value>(2000 + 1000 * ((slot / 8) % 8))};
    }
    q.descriptor.filter = query::Filter({clause});
  }
  return q;
}

/// What the calling thread passes to the gateway's executor, which runs
/// on the same thread when that call leads a flight.
struct CallerContext {
  std::vector<ExecRecord>* execs = nullptr;
  std::size_t question = 0;
  bool led = false;
};
thread_local CallerContext* tlsCaller = nullptr;

void noteFailure(PhaseResult& r, const std::string& why) {
  if (r.failures.size() < kKeptFailures) r.failures.push_back(why);
}

/// Checks and tallies one returned answer.  `latencyMs` runs from the
/// call (closed loop) or the due time (open loop) to the return; an
/// execution's `execLatencyMs` runs from the call, so a late generator
/// moves loadgen.late_p99_ms and p99_ms but not exec_p99_ms.
void tallyAnswer(PhaseResult& r, const Question& q, const TopKVector& answer,
                 double latencyMs, double execLatencyMs, std::int64_t endNs,
                 bool executed) {
  const Verdict v = checkAnswer(q, answer);
  if (!v.ok) {
    ++r.wrong;
    std::string got;
    for (Value x : answer) got.append(" ").append(std::to_string(x));
    std::string want;
    for (Value x : q.truth) want.append(" ").append(std::to_string(x));
    noteFailure(r, "wrong answer to " +
                       std::string(toString(q.descriptor.type)) + "/" +
                       toString(q.descriptor.params.mechanism.kind) + " k=" +
                       std::to_string(q.descriptor.effectiveK()) + ": " +
                       v.why + "; got" + got + "; want" + want);
    return;
  }
  ++r.answered;
  r.latencyMs.push_back(latencyMs);
  r.latencyEndNs.push_back(endNs);
  if (executed) {
    r.execLatencyMs.push_back(execLatencyMs);
    r.execEndNs.push_back(endNs);
  }
  if (!q.descriptor.isAggregate()) {
    r.precisionSum += v.precision;
    ++r.precisionCount;
  }
}

void mergeInto(PhaseResult& into, PhaseResult&& part) {
  into.attempted += part.attempted;
  into.answered += part.answered;
  into.wrong += part.wrong;
  into.errors += part.errors;
  for (auto& f : part.failures) noteFailure(into, f);
  auto append = [](auto& dst, auto& src) {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  };
  append(into.latencyMs, part.latencyMs);
  append(into.latencyEndNs, part.latencyEndNs);
  append(into.execLatencyMs, part.execLatencyMs);
  append(into.execEndNs, part.execEndNs);
  append(into.lateMs, part.lateMs);
  append(into.execs, part.execs);
  append(into.calls, part.calls);
  into.precisionSum += part.precisionSum;
  into.precisionCount += part.precisionCount;
  into.loadgenCpuMs += part.loadgenCpuMs;
}

}  // namespace

/// One caller thread's share of a phase, merged after the join.  Its own
/// CPU outside the calls into the system is the load generator's.
struct CallerTally {
  PhaseResult part;
  double cpuMarkMs = 0.0;  ///< thread CPU when the last call returned

  /// Charges the CPU since the last call to the load generator.
  void enterCall() { part.loadgenCpuMs += threadCpuMs() - cpuMarkMs; }
  void leaveCall() { cpuMarkMs = threadCpuMs(); }
};

namespace {

PhaseResult mergeTallies(std::vector<CallerTally>& tallies) {
  PhaseResult r;
  for (auto& tally : tallies) mergeInto(r, std::move(tally.part));
  return r;
}

}  // namespace

WorkloadSpec workloadSpec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "paper-tcp") {
    s.tcp = true;
    s.rowsPerNode = 1000;
    s.poolSize = 60;
  } else if (name == "bulk-inproc") {
    s.rowsPerNode = 50'000;
    s.poolSize = 64;
  } else if (name == "zipf-gateway") {
    s.tcp = true;
    s.rowsPerNode = 1000;
    s.gateway = true;
    s.poolSize = 120;
    s.rate = 600.0;
  } else {
    throw ConfigError("unknown workload '" + name + "'");
  }
  return s;
}

std::uint64_t tableSeed(std::uint64_t seed) {
  return splitmix64(seed ^ 0xda7aULL);
}

std::vector<Question> makePool(const WorkloadSpec& spec, std::uint64_t seed) {
  Rng rng(splitmix64(seed ^ 0x9001ULL));
  std::vector<Question> pool;
  for (std::size_t slot = 0; slot < spec.poolSize; ++slot) {
    pool.push_back(spec.rowsPerNode > 10'000 ? bulkQuestion(slot, rng)
                                             : smallQuestion(slot));
    if (spec.gateway) {
      // One region per block of ten: distinct cache keys for the Zipf pool.
      const auto region = static_cast<Value>(slot / 10) % kRegions;
      pool.back().descriptor.filter =
          query::Filter({{kRegion, query::FilterOp::Eq, region}});
    }
  }
  // Zipf ranks follow pool order, which cycles through the question kinds
  // every ten slots, and the closed loops walk the pool in slot order: so
  // every seed gives each kind the same popularity and asks the kinds in
  // the same sequence.
  return pool;
}

void computeTruths(std::vector<Question>& pool,
                   const std::vector<data::PrivateDatabase>& tables) {
  for (Question& q : pool) {
    const QueryDescriptor& d = q.descriptor;
    if (d.isAggregate()) {
      std::int64_t sum = 0;
      std::int64_t rows = 0;
      const auto predicate = d.filter.predicate();
      for (const auto& db : tables) {
        const data::Table& table = db.table(d.tableName);
        const auto& column = table.intColumn(d.attribute);
        for (std::size_t row = 0; row < column.size(); ++row) {
          if (predicate && !predicate(table, row)) continue;
          sum += column[row];
          ++rows;
        }
      }
      q.truth = d.type == QueryType::Sum ? TopKVector{sum}
                                         : TopKVector{sum, rows};
      continue;
    }
    std::vector<TopKVector> perNode;
    for (const auto& db : tables) {
      perNode.push_back(query::LocalParty(db).localInput(d));
    }
    q.truth = data::trueTopK(perNode, d.effectiveK());
  }
}

Verdict checkAnswer(const Question& question, const TopKVector& answer) {
  if (question.descriptor.isAggregate()) {
    return checkAggregate(answer, question.truth);
  }
  return checkRanked(answer, question.truth, question.contract, question.slack);
}

Bench::Bench(const WorkloadSpec& spec, std::uint64_t seed, bool capture)
    : spec_(spec), seed_(seed) {
  fleet_ = std::make_unique<Fleet>(
      generateTables(spec.rowsPerNode, tableSeed(seed)), spec.tcp,
      capture, seed);
  fleet_->warmUp();
  if (spec.gateway) {
    gateway_ = std::make_unique<query::Gateway>(
        [this](const QueryDescriptor& d, Rng&) {
          CallerContext* caller = tlsCaller;
          caller->led = true;
          query::QueryOutcome outcome;
          // The leader's request index rides in the descriptor's nonce.
          outcome.values =
              execute(d, caller->question, d.queryId - 1, caller->execs);
          return outcome;
        },
        splitmix64(seed ^ 0x6a7eULL));
  }
}

TopKVector Bench::execute(QueryDescriptor descriptor, std::size_t question,
                          std::size_t request,
                          std::vector<ExecRecord>* execs) {
  descriptor.queryId = nextQueryId_.fetch_add(1);
  phaseExecutions_.fetch_add(1);
  const auto initiator = static_cast<NodeId>(descriptor.queryId % kNodes);
  ExecRecord record{descriptor.queryId, initiator, question, nowNs(), 0,
                    request};
  auto future =
      fleet_->node(initiator).initiate(descriptor, ringFrom(initiator));
  if (future.wait_for(kQueryTimeout) != std::future_status::ready) {
    throw TransportError("query " + std::to_string(descriptor.queryId) +
                         " timed out");
  }
  TopKVector answer = future.get();
  record.readyNs = nowNs();
  if (execs != nullptr) execs->push_back(record);
  return answer;
}

bool Bench::spent(std::int64_t deadlineNs) const {
  return nowNs() >= deadlineNs ||
         (maxExecutions_ != 0 && phaseExecutions_.load() >= maxExecutions_);
}

PhaseResult Bench::run(const std::vector<Question>& pool, double seconds,
                       bool record, std::size_t maxExecutions) {
  phaseExecutions_.store(0);
  maxExecutions_ = maxExecutions;
  const std::size_t wireBefore = fleet_->wireBytes();
  HostSampler sampler;
  PhaseResult r = spec_.gateway ? runOpenLoop(pool, seconds, record)
                                : runClosedLoop(pool, seconds, record);
  r.hostSamples = sampler.stop();
  // The sampler is part of the load generator.
  r.loadgenCpuMs += sampler.cpuMs();
  const HostSample& first = r.hostSamples.front();
  const HostSample& last = r.hostSamples.back();
  if (last.totalJiffies > first.totalJiffies) {
    r.stealPct = 100.0 * (last.stealJiffies - first.stealJiffies) /
                 (last.totalJiffies - first.totalJiffies);
  }
  r.wireBytes = fleet_->wireBytes() - wireBefore;
  ++phase_;
  return r;
}

PhaseResult Bench::runClosedLoop(const std::vector<Question>& pool,
                                 double seconds, bool record) {
  const std::int64_t startNs = nowNs();
  const auto deadlineNs = startNs + static_cast<std::int64_t>(seconds * 1e9);
  // The callers walk the pool in turn from one shared cursor, so every
  // phase asks the same mix whatever its length.
  std::atomic<std::size_t> cursor{0};
  std::vector<CallerTally> tallies(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      CallerTally& tally = tallies[t];
      PhaseResult& part = tally.part;
      tally.leaveCall();
      while (!spent(deadlineNs)) {
        const std::size_t qi = cursor.fetch_add(1) % pool.size();
        ++part.attempted;
        const std::int64_t t0 = nowNs();
        tally.enterCall();
        try {
          const TopKVector answer = execute(pool[qi].descriptor, qi, 0,
                                            record ? &part.execs : nullptr);
          const std::int64_t t1 = nowNs();
          tally.leaveCall();
          const double ms = static_cast<double>(t1 - t0) / 1e6;
          tallyAnswer(part, pool[qi], answer, ms, ms, t1, true);
        } catch (const std::exception& e) {
          tally.leaveCall();
          ++part.errors;
          noteFailure(part, e.what());
        }
      }
      tally.enterCall();
    });
  }
  for (auto& c : callers) c.join();
  return mergeTallies(tallies);
}

PhaseResult Bench::runOpenLoop(const std::vector<Question>& pool,
                               double seconds, bool record) {
  struct Request {
    std::size_t question = 0;
    std::size_t tenant = 0;
  };
  const auto count = static_cast<std::size_t>(spec_.rate * seconds);
  std::vector<Request> requests(count);
  {
    Rng rng(splitmix64(seed_ ^ (phase_ << 8) ^ 0x21f0ULL));
    // Zipf(1.0) over pool ranks: rank 0 is the most asked question.
    const data::ZipfDistribution zipf(
        Domain{0, static_cast<Value>(pool.size()) - 1}, 1.0);
    for (auto& request : requests) {
      request.question = static_cast<std::size_t>(zipf.sample(rng));
      request.tenant = rng.index(kTenants);
    }
  }
  const double periodNs = 1e9 / spec_.rate;
  const query::GatewayStats before = gateway_->stats();
  // The first request is due shortly after the threads exist.
  const std::int64_t startNs = nowNs() + 1'000'000;
  const auto deadlineNs = startNs + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<std::size_t> next{0};
  std::vector<CallerTally> tallies(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      CallerTally& tally = tallies[t];
      PhaseResult& part = tally.part;
      CallerContext context;
      context.execs = record ? &part.execs : nullptr;
      tlsCaller = &context;
      tally.leaveCall();
      for (std::size_t i = next.fetch_add(1); i < count && !spent(deadlineNs);
           i = next.fetch_add(1)) {
        const auto dueNs = startNs + static_cast<std::int64_t>(
                                         static_cast<double>(i) * periodNs);
        // Sleep to the absolute due time; never spin.
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(dueNs)));
        const Request& request = requests[i];
        query::GatewayRequest call;
        call.descriptor = pool[request.question].descriptor;
        call.descriptor.queryId = i + 1;  // a nonce; normalized away
        call.tenant = "tenant-" + std::to_string(request.tenant);
        call.priority = static_cast<query::Priority>(request.tenant % 3);
        context.question = request.question;
        context.led = false;
        ++part.attempted;
        const std::int64_t callNs = nowNs();
        part.lateMs.push_back(static_cast<double>(callNs - dueNs) / 1e6);
        tally.enterCall();
        try {
          if (i > 0 && i % kBumpEvery == 0) gateway_->bumpDataEpoch();
          const TopKVector answer = gateway_->execute(call).values;
          const std::int64_t returnNs = nowNs();
          tally.leaveCall();
          if (record) {
            part.calls.push_back(CallRecord{i, request.question, callNs,
                                            returnNs, context.led});
          }
          tallyAnswer(part, pool[request.question], answer,
                      static_cast<double>(returnNs - dueNs) / 1e6,
                      static_cast<double>(returnNs - callNs) / 1e6, returnNs,
                      context.led);
        } catch (const std::exception& e) {
          tally.leaveCall();
          ++part.errors;
          noteFailure(part, e.what());
        }
      }
      tally.enterCall();
      tlsCaller = nullptr;
    });
  }
  for (auto& c : callers) c.join();
  PhaseResult r = mergeTallies(tallies);
  r.gatewayBefore = before;
  r.gatewayAfter = gateway_->stats();
  return r;
}

}  // namespace perfbench
