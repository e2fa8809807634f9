// The three workloads and the load generators that drive them.
//
//   paper-tcp    closed loop, 4 callers, loopback TcpTransport, ~1k rows per
//                node, no gateway; mostly the paper's Eq.-2 schedule top-k
//                plus segmented, ldp and Max.  Per-hop service and TCP cost
//                dominate.
//   bulk-inproc  closed loop, 4 callers, InProcTransport, 50k rows per
//                node, k in the hundreds, a quarter filtered, part §4.2
//                grouped and part secure-sum.  Data and core compute
//                dominate; transport syscalls drop out.
//   zipf-gateway open loop at a fixed rate through a Gateway over the
//                paper-tcp fleet; Zipf(1.0) questions from a fixed pool,
//                six tenants over three lanes, an epoch bump every
//                kBumpEvery requests.  The gateway's hit, coalescing and
//                refill paths dominate.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "helpers.hpp"
#include "query/descriptor.hpp"
#include "query/gateway.hpp"

namespace perfbench {

/// One question of a workload's pool with its exact answer.
struct Question {
  privtopk::query::QueryDescriptor descriptor;  ///< queryId left 0
  Contract contract = Contract::Exact;
  Value slack = 0;
  TopKVector truth;  ///< top-k, or the exact totals of an aggregate
};

struct WorkloadSpec {
  std::string name;
  bool tcp = false;
  std::size_t rowsPerNode = 0;
  bool gateway = false;
  std::size_t poolSize = 0;
  /// Open loop only: requests per second.
  double rate = 0.0;
};

/// Rounds of a measured run, each on a freshly set-up fleet measured for a
/// tenth of the run.
inline constexpr std::size_t kRounds = 10;

/// The named workload; throws ConfigError for an unknown name.
[[nodiscard]] WorkloadSpec workloadSpec(const std::string& name);

/// Seed of the generated tables of workload seed `seed`.
[[nodiscard]] std::uint64_t tableSeed(std::uint64_t seed);

/// The workload's question pool, drawn from `seed`.
[[nodiscard]] std::vector<Question> makePool(const WorkloadSpec& spec,
                                             std::uint64_t seed);
/// Fills every question's truth from the fleet's tables: per-node
/// LocalParty::localInput merged for ranked questions, exact column sums
/// for aggregates.
void computeTruths(std::vector<Question>& pool,
                   const std::vector<privtopk::data::PrivateDatabase>& tables);
/// Checks one answer against its question's truth.
[[nodiscard]] Verdict checkAnswer(const Question& question,
                                  const TopKVector& answer);

/// One protocol execution started by a caller or the gateway's executor:
/// initiate() to future ready.
struct ExecRecord {
  std::uint64_t queryId = 0;
  NodeId initiator = 0;
  std::size_t question = 0;
  std::int64_t startNs = 0;
  std::int64_t readyNs = 0;
  /// Gateway only: index of the request whose call ran the executor.
  std::size_t request = 0;
};

/// One gateway call (zipf-gateway only).
struct CallRecord {
  std::size_t request = 0;
  std::size_t question = 0;
  std::int64_t callNs = 0;
  std::int64_t returnNs = 0;
  bool leader = false;
};

/// The machine's CPU counters (/proc/stat jiffies) and this process's CPU
/// time at one instant.
struct HostSample {
  std::int64_t atNs = 0;
  double totalJiffies = 0.0;
  double stealJiffies = 0.0;
  double processCpuMs = 0.0;
};

/// Interval at which a phase samples the host's CPU counters; the measured
/// figures set aside the slices between samples in which the hypervisor
/// stole the most CPU time.
inline constexpr std::int64_t kSliceNs = 100'000'000;

/// What one live phase measured.
struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t answered = 0;  ///< returned and passed the check
  std::size_t wrong = 0;
  std::size_t errors = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<double> latencyMs;      ///< answered requests
  std::vector<std::int64_t> latencyEndNs;  ///< when each of them returned
  std::vector<double> execLatencyMs;  ///< executed ones, from the call
  std::vector<std::int64_t> execEndNs;
  std::vector<double> lateMs;         ///< open loop: start minus due time
  double precisionSum = 0.0;
  std::size_t precisionCount = 0;
  /// Host CPU counters every kSliceNs from the phase's start to its end.
  std::vector<HostSample> hostSamples;
  /// Share of the machine's CPU time the hypervisor stole during the
  /// phase (host interference, reported next to the figures).
  double stealPct = 0.0;
  /// Resident set size at the end of the phase, MiB.
  double rssMb = 0.0;
  double loadgenCpuMs = 0.0;
  std::size_t wireBytes = 0;
  privtopk::query::GatewayStats gatewayBefore;
  privtopk::query::GatewayStats gatewayAfter;
  // Recorded only when the phase runs with recording on.
  std::vector<ExecRecord> execs;
  std::vector<CallRecord> calls;
};

/// A set-up fleet (plus gateway) ready to run live phases.
class Bench {
 public:
  /// Generates the tables and builds, starts and warms the fleet.
  Bench(const WorkloadSpec& spec, std::uint64_t seed, bool capture);

  /// Drives the workload for `seconds`, or until `maxExecutions` protocol
  /// executions have started when that is non-zero; with `record` the
  /// per-execution and per-call records are kept.
  [[nodiscard]] PhaseResult run(const std::vector<Question>& pool,
                                double seconds, bool record,
                                std::size_t maxExecutions = 0);

  [[nodiscard]] Fleet& fleet() { return *fleet_; }

 private:
  PhaseResult runClosedLoop(const std::vector<Question>& pool, double seconds,
                            bool record);
  PhaseResult runOpenLoop(const std::vector<Question>& pool, double seconds,
                          bool record);
  /// True once the phase's time or execution budget is spent.
  [[nodiscard]] bool spent(std::int64_t deadlineNs) const;
  /// initiate() on the rotating initiator and wait for the answer; with
  /// `execs` set, appends the execution's record to it.
  TopKVector execute(privtopk::query::QueryDescriptor descriptor,
                     std::size_t question, std::size_t request,
                     std::vector<ExecRecord>* execs);

  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<privtopk::query::Gateway> gateway_;
  std::atomic<std::uint64_t> nextQueryId_{1};
  std::uint64_t phase_ = 0;
  /// Executions started in the current phase, and the phase's cap on them
  /// (0 = none).
  std::atomic<std::size_t> phaseExecutions_{0};
  std::size_t maxExecutions_ = 0;
};

}  // namespace perfbench
