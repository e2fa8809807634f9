// Metric assembly: the end-to-end figures of a measured run and the
// per-layer figures of a traced run.

#pragma once

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  /// Human-readable lines printed above the JSON result (sample counts,
  /// layers that do not apply, diagnostics).
  std::vector<std::string> notes;
  /// Set when a percentile breaks the ten-beyond rule or the layer-sum
  /// check misses its tolerance; the run then exits non-zero.
  std::vector<std::string> violations;

  void add(std::string name, double value, std::string unit);
  /// Adds a percentile of `samples` with its sample count; a layer without
  /// samples reports 0 and is noted as absent.
  void addPercentile(const std::string& name, std::vector<double> samples,
                     double q, const std::string& unit);
};

/// Layer-sum tolerance on paper-tcp: on each query's critical path the
/// transport hops, service hop-self spans, initiation and completion must
/// cover service.exec up to this share (percent).  The remainder is real:
/// a node that forwards the announce and then the token after one receive
/// spends the time between the two sends outside every hop-self span
/// (about 4% of service.exec on paper-tcp, 9% on bulk-inproc, where the
/// check is reported but not enforced).
inline constexpr double kLayerSumTolerancePct = 10.0;

/// Share of a measured run's slices (kSliceNs of one round each) whose
/// requests make its timing figures: the ones in which the hypervisor
/// stole the least CPU time, plus every slice that stole no more than the
/// last of them -- so every slice without steal when a tenth or more have
/// none.  A percentile with too few samples beyond it takes in the next
/// least-stolen slices until it has enough.
inline constexpr double kKeptSliceShare = 1.0 / 10.0;

/// End-to-end metrics of a measured run.  Throughput and CPU per query
/// count the requests that returned in the kept slices of all rounds, and
/// the latency percentiles pool the requests that overlapped only kept
/// slices; RSS is the median over the rounds (one fresh fleet each).  Answers, precision and wire bytes pool every round;
/// setup_s is the median of every set-up.
[[nodiscard]] Report endToEnd(const std::vector<PhaseResult>& rounds,
                              const std::vector<double>& setupSeconds);

/// Per-layer metrics of a traced phase.  `untracedP50Ms` is the p50 of an
/// untraced phase on an identical fleet; `before`/`after` bracket the
/// traced phase in the global metrics registry.
[[nodiscard]] Report perLayer(Bench& bench, const WorkloadSpec& spec,
                              const std::vector<Question>& pool,
                              PhaseResult& traced, double untracedP50Ms,
                              const privtopk::obs::MetricsSnapshot& before,
                              const privtopk::obs::MetricsSnapshot& after);

/// Resident set size of this process, in MiB.
[[nodiscard]] double rssMb();

}  // namespace perfbench
