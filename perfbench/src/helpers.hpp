// Pure helpers of the benchmark harness: the percentile rule, FIFO
// send/receive pairing and the answer checker.  They own
// no threads and do no I/O, so perfbench/tests exercises them directly.

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using privtopk::NodeId;
using privtopk::TopKVector;
using privtopk::Value;

// ---------------------------------------------------------------------------
// Percentile rule: a percentile is reported only when at least kMinBeyond
// samples lie beyond it, so a p99 needs 1000 samples and a p50 needs 20.

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples strictly after the percentile's rank.
  std::size_t beyond = 0;
  [[nodiscard]] bool reportable() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile (q in (0, 1]) of `samples`; sorts them in place.
/// An empty input yields a zero, unreportable percentile.
[[nodiscard]] Percentile percentile(std::vector<double>& samples, double q);

/// Median of a copy of `values` (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// FIFO pairing: a send on link from->to is delivered by the receive of the
// same rank on that link, because both transports are FIFO per link.

struct LinkEvent {
  NodeId from = 0;
  NodeId to = 0;
  std::int64_t atNs = 0;
};

inline constexpr std::size_t kUnpaired =
    std::numeric_limits<std::size_t>::max();

/// For every receive, the index of the send it delivered (kUnpaired when
/// its link saw fewer sends).  Both inputs may be in any order; ranks are
/// taken in time order per link.
[[nodiscard]] std::vector<std::size_t> pairFifo(
    const std::vector<LinkEvent>& sends,
    const std::vector<LinkEvent>& receives);

// ---------------------------------------------------------------------------
// Answer checker.

/// What a ranked (top-k) answer must satisfy.
enum class Contract {
  Exact,  ///< equal to the true top-k (segmented, Max)
  Sound,  ///< k sorted values, slot i <= truth[i] + slack (schedule, ldp)
};

struct Verdict {
  bool ok = false;
  /// |answer ∩ truth| / k (the paper's Fig. 11 precision); 1 for exact
  /// aggregates.
  double precision = 0.0;
  std::string why;
};

/// Checks a ranked answer against the exact top-k `truth` (descending).
/// `slack` is the mechanism's soundnessSlack (0 for the schedule).
[[nodiscard]] Verdict checkRanked(const TopKVector& answer,
                                  const TopKVector& truth, Contract contract,
                                  Value slack);

/// Checks a secure-sum answer against exact totals.
[[nodiscard]] Verdict checkAggregate(const std::vector<std::int64_t>& answer,
                                     const std::vector<std::int64_t>& truth);

}  // namespace perfbench
