#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <numeric>
#include <utility>

namespace perfbench {

Percentile percentile(std::vector<double>& samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps q * n from landing one rank high on binary rounding
  // (0.99 * 1000 must be rank 990, not 991).
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * n - 1e-9)));
  const std::size_t index = std::min(rank, samples.size()) - 1;
  p.value = samples[index];
  p.beyond = samples.size() - 1 - index;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

/// Event indices grouped by link, each group in time order (ties keep
/// input order).
std::map<std::pair<NodeId, NodeId>, std::vector<std::size_t>> byLink(
    const std::vector<LinkEvent>& events) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events[a].atNs < events[b].atNs;
                   });
  std::map<std::pair<NodeId, NodeId>, std::vector<std::size_t>> links;
  for (std::size_t i : order) {
    links[{events[i].from, events[i].to}].push_back(i);
  }
  return links;
}

}  // namespace

std::vector<std::size_t> pairFifo(const std::vector<LinkEvent>& sends,
                                  const std::vector<LinkEvent>& receives) {
  std::vector<std::size_t> paired(receives.size(), kUnpaired);
  const auto sendLinks = byLink(sends);
  for (const auto& [link, recvIdx] : byLink(receives)) {
    const auto it = sendLinks.find(link);
    if (it == sendLinks.end()) continue;
    const std::size_t n = std::min(recvIdx.size(), it->second.size());
    for (std::size_t rank = 0; rank < n; ++rank) {
      paired[recvIdx[rank]] = it->second[rank];
    }
  }
  return paired;
}

Verdict checkRanked(const TopKVector& answer, const TopKVector& truth,
                    Contract contract, Value slack) {
  Verdict v;
  if (!truth.empty()) {
    v.precision =
        static_cast<double>(privtopk::multisetIntersectionSize(answer, truth)) /
        static_cast<double>(truth.size());
  }
  if (answer.size() != truth.size()) {
    v.why = "answer has " + std::to_string(answer.size()) + " values, want " +
            std::to_string(truth.size());
    return v;
  }
  if (contract == Contract::Exact) {
    v.ok = answer == truth;
    if (!v.ok) v.why = "answer differs from the exact top-k";
    return v;
  }
  if (!std::is_sorted(answer.begin(), answer.end(), std::greater<>())) {
    v.why = "answer is not in descending order";
    return v;
  }
  for (std::size_t slot = 0; slot < answer.size(); ++slot) {
    if (answer[slot] > truth[slot] + slack) {
      v.why = "slot " + std::to_string(slot) + " holds " +
              std::to_string(answer[slot]) + " above the true " +
              std::to_string(truth[slot]) + " + slack " +
              std::to_string(slack);
      return v;
    }
  }
  v.ok = true;
  return v;
}

Verdict checkAggregate(const std::vector<std::int64_t>& answer,
                       const std::vector<std::int64_t>& truth) {
  Verdict v;
  v.ok = answer == truth;
  v.precision = v.ok ? 1.0 : 0.0;
  if (!v.ok) v.why = "aggregate differs from the exact totals";
  return v;
}

}  // namespace perfbench
