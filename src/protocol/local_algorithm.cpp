#include "protocol/local_algorithm.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"

namespace privtopk::protocol {

namespace {

/// The elements of the multiset difference a - b (descending-sorted
/// inputs), one at a time and in order: the walk multisetDifference makes,
/// paused after each element it keeps.
class DifferenceCursor {
 public:
  DifferenceCursor(std::span<const Value> a, std::span<const Value> b)
      : a_(a), b_(b) {}

  /// Sets `out` to the next element and returns true, or returns false
  /// once a - b is exhausted.
  bool next(Value& out) {
    while (i_ < a_.size()) {
      if (j_ >= b_.size() || a_[i_] > b_[j_]) {
        out = a_[i_++];
        return true;
      }
      if (a_[i_] == b_[j_]) {
        ++i_;
        ++j_;
      } else {  // a[i] < b[j]: skip the b element with no counterpart
        ++j_;
      }
    }
    return false;
  }

 private:
  std::span<const Value> a_;
  std::span<const Value> b_;
  std::size_t i_ = 0;
  std::size_t j_ = 0;
};

/// mergeTopK(incoming, multisetDifference(local, exclude), k) without
/// materialising the difference.
TopKVector mergeDifference(const TopKVector& incoming,
                           std::span<const Value> local,
                           std::span<const Value> exclude, std::size_t k) {
  TopKVector merged;
  merged.reserve(k);
  DifferenceCursor candidates(local, exclude);
  Value candidate = 0;
  bool more = candidates.next(candidate);
  std::size_t i = 0;
  while (merged.size() < k && (i < incoming.size() || more)) {
    if (!more || (i < incoming.size() && incoming[i] >= candidate)) {
      merged.push_back(incoming[i++]);
    } else {
      merged.push_back(candidate);
      more = candidates.next(candidate);
    }
  }
  return merged;
}

/// multisetDifference(a, b).size(), counted without building it.
std::size_t differenceSize(const TopKVector& a, const TopKVector& b) {
  DifferenceCursor cursor(a, b);
  std::size_t n = 0;
  for (Value v = 0; cursor.next(v);) ++n;
  return n;
}

}  // namespace

TopKVector mergeTopK(const TopKVector& incoming, const TopKVector& local,
                     std::size_t k) {
  return mergeDifference(incoming, local, {}, k);
}

TopKVector multisetDifference(const TopKVector& a, const TopKVector& b) {
  TopKVector out;
  DifferenceCursor cursor(a, b);
  for (Value v = 0; cursor.next(v);) out.push_back(v);
  return out;
}

// ---------------------------------------------------------------------------
// Algorithm 1 - max selection
// ---------------------------------------------------------------------------

RandomizedMaxAlgorithm::RandomizedMaxAlgorithm(
    std::shared_ptr<const RandomizationSchedule> schedule, Rng rng,
    Domain domain)
    : schedule_(std::move(schedule)), rng_(rng), domain_(domain),
      value_(domain.min) {
  if (!schedule_) throw ConfigError("RandomizedMaxAlgorithm: null schedule");
}

void RandomizedMaxAlgorithm::reset(TopKVector localTopK) {
  // A node with no rows participates with the domain minimum, which it can
  // never be forced to expose (the g >= v branch always passes it on).
  value_ = localTopK.empty() ? domain_.min : localTopK.front();
  if (!domain_.contains(value_)) {
    throw ConfigError("RandomizedMaxAlgorithm: local value outside domain");
  }
}

TopKVector RandomizedMaxAlgorithm::step(const TopKVector& incoming, Round r) {
  if (incoming.size() != 1) {
    throw ProtocolError("RandomizedMaxAlgorithm: expected a 1-vector");
  }
  const Value g = incoming.front();

  // Case 1: the global value already dominates; pass it on unchanged - the
  // node exposes nothing.
  if (g >= value_) {
    ++passCounts_.passthrough;
    return {g};
  }

  // Case 2: with probability Pr(r) return a uniform random value from
  // [g, value), otherwise insert the real value.
  const double pr = schedule_->probability(r);
  if (rng_.bernoulli(pr)) {
    ++passCounts_.randomized;
    return {rng_.uniformIntHalfOpen(g, value_)};  // range non-empty: g < value
  }
  ++passCounts_.real;
  return {value_};
}

// ---------------------------------------------------------------------------
// Algorithm 2 - general top-k selection
// ---------------------------------------------------------------------------

RandomizedTopKAlgorithm::RandomizedTopKAlgorithm(
    std::size_t k, std::shared_ptr<const RandomizationSchedule> schedule,
    Rng rng, Domain domain, Value delta)
    : k_(k), schedule_(std::move(schedule)), rng_(rng), domain_(domain),
      delta_(delta) {
  if (k_ == 0) throw ConfigError("RandomizedTopKAlgorithm: k must be >= 1");
  if (!schedule_) throw ConfigError("RandomizedTopKAlgorithm: null schedule");
  if (delta_ < 1) throw ConfigError("RandomizedTopKAlgorithm: delta >= 1");
}

void RandomizedTopKAlgorithm::reset(TopKVector localTopK) {
  if (localTopK.size() > k_) {
    throw ConfigError("RandomizedTopKAlgorithm: local vector larger than k");
  }
  if (!std::is_sorted(localTopK.begin(), localTopK.end(), std::greater<>())) {
    throw ConfigError("RandomizedTopKAlgorithm: local vector not sorted");
  }
  for (Value v : localTopK) {
    if (!domain_.contains(v)) {
      throw ConfigError("RandomizedTopKAlgorithm: local value outside domain");
    }
  }
  local_ = std::move(localTopK);
  inserted_ = false;
}

TopKVector RandomizedTopKAlgorithm::step(const TopKVector& incoming, Round r) {
  if (incoming.size() != k_) {
    throw ProtocolError("RandomizedTopKAlgorithm: expected a k-vector");
  }

  // G'_i(r) = topk(G_{i-1}(r) ∪ V_i) and V'_i = G'_i(r) - G_{i-1}(r).
  //
  // Union semantics: before the node has inserted, none of its physical
  // items are in the global vector, so the union is a plain multiset sum
  // (a local value equal to a value already in G is a distinct physical
  // item and counts twice).  AFTER insertion its items are presumed
  // present, so only copies missing from G may be (re-)contributed -
  // max-multiplicity union - which restores values displaced by a later
  // node's randomized tail without ever double-counting its own data
  // (DESIGN.md interpretation notes).
  //
  // Neither V_i - G nor V'_i is built: the merge draws local_ - incoming
  // (or all of local_) one value at a time, and m only counts V'_i.
  TopKVector real = mergeDifference(
      incoming, local_,
      inserted_ ? std::span<const Value>(incoming) : std::span<const Value>(),
      k_);
  const std::size_t m = differenceSize(real, incoming);

  // Case 1: nothing of ours in the current top-k; pass the vector on.
  if (m == 0) {
    ++passCounts_.passthrough;
    return incoming;
  }

  // Once the real values have been inserted the node stops randomizing
  // ("a node only does this once") and deterministically re-merges.
  if (inserted_) {
    ++passCounts_.real;
    return real;
  }

  const double pr = schedule_->probability(r);
  if (!rng_.bernoulli(pr)) {
    inserted_ = true;
    ++passCounts_.real;
    return real;
  }
  ++passCounts_.randomized;

  // Randomization branch: keep the first k-m incoming values and fill the
  // tail with m random values from
  //   [ min(G'[k] - delta, G_{i-1}[k-m+1]),  G'[k] )          (1-based)
  // clamped to the domain so integer draws stay legal.
  const Value upper = real[k_ - 1];
  Value lower = std::min(upper - delta_, incoming[k_ - m]);
  lower = std::max(lower, domain_.min);

  // The output reuses real's k slots: the kept head, then the tail.
  const auto head = static_cast<std::ptrdiff_t>(k_ - m);
  std::copy(incoming.begin(), incoming.begin() + head, real.begin());
  if (lower >= upper) {
    // Degenerate range: G'[k] is at the domain floor (possible when the
    // node's contribution still leaves domain-min padding in the vector).
    // Emit domain-min placeholders - trivially replaced later.
    std::fill(real.begin() + head, real.end(), domain_.min);
  } else {
    for (auto it = real.begin() + head; it != real.end(); ++it) {
      *it = rng_.uniformIntHalfOpen(lower, upper);
    }
    std::sort(real.begin() + head, real.end(), std::greater<>());
  }
  return real;
}

}  // namespace privtopk::protocol
