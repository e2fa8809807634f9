// The local computation module: what one node does with an incoming global
// vector (paper §3.3 Algorithm 1 and §3.4 Algorithm 2, plus the naive
// baseline).
//
// Every algorithm is a small state machine reset per query.  step() takes
// the incoming global top-k vector (sorted descending, exactly k entries)
// and the 1-based round, and returns the outgoing vector.  Implementations
// must preserve two protocol invariants, which the test suite checks as
// properties:
//   1. monotonicity - the outgoing vector elementwise dominates the
//      incoming one (Algorithm 2's delta clamp can dip a tail entry by at
//      most delta, the paper-sanctioned exception);
//   2. soundness - no outgoing value exceeds the true current top-k of
//      (incoming ∪ local values), so randomization can never fabricate a
//      result above the real one.

#pragma once

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "protocol/schedule.hpp"

namespace privtopk::protocol {

/// Merges `incoming` (size k, sorted desc) with `local` (sorted desc) and
/// returns the k largest, sorted desc.  Exposed for reuse and testing.
[[nodiscard]] TopKVector mergeTopK(const TopKVector& incoming,
                                   const TopKVector& local, std::size_t k);

/// Multiset difference a - b for descending-sorted vectors (the paper's
/// V_i' = G_i'(r) - G_{i-1}(r) step).  Exposed for testing.
[[nodiscard]] TopKVector multisetDifference(const TopKVector& a,
                                            const TopKVector& b);

class LocalAlgorithm {
 public:
  virtual ~LocalAlgorithm() = default;

  /// Per-step outcome tally - the observable side of the randomization
  /// schedule Pr(r) = p0*d^(r-1) (Eq. 2).  Members are plain integers so
  /// the token hot path pays nothing; execution engines flush the totals
  /// into the global metrics registry once per query (see
  /// docs/OBSERVABILITY.md).
  struct PassCounts {
    std::uint64_t randomized = 0;   // injected bounded noise
    std::uint64_t real = 0;         // merged/inserted real local values
    std::uint64_t passthrough = 0;  // forwarded the vector untouched
  };

  /// Starts a new query with this node's local top-k vector (sorted
  /// descending, at most k values - fewer when the node has fewer rows).
  /// The algorithm keeps the vector: a caller done with it moves it in.
  virtual void reset(TopKVector localTopK) = 0;

  /// Processes the incoming global vector for round `r`, returning the
  /// outgoing vector.
  [[nodiscard]] virtual TopKVector step(const TopKVector& incoming,
                                        Round r) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Totals accumulated since construction (reset() does not clear them:
  /// engines create one algorithm per query and flush at completion).
  [[nodiscard]] const PassCounts& passCounts() const { return passCounts_; }

 protected:
  PassCounts passCounts_;
};

/// Algorithm 1: randomized max selection (k = 1 specialization, kept
/// separate because it is the form the paper analyzes in §4).
class RandomizedMaxAlgorithm final : public LocalAlgorithm {
 public:
  /// `schedule` supplies Pr(r); `rng` drives the randomized branch.
  RandomizedMaxAlgorithm(std::shared_ptr<const RandomizationSchedule> schedule,
                         Rng rng, Domain domain);

  void reset(TopKVector localTopK) override;
  [[nodiscard]] TopKVector step(const TopKVector& incoming, Round r) override;
  [[nodiscard]] std::string name() const override { return "randomized-max"; }

 private:
  std::shared_ptr<const RandomizationSchedule> schedule_;
  Rng rng_;
  Domain domain_;
  Value value_;  // this node's local max
};

/// Algorithm 2: randomized general top-k selection.
class RandomizedTopKAlgorithm final : public LocalAlgorithm {
 public:
  RandomizedTopKAlgorithm(std::size_t k,
                          std::shared_ptr<const RandomizationSchedule> schedule,
                          Rng rng, Domain domain, Value delta = 1);

  void reset(TopKVector localTopK) override;
  [[nodiscard]] TopKVector step(const TopKVector& incoming, Round r) override;
  [[nodiscard]] std::string name() const override { return "randomized-topk"; }

  /// True once the node has inserted its real values ("a node only does
  /// this once" - see DESIGN.md interpretation notes).
  [[nodiscard]] bool hasInserted() const { return inserted_; }

 private:
  std::size_t k_;
  std::shared_ptr<const RandomizationSchedule> schedule_;
  Rng rng_;
  Domain domain_;
  Value delta_;
  TopKVector local_;
  bool inserted_ = false;
};

/// The deterministic baseline: always merge and return the real current
/// top-k (one round suffices).
class NaiveAlgorithm final : public LocalAlgorithm {
 public:
  explicit NaiveAlgorithm(std::size_t k) : k_(k) {}

  void reset(TopKVector localTopK) override { local_ = std::move(localTopK); }
  [[nodiscard]] TopKVector step(const TopKVector& incoming, Round) override {
    ++passCounts_.real;
    return mergeTopK(incoming, local_, k_);
  }
  [[nodiscard]] std::string name() const override { return "naive"; }

 private:
  std::size_t k_;
  TopKVector local_;
};

}  // namespace privtopk::protocol
