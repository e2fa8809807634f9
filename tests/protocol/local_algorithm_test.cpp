#include "protocol/local_algorithm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace privtopk::protocol {
namespace {

const Domain kDomain{1, 10000};

std::shared_ptr<const RandomizationSchedule> always() {
  return std::make_shared<ExponentialSchedule>(1.0, 1.0);  // Pr == 1 forever
}

std::shared_ptr<const RandomizationSchedule> never() {
  return std::make_shared<ZeroSchedule>();
}

std::shared_ptr<const RandomizationSchedule> paperDefault() {
  return std::make_shared<ExponentialSchedule>(1.0, 0.5);
}

// ---------------------------------------------------------------------------
// mergeTopK / multisetDifference
// ---------------------------------------------------------------------------

TEST(MergeTopK, BasicDescendingMerge) {
  EXPECT_EQ(mergeTopK({50, 30, 10}, {40, 20}, 3), (TopKVector{50, 40, 30}));
}

TEST(MergeTopK, DuplicatesSurviveAsMultiset) {
  EXPECT_EQ(mergeTopK({50, 50}, {50}, 3), (TopKVector{50, 50, 50}));
}

TEST(MergeTopK, ShortInputs) {
  EXPECT_EQ(mergeTopK({}, {7, 3}, 2), (TopKVector{7, 3}));
  EXPECT_EQ(mergeTopK({9}, {}, 2), (TopKVector{9}));
  EXPECT_TRUE(mergeTopK({}, {}, 4).empty());
}

TEST(MergeTopK, TruncatesToK) {
  EXPECT_EQ(mergeTopK({9, 8, 7}, {6, 5}, 2), (TopKVector{9, 8}));
}

TEST(MultisetDifference, RespectsMultiplicity) {
  EXPECT_EQ(multisetDifference({50, 50, 30}, {50, 30}), (TopKVector{50}));
  EXPECT_EQ(multisetDifference({50, 30}, {50, 50, 30}), (TopKVector{}));
  EXPECT_EQ(multisetDifference({9, 7, 5}, {8, 6}), (TopKVector{9, 7, 5}));
  EXPECT_TRUE(multisetDifference({}, {1, 2}).empty());
}

// ---------------------------------------------------------------------------
// Algorithm 1 (max)
// ---------------------------------------------------------------------------

TEST(RandomizedMax, PassesOnWhenGlobalDominates) {
  RandomizedMaxAlgorithm algo(paperDefault(), Rng(1), kDomain);
  algo.reset({100});
  // g > v: always pass through, never randomize.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(algo.step({200}, 1), (TopKVector{200}));
  }
  // g == v: also a pass (no exposure).
  EXPECT_EQ(algo.step({100}, 1), (TopKVector{100}));
}

TEST(RandomizedMax, AlwaysRandomizesAtProbabilityOne) {
  RandomizedMaxAlgorithm algo(always(), Rng(2), kDomain);
  algo.reset({500});
  for (int i = 0; i < 200; ++i) {
    const TopKVector out = algo.step({100}, 1);
    ASSERT_EQ(out.size(), 1u);
    // Random value in [g, v): never the node's own value, never below g.
    EXPECT_GE(out[0], 100);
    EXPECT_LT(out[0], 500);
  }
}

TEST(RandomizedMax, NeverRandomizesAtProbabilityZero) {
  RandomizedMaxAlgorithm algo(never(), Rng(3), kDomain);
  algo.reset({500});
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(algo.step({100}, 1), (TopKVector{500}));
  }
}

TEST(RandomizedMax, AdjacentValuesDegenerateRange) {
  // v = g+1: the only legal random value is g itself.
  RandomizedMaxAlgorithm algo(always(), Rng(4), kDomain);
  algo.reset({101});
  EXPECT_EQ(algo.step({100}, 1), (TopKVector{100}));
}

TEST(RandomizedMax, EmptyLocalActsAsDomainMin) {
  RandomizedMaxAlgorithm algo(paperDefault(), Rng(5), kDomain);
  algo.reset({});
  EXPECT_EQ(algo.step({7}, 1), (TopKVector{7}));
}

TEST(RandomizedMax, RandomizationDecaysWithRounds) {
  // At round 20 with (1, 1/2), Pr ~ 2e-6: the real value comes out.
  RandomizedMaxAlgorithm algo(paperDefault(), Rng(6), kDomain);
  algo.reset({500});
  EXPECT_EQ(algo.step({100}, 20), (TopKVector{500}));
}

TEST(RandomizedMax, RejectsWrongVectorWidth) {
  RandomizedMaxAlgorithm algo(paperDefault(), Rng(7), kDomain);
  algo.reset({500});
  EXPECT_THROW((void)algo.step({1, 2}, 1), ProtocolError);
  EXPECT_THROW((void)algo.step({}, 1), ProtocolError);
}

TEST(RandomizedMax, RejectsValueOutsideDomain) {
  RandomizedMaxAlgorithm algo(paperDefault(), Rng(8), kDomain);
  EXPECT_THROW(algo.reset({999999}), ConfigError);
}

// ---------------------------------------------------------------------------
// Algorithm 2 (top-k)
// ---------------------------------------------------------------------------

TEST(RandomizedTopK, PassThroughWhenNothingContributes) {
  RandomizedTopKAlgorithm algo(3, paperDefault(), Rng(1), kDomain);
  algo.reset({50, 40, 30});
  const TopKVector incoming = {100, 90, 80};
  EXPECT_EQ(algo.step(incoming, 1), incoming);
  EXPECT_FALSE(algo.hasInserted());
}

TEST(RandomizedTopK, InsertsRealValuesAtProbabilityZero) {
  RandomizedTopKAlgorithm algo(3, never(), Rng(2), kDomain);
  algo.reset({95, 85, 10});
  EXPECT_EQ(algo.step({100, 90, 80}, 1), (TopKVector{100, 95, 90}));
  EXPECT_TRUE(algo.hasInserted());
}

TEST(RandomizedTopK, RandomTailRespectsPaperRange) {
  // m = 1 case: incoming {100,90,80}, local {95,85}: real = {100,95,90},
  // so one value contributes and the tail range is
  // [min(real[k]-delta, incoming[k-m+1]), real[k]) = [min(89, 80), 90)
  // = [80, 90) (1-based indices as in the paper).
  RandomizedTopKAlgorithm algo(3, always(), Rng(3), kDomain, /*delta=*/1);
  algo.reset({95, 85});
  for (int i = 0; i < 100; ++i) {
    const TopKVector out = algo.step({100, 90, 80}, 1);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 100);  // head copied from incoming
    EXPECT_EQ(out[1], 90);
    EXPECT_GE(out[2], 80);
    EXPECT_LT(out[2], 90);
  }
  EXPECT_FALSE(algo.hasInserted());
}

TEST(RandomizedTopK, FullReplacementWhenAllValuesContribute) {
  // m = k extreme case from the paper: random values span
  // [incoming[0], real[k-1]) = [10, 70).
  RandomizedTopKAlgorithm algo(3, always(), Rng(4), kDomain);
  algo.reset({90, 80, 70});
  const TopKVector out = algo.step({10, 5, 1}, 1);
  ASSERT_EQ(out.size(), 3u);
  for (Value v : out) {
    EXPECT_GE(v, 10);
    EXPECT_LT(v, 70);
  }
  // Sorted descending.
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), std::greater<>()));
}

TEST(RandomizedTopK, OutputSortedAndMonotone) {
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    RandomizedTopKAlgorithm algo(4, paperDefault(), rng.fork(trial), kDomain);
    Rng data(1000 + trial);
    TopKVector local;
    for (int i = 0; i < 4; ++i) local.push_back(data.uniformInt(1, 10000));
    std::sort(local.begin(), local.end(), std::greater<>());
    algo.reset(local);

    TopKVector incoming;
    for (int i = 0; i < 4; ++i) incoming.push_back(data.uniformInt(1, 10000));
    std::sort(incoming.begin(), incoming.end(), std::greater<>());

    const TopKVector out = algo.step(incoming, 1);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end(), std::greater<>()));
    // Monotone except the documented delta dip on tail entries.
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GE(out[i], incoming[i] - 1) << "slot " << i;
    }
    // Soundness: never exceeds the true merged top-k.
    const TopKVector real = mergeTopK(incoming, local, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_LE(out[i], real[i]) << "slot " << i;
    }
  }
}

TEST(RandomizedTopK, InsertOnlyOnceThenDeterministicRestore) {
  RandomizedTopKAlgorithm algo(2, never(), Rng(6), kDomain);
  algo.reset({60, 50});
  EXPECT_EQ(algo.step({10, 5}, 1), (TopKVector{60, 50}));
  EXPECT_TRUE(algo.hasInserted());
  // Its values displaced by someone's larger (randomized) values: the node
  // re-merges only the missing copies - no duplication of its own data.
  EXPECT_EQ(algo.step({70, 55}, 2), (TopKVector{70, 60}));
  // Vector already contains its values: pure pass-through.
  EXPECT_EQ(algo.step({70, 60}, 3), (TopKVector{70, 60}));
}

TEST(RandomizedTopK, NoSelfDuplicationAfterInsert) {
  RandomizedTopKAlgorithm algo(3, never(), Rng(7), kDomain);
  algo.reset({60, 50, 40});
  EXPECT_EQ(algo.step({1, 1, 1}, 1), (TopKVector{60, 50, 40}));
  // Incoming already holds exactly its values: output must not become
  // {60, 60, 50} by double-counting.
  EXPECT_EQ(algo.step({60, 50, 40}, 2), (TopKVector{60, 50, 40}));
}

TEST(RandomizedTopK, PreInsertDuplicateOfForeignValueCounts) {
  // Another node already contributed 60; this node's own physical 60 is a
  // distinct item and pushes the vector to {60, 60, 50}.
  RandomizedTopKAlgorithm algo(3, never(), Rng(8), kDomain);
  algo.reset({60, 10, 5});
  EXPECT_EQ(algo.step({60, 50, 40}, 1), (TopKVector{60, 60, 50}));
}

TEST(RandomizedTopK, DegenerateRangeEmitsDomainMinPlaceholders) {
  // Vector still holds domain-min padding: real[k-1] == domain.min makes
  // the random range empty; placeholders keep the protocol sound.
  RandomizedTopKAlgorithm algo(3, always(), Rng(9), kDomain);
  algo.reset({5});
  const TopKVector out = algo.step({1, 1, 1}, 1);  // domain.min padding
  ASSERT_EQ(out.size(), 3u);
  for (Value v : out) EXPECT_GE(v, kDomain.min);
  for (Value v : out) EXPECT_LT(v, 5);
}

TEST(RandomizedTopK, RejectsBadInputs) {
  RandomizedTopKAlgorithm algo(3, paperDefault(), Rng(10), kDomain);
  EXPECT_THROW(algo.reset({1, 2, 3, 4}), ConfigError);   // larger than k
  EXPECT_THROW(algo.reset({1, 2, 3}), ConfigError);      // not descending
  EXPECT_THROW(algo.reset({999999, 5, 1}), ConfigError); // out of domain
  algo.reset({5, 3, 1});
  EXPECT_THROW((void)algo.step({9, 8}, 1), ProtocolError);  // wrong width
}

TEST(RandomizedTopK, EquivalentToMaxWhenKIsOne) {
  // With Pr = 0, both algorithms are deterministic and must agree.
  RandomizedTopKAlgorithm topk(1, never(), Rng(11), kDomain);
  RandomizedMaxAlgorithm maxAlgo(never(), Rng(12), kDomain);
  topk.reset({500});
  maxAlgo.reset({500});
  for (Value g : {1, 400, 500, 600}) {
    EXPECT_EQ(topk.step({g}, 1), maxAlgo.step({g}, 1)) << "g = " << g;
  }
}

// ---------------------------------------------------------------------------
// Reference step: Algorithm 2 as first written, with three temporaries
// (the candidate set, the merged vector and the contributed multiset).
// RandomizedTopKAlgorithm::step must match it output for output and draw
// for draw.
// ---------------------------------------------------------------------------

TopKVector referenceMerge(const TopKVector& incoming, const TopKVector& local,
                          std::size_t k) {
  TopKVector merged;
  std::size_t i = 0;
  std::size_t j = 0;
  while (merged.size() < k && (i < incoming.size() || j < local.size())) {
    if (j >= local.size() ||
        (i < incoming.size() && incoming[i] >= local[j])) {
      merged.push_back(incoming[i++]);
    } else {
      merged.push_back(local[j++]);
    }
  }
  return merged;
}

TopKVector referenceDifference(const TopKVector& a, const TopKVector& b) {
  TopKVector out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size()) {
    if (j >= b.size() || a[i] > b[j]) {
      out.push_back(a[i++]);
    } else if (a[i] == b[j]) {
      ++i;
      ++j;
    } else {
      ++j;
    }
  }
  return out;
}

class ReferenceTopK {
 public:
  ReferenceTopK(std::size_t k,
                std::shared_ptr<const RandomizationSchedule> schedule, Rng rng,
                Domain domain, Value delta)
      : k_(k), schedule_(std::move(schedule)), rng_(rng), domain_(domain),
        delta_(delta) {}

  void reset(TopKVector localTopK) {
    if (localTopK.size() > k_) throw ConfigError("larger than k");
    if (!std::is_sorted(localTopK.begin(), localTopK.end(),
                        std::greater<>())) {
      throw ConfigError("not sorted");
    }
    for (Value v : localTopK) {
      if (!domain_.contains(v)) throw ConfigError("outside domain");
    }
    local_ = std::move(localTopK);
    inserted_ = false;
  }

  TopKVector step(const TopKVector& incoming, Round r) {
    if (incoming.size() != k_) throw ProtocolError("expected a k-vector");
    const TopKVector candidate =
        inserted_ ? referenceDifference(local_, incoming) : local_;
    const TopKVector real = referenceMerge(incoming, candidate, k_);
    const TopKVector contributed = referenceDifference(real, incoming);
    const std::size_t m = contributed.size();
    if (m == 0) {
      ++counts.passthrough;
      return incoming;
    }
    if (inserted_) {
      ++counts.real;
      return real;
    }
    if (!rng_.bernoulli(schedule_->probability(r))) {
      inserted_ = true;
      ++counts.real;
      return real;
    }
    ++counts.randomized;
    const Value upper = real[k_ - 1];
    Value lower = std::min(upper - delta_, incoming[k_ - m]);
    lower = std::max(lower, domain_.min);
    TopKVector out(incoming.begin(),
                   incoming.begin() + static_cast<std::ptrdiff_t>(k_ - m));
    if (lower >= upper) {
      out.insert(out.end(), m, domain_.min);
    } else {
      for (std::size_t idx = 0; idx < m; ++idx) {
        out.push_back(rng_.uniformIntHalfOpen(lower, upper));
      }
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(k_ - m), out.end(),
                std::greater<>());
    }
    return out;
  }

  [[nodiscard]] bool hasInserted() const { return inserted_; }

  LocalAlgorithm::PassCounts counts;

 private:
  std::size_t k_;
  std::shared_ptr<const RandomizationSchedule> schedule_;
  Rng rng_;
  Domain domain_;
  Value delta_;
  TopKVector local_;
  bool inserted_ = false;
};

/// `n` values drawn from `pool`, from [domain.min, top] and from the
/// domain floor (padding), sorted descending: heavy ties by design.
TopKVector tiedVector(Rng& gen, std::size_t n, const TopKVector& pool,
                      Domain domain, Value top) {
  TopKVector out(n);
  for (Value& v : out) {
    const std::size_t pick = gen.index(4);
    if (pick == 0 && !pool.empty()) {
      v = pool[gen.index(pool.size())];
    } else if (pick == 1) {
      v = domain.min;
    } else {
      v = gen.uniformInt(domain.min, top);
    }
  }
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

TEST(RandomizedTopK, MatchesReferenceStep) {
  const std::vector<std::shared_ptr<const RandomizationSchedule>> schedules = {
      never(), std::make_shared<ExponentialSchedule>(0.5, 1.0), always()};
  const std::vector<Value> domainTops = {2, 4, 50, 10000};
  Rng gen(2024);
  for (std::uint64_t c = 0; c < 1200; ++c) {
    const std::size_t k = c % 5 == 0 ? 1 + gen.index(300) : 1 + gen.index(12);
    const Domain domain{1, domainTops[gen.index(domainTops.size())]};
    const auto& schedule = schedules[c % schedules.size()];
    const Value delta = gen.index(2) == 0 ? 1 : 5;
    SCOPED_TRACE("case " + std::to_string(c) + ", k " + std::to_string(k));

    RandomizedTopKAlgorithm algo(k, schedule, Rng(c), domain, delta);
    ReferenceTopK ref(k, schedule, Rng(c), domain, delta);
    const TopKVector local =
        tiedVector(gen, gen.index(k + 1), {}, domain, domain.max);
    algo.reset(local);
    ref.reset(local);

    // Incoming vectors tie with the local values, carry domain-min padding
    // and sometimes lie wholly below them; later steps reuse the previous
    // output, as a ring does, so both sides of insertion are exercised.
    TopKVector previous;
    for (Round r = 1; r <= 8; ++r) {
      TopKVector incoming;
      if (!previous.empty() && gen.index(2) == 0) {
        incoming = previous;
        const std::size_t tail = gen.index(k + 1);
        for (std::size_t i = k - tail; i < k; ++i) incoming[i] = domain.min;
      } else {
        const Value top =
            gen.index(3) == 0 ? domain.min + (domain.max - domain.min) / 2
                              : domain.max;
        incoming = tiedVector(gen, k, local, domain, top);
      }
      // A hostile predecessor may send an unsorted vector: the step must
      // still match the reference on it.
      if (gen.index(8) == 0) gen.shuffle(incoming);
      const TopKVector got = algo.step(incoming, r);
      ASSERT_EQ(got, ref.step(incoming, r)) << "round " << r;
      ASSERT_EQ(algo.hasInserted(), ref.hasInserted()) << "round " << r;
      previous = got;
    }
    EXPECT_EQ(algo.passCounts().randomized, ref.counts.randomized);
    EXPECT_EQ(algo.passCounts().real, ref.counts.real);
    EXPECT_EQ(algo.passCounts().passthrough, ref.counts.passthrough);

    // The next draw: a step every value of which is ours and random (for
    // a randomizing schedule) reads the generator k times past here.
    const TopKVector top(k, domain.max);
    algo.reset(top);
    ref.reset(top);
    const TopKVector floor(k, domain.min);
    EXPECT_EQ(algo.step(floor, 1), ref.step(floor, 1));
  }

  // reset rejects exactly what the reference rejects.
  const std::vector<TopKVector> inputs = {
      {}, {5}, {5, 3, 1}, {5, 5, 5}, {1, 2, 3}, {5, 3, 4},
      {10000, 1, 1}, {10001, 5, 1}, {5, 3, 0}, {1, 1, 1, 1}, {-1},
  };
  for (const TopKVector& input : inputs) {
    RandomizedTopKAlgorithm algo(3, paperDefault(), Rng(1), kDomain);
    ReferenceTopK ref(3, paperDefault(), Rng(1), kDomain, 1);
    bool refThrew = false;
    try {
      ref.reset(input);
    } catch (const ConfigError&) {
      refThrew = true;
    }
    if (refThrew) {
      EXPECT_THROW(algo.reset(input), ConfigError) << input.size();
    } else {
      EXPECT_NO_THROW(algo.reset(input)) << input.size();
    }
  }
}

// ---------------------------------------------------------------------------
// Naive baseline
// ---------------------------------------------------------------------------

TEST(NaiveAlgorithm, AlwaysMerges) {
  NaiveAlgorithm algo(2);
  algo.reset({70, 20});
  EXPECT_EQ(algo.step({80, 10}, 1), (TopKVector{80, 70}));
  EXPECT_EQ(algo.step({90, 85}, 1), (TopKVector{90, 85}));
  EXPECT_EQ(algo.name(), "naive");
}

}  // namespace
}  // namespace privtopk::protocol
