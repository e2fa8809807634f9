// Unit tests for the benchmark's pure helpers: the percentile rule, FIFO
// send/receive pairing and the answer checker.

#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"

namespace perfbench {
namespace {

std::vector<double> oneTo(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankAndBeyondCount) {
  auto samples = oneTo(1000);
  const Percentile p99 = percentile(samples, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.reportable());

  const Percentile p50 = percentile(samples, 0.5);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, TooFewSamplesBeyondIsNotReportable) {
  auto samples = oneTo(999);
  const Percentile p99 = percentile(samples, 0.99);
  EXPECT_EQ(p99.beyond, 9u);
  EXPECT_FALSE(p99.reportable());

  auto nineteen = oneTo(19);
  EXPECT_FALSE(percentile(nineteen, 0.5).reportable());
  auto twenty = oneTo(20);
  EXPECT_TRUE(percentile(twenty, 0.5).reportable());
}

TEST(Percentile, EmptyAndSingle) {
  std::vector<double> none;
  const Percentile p = percentile(none, 0.99);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_FALSE(p.reportable());
  std::vector<double> one{7.0};
  EXPECT_EQ(percentile(one, 0.99).value, 7.0);
  EXPECT_EQ(percentile(one, 0.99).beyond, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(PairFifo, PairsByRankPerLinkInTimeOrder) {
  // Two links interleaved, inputs out of time order.
  const std::vector<LinkEvent> sends{
      {0, 1, 30}, {0, 1, 10}, {2, 1, 15}, {0, 1, 20}};
  const std::vector<LinkEvent> receives{
      {2, 1, 40}, {0, 1, 35}, {0, 1, 12}, {0, 1, 25}};
  const auto paired = pairFifo(sends, receives);
  ASSERT_EQ(paired.size(), 4u);
  EXPECT_EQ(paired[0], 2u);  // link 2->1: only send
  EXPECT_EQ(paired[2], 1u);  // first receive on 0->1 <- send at 10
  EXPECT_EQ(paired[3], 3u);  // second <- send at 20
  EXPECT_EQ(paired[1], 0u);  // third <- send at 30
}

TEST(PairFifo, ExtraReceivesAndUnknownLinksStayUnpaired) {
  const std::vector<LinkEvent> sends{{0, 1, 10}};
  const std::vector<LinkEvent> receives{{0, 1, 11}, {0, 1, 12}, {3, 4, 5}};
  const auto paired = pairFifo(sends, receives);
  EXPECT_EQ(paired[0], 0u);
  EXPECT_EQ(paired[1], kUnpaired);
  EXPECT_EQ(paired[2], kUnpaired);
}

TEST(CheckRanked, ExactContract) {
  const TopKVector truth{90, 80, 70};
  EXPECT_TRUE(checkRanked({90, 80, 70}, truth, Contract::Exact, 0).ok);
  const Verdict off = checkRanked({90, 80, 60}, truth, Contract::Exact, 0);
  EXPECT_FALSE(off.ok);
  EXPECT_DOUBLE_EQ(off.precision, 2.0 / 3.0);
  EXPECT_FALSE(checkRanked({90, 80}, truth, Contract::Exact, 0).ok);
}

TEST(CheckRanked, SoundContractAllowsLowSlotsOnly) {
  const TopKVector truth{90, 80, 70};
  const Verdict low = checkRanked({90, 75, 70}, truth, Contract::Sound, 0);
  EXPECT_TRUE(low.ok);
  EXPECT_DOUBLE_EQ(low.precision, 2.0 / 3.0);
  EXPECT_FALSE(checkRanked({90, 81, 70}, truth, Contract::Sound, 0).ok);
  EXPECT_FALSE(checkRanked({70, 80, 90}, truth, Contract::Sound, 0).ok)
      << "ascending order must fail";
}

TEST(CheckRanked, SoundContractHonoursSlack) {
  const TopKVector truth{90, 80, 70};
  EXPECT_TRUE(checkRanked({96, 80, 70}, truth, Contract::Sound, 6).ok);
  EXPECT_FALSE(checkRanked({97, 80, 70}, truth, Contract::Sound, 6).ok);
}

TEST(CheckAggregate, ExactTotals) {
  EXPECT_TRUE(checkAggregate({100, 4}, {100, 4}).ok);
  EXPECT_EQ(checkAggregate({100, 4}, {100, 4}).precision, 1.0);
  EXPECT_FALSE(checkAggregate({101, 4}, {100, 4}).ok);
}

}  // namespace
}  // namespace perfbench
