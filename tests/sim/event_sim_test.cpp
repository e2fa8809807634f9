#include "sim/event_sim.hpp"

#include <gtest/gtest.h>

#include <vector>


namespace privtopk::sim {
namespace {

TEST(EventSimulator, ProcessesInTimeOrder) {
  EventSimulator sim;
  std::vector<int> order;
  sim.scheduleAt(5.0, [&] { order.push_back(2); });
  sim.scheduleAt(1.0, [&] { order.push_back(1); });
  sim.scheduleAt(9.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(EventSimulator, TiesBreakByInsertionOrder) {
  EventSimulator sim;
  std::vector<int> order;
  sim.scheduleAt(1.0, [&] { order.push_back(1); });
  sim.scheduleAt(1.0, [&] { order.push_back(2); });
  sim.scheduleAt(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventSimulator, HandlersCanScheduleMoreEvents) {
  EventSimulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now());
    if (times.size() < 5) sim.scheduleAfter(2.0, chain);
  };
  sim.scheduleAt(0.0, chain);
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{0, 2, 4, 6, 8}));
}

TEST(EventSimulator, StepReturnsFalseWhenEmpty) {
  EventSimulator sim;
  EXPECT_FALSE(sim.step());
  sim.scheduleAt(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(EventSimulator, RejectsSchedulingIntoThePast) {
  EventSimulator sim;
  sim.scheduleAt(10.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_THROW(sim.scheduleAt(5.0, [] {}), Error);
}

TEST(EventSimulator, RunawayScheduleGuard) {
  EventSimulator sim;
  std::function<void()> forever = [&] { sim.scheduleAfter(1.0, forever); };
  sim.scheduleAt(0.0, forever);
  EXPECT_THROW(sim.run(1000), Error);
}

TEST(LatencyModels, FixedIsConstant) {
  FixedLatency lat(3.5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(lat.sample(rng), 3.5);
  EXPECT_THROW(FixedLatency(-1.0), ConfigError);
}

TEST(LatencyModels, UniformWithinRange) {
  UniformLatency lat(2.0, 8.0);
  Rng rng(2);
  double lo = 100;
  double hi = -100;
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = lat.sample(rng);
    ASSERT_GE(t, 2.0);
    ASSERT_LE(t, 8.0);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_LT(lo, 3.0);
  EXPECT_GT(hi, 7.0);
  EXPECT_THROW(UniformLatency(5.0, 2.0), ConfigError);
}

TEST(LatencyModels, ExponentialAboveBase) {
  ExponentialLatency lat(10.0, 5.0);
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const SimTime t = lat.sample(rng);
    ASSERT_GE(t, 10.0);
    sum += t;
  }
  EXPECT_NEAR(sum / 5000, 15.0, 0.5);
  EXPECT_THROW(ExponentialLatency(1.0, 0.0), ConfigError);
}

}  // namespace
}  // namespace privtopk::sim
