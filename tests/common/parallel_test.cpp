#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

namespace privtopk {
namespace {

using namespace std::chrono_literals;

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}, std::size_t{32}}) {
    std::vector<std::atomic<int>> hits(101);
    parallelFor(threads, hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ZeroCountRunsNothing) {
  std::atomic<int> calls{0};
  parallelFor(4, 0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallelFor(16, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroThreadsRunsInline) {
  std::vector<std::atomic<int>> hits(5);
  parallelFor(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  std::atomic<int> calls{0};
  EXPECT_THROW(
      parallelFor(4, 1000,
                  [&](std::size_t i) {
                    calls.fetch_add(1);
                    if (i == 37) throw std::runtime_error("boom");
                    // Fixed work per index: without it the other workers
                    // drain 1000 empty bodies before the first throw of
                    // the process has finished unwinding, and the bound
                    // below would time the unwinder, not the park.
                    std::this_thread::sleep_for(100us);
                  }),
      std::runtime_error);
  // The failing iteration parks the shared counter, so the fan-out stops
  // well before draining all 1000 indices.
  EXPECT_LT(calls.load(), 1000);
}

TEST(ResolveThreadCount, ExplicitRequestWins) {
  ::setenv(kBenchThreadsEnvVar, "3", 1);
  EXPECT_EQ(resolveThreadCount(5, kBenchThreadsEnvVar), 5u);
  ::unsetenv(kBenchThreadsEnvVar);
}

TEST(ResolveThreadCount, EnvVarUsedWhenUnrequested) {
  ::setenv(kBenchThreadsEnvVar, "3", 1);
  EXPECT_EQ(resolveThreadCount(0, kBenchThreadsEnvVar), 3u);
  ::unsetenv(kBenchThreadsEnvVar);
}

TEST(ResolveThreadCount, MalformedEnvIgnored) {
  for (const char* bad : {"", "abc", "-2", "0", "4x"}) {
    ::setenv(kBenchThreadsEnvVar, bad, 1);
    EXPECT_GE(resolveThreadCount(0, kBenchThreadsEnvVar), 1u) << bad;
  }
  ::unsetenv(kBenchThreadsEnvVar);
}

TEST(ResolveThreadCount, FallsBackToHardware) {
  ::unsetenv(kBenchThreadsEnvVar);
  EXPECT_GE(resolveThreadCount(0, kBenchThreadsEnvVar), 1u);
  EXPECT_GE(resolveThreadCount(0, nullptr), 1u);
}

}  // namespace
}  // namespace privtopk
