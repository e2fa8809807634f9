#include "query/cache.hpp"

#include <gtest/gtest.h>

#include <set>

namespace privtopk::query {
namespace {

QueryDescriptor descriptor(std::uint64_t queryId = 1, std::size_t k = 3) {
  QueryDescriptor d;
  d.queryId = queryId;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = 12;
  return d;
}

QueryOutcome outcomeOf(Value v) {
  QueryOutcome outcome;
  outcome.values = {v};
  return outcome;
}

TEST(ResultCache, TtlExpiresEntriesDeterministically) {
  ResultCache::Options options;
  options.ttl = std::chrono::milliseconds(100);
  ResultCache cache(options);
  const auto t0 = ResultCache::Clock::now();

  cache.insert("a", outcomeOf(1), t0);
  ASSERT_TRUE(cache.lookup("a", t0 + std::chrono::milliseconds(99)));
  // At exactly the TTL the entry is stale: expired AND counted as a miss.
  EXPECT_FALSE(cache.lookup("a", t0 + std::chrono::milliseconds(100)));
  EXPECT_EQ(cache.size(), 0u);

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.expirations, 1u);
}

TEST(ResultCache, LookupRefreshesRecencyForEviction) {
  ResultCache::Options options;
  options.capacity = 2;
  ResultCache cache(options);
  const auto t0 = ResultCache::Clock::now();

  cache.insert("a", outcomeOf(1), t0);
  cache.insert("b", outcomeOf(2), t0);
  ASSERT_TRUE(cache.lookup("a", t0));  // "b" is now least recently used
  cache.insert("c", outcomeOf(3), t0);

  EXPECT_TRUE(cache.lookup("a", t0));
  EXPECT_FALSE(cache.lookup("b", t0));
  EXPECT_TRUE(cache.lookup("c", t0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ResultCache, InsertRefreshesExistingKey) {
  ResultCache cache;
  const auto t0 = ResultCache::Clock::now();
  cache.insert("a", outcomeOf(1), t0);
  cache.insert("a", outcomeOf(2), t0 + std::chrono::milliseconds(1));
  const auto hit = cache.lookup("a", t0 + std::chrono::milliseconds(2));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->values, TopKVector{2});
  EXPECT_EQ(cache.size(), 1u);

  // keyFor: the query id is a transport nonce, so re-asking the same
  // question refreshes one key; a different k or type is a different
  // question and must never share (or refresh) another's entry.
  QueryDescriptor bottom = descriptor(1, 3);
  bottom.type = QueryType::BottomK;
  EXPECT_EQ(ResultCache::keyFor(descriptor(1, 3), 0),
            ResultCache::keyFor(descriptor(999, 3), 0));
  const std::set<std::string> keys = {ResultCache::keyFor(descriptor(1, 3), 0),
                                      ResultCache::keyFor(descriptor(1, 5), 0),
                                      ResultCache::keyFor(bottom, 0)};
  EXPECT_EQ(keys.size(), 3u);
}

TEST(ResultCache, ZeroCapacityIsAConfigError) {
  ResultCache::Options options;
  options.capacity = 0;
  EXPECT_THROW(ResultCache cache(options), ConfigError);
}

}  // namespace
}  // namespace privtopk::query
