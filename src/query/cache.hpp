// Query-result cache: the mitigation for repeated-query privacy erosion.
//
// bench_ext_multiquery shows that re-running the same query over static
// data lets a multi-round Bayesian adversary keep sharpening its posterior
// - the protocol's guarantees are per-execution and do not compose.
// Answering a repeated question from cache gives the same answer with
// ZERO additional protocol executions, i.e. zero additional leakage.
//
// ResultCache is the storage layer the query::Gateway builds on: a
// thread-safe, capacity-bounded (LRU) and TTL-bounded map from normalized
// descriptor + data epoch to QueryOutcome.  Time is passed in explicitly
// so expiry is deterministic under test.
//
// The cache must be invalidated when any party's data changes; parties in
// a real deployment would version their datasets, so the cache key
// includes a caller-supplied data epoch (the gateway owns the epoch and
// bumps it through its invalidation hooks).

#pragma once

#include <chrono>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "query/federation.hpp"

namespace privtopk::query {

/// Thread-safe LRU + TTL bounded map from cache key to QueryOutcome.
class ResultCache {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    /// Maximum retained entries; the least recently USED entry is evicted
    /// when a new insert exceeds it.  Must be >= 1.
    std::size_t capacity = 1024;
    /// Entries older than this are expired at lookup time; zero disables
    /// expiry (entries live until evicted or invalidated).
    std::chrono::milliseconds ttl{0};
  };

  /// Monotonic event counts (never reset; read for stats/tests).
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;    ///< dropped by capacity pressure
    std::uint64_t expirations = 0;  ///< dropped by TTL at lookup
  };

  // (no in-class default argument: Options' member initializers are not
  // yet parsed at this point of the enclosing class)
  ResultCache() : ResultCache(Options{}) {}
  explicit ResultCache(Options options);

  /// Returns the cached outcome and refreshes its recency, or nullopt on
  /// miss/expiry.  `now` defaults to the real clock; tests inject time.
  [[nodiscard]] std::optional<QueryOutcome> lookup(
      const std::string& key, Clock::time_point now = Clock::now());

  /// Inserts (or refreshes) `key`, evicting the LRU entry beyond capacity.
  void insert(const std::string& key, QueryOutcome outcome,
              Clock::time_point now = Clock::now());

  /// Drops one entry; no-op when absent.
  void erase(const std::string& key);

  /// Drops every cached entry.
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Counters counters() const;

  /// Cache key: the canonical encoding of the NORMALIZED descriptor (see
  /// normalizedForCaching - queryId zeroed, equivalent questions merged)
  /// plus the data epoch, so equal questions cannot miss the cache and
  /// trigger an extra leaking execution.
  [[nodiscard]] static std::string keyFor(const QueryDescriptor& descriptor,
                                          std::uint64_t dataEpoch);

 private:
  struct Entry {
    std::string key;
    QueryOutcome outcome;
    Clock::time_point insertedAt;
  };

  /// mutex_ held.  Front of entries_ is most recently used.
  void dropLocked(std::list<Entry>::iterator it);

  Options options_;
  mutable std::mutex mutex_;
  std::list<Entry> entries_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Counters counters_;
};

}  // namespace privtopk::query
