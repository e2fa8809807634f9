#include "query/cache.hpp"

#include <utility>

#include "common/error.hpp"

namespace privtopk::query {

ResultCache::ResultCache(Options options) : options_(options) {
  if (options_.capacity == 0) {
    throw ConfigError("ResultCache: capacity must be >= 1");
  }
}

std::string ResultCache::keyFor(const QueryDescriptor& descriptor,
                                std::uint64_t dataEpoch) {
  const Bytes encoded = normalizedForCaching(descriptor).encode();
  std::string key(encoded.begin(), encoded.end());
  for (int i = 0; i < 8; ++i) {
    key.push_back(static_cast<char>(dataEpoch >> (8 * i)));
  }
  return key;
}

std::optional<QueryOutcome> ResultCache::lookup(const std::string& key,
                                                Clock::time_point now) {
  std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  if (options_.ttl.count() > 0 &&
      now - it->second->insertedAt >= options_.ttl) {
    ++counters_.expirations;
    ++counters_.misses;
    dropLocked(it->second);
    return std::nullopt;
  }
  // Refresh recency: the entry moves to the MRU front.
  entries_.splice(entries_.begin(), entries_, it->second);
  ++counters_.hits;
  return entries_.front().outcome;
}

void ResultCache::insert(const std::string& key, QueryOutcome outcome,
                         Clock::time_point now) {
  std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->outcome = std::move(outcome);
    it->second->insertedAt = now;
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  entries_.push_front(Entry{key, std::move(outcome), now});
  index_[key] = entries_.begin();
  if (entries_.size() > options_.capacity) {
    ++counters_.evictions;
    dropLocked(std::prev(entries_.end()));
  }
}

void ResultCache::erase(const std::string& key) {
  std::scoped_lock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) dropLocked(it->second);
}

void ResultCache::clear() {
  std::scoped_lock lock(mutex_);
  entries_.clear();
  index_.clear();
}

std::size_t ResultCache::size() const {
  std::scoped_lock lock(mutex_);
  return entries_.size();
}

ResultCache::Counters ResultCache::counters() const {
  std::scoped_lock lock(mutex_);
  return counters_;
}

void ResultCache::dropLocked(std::list<Entry>::iterator it) {
  index_.erase(it->key);
  entries_.erase(it);
}

}  // namespace privtopk::query
