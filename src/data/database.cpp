#include "data/database.hpp"

#include <algorithm>

namespace privtopk::data {

namespace {

/// The best k values offered so far, kept in a heap ordered by `Better`
/// (Better(a, b): a ranks ahead of b), so its front is the worst value
/// kept and a value that cannot enter costs one comparison.  k >= 1.
template <typename Better>
class BestK {
 public:
  explicit BestK(std::size_t k) : k_(k) {}

  void offer(const Value* values, std::size_t n) {
    std::size_t i = 0;
    for (; i < n && heap_.size() < k_; ++i) {
      heap_.push_back(values[i]);
      std::push_heap(heap_.begin(), heap_.end(), better_);
    }
    if (i == n) return;
    Value worst = heap_.front();
    for (; i < n; ++i) {
      if (!better_(values[i], worst)) continue;
      std::pop_heap(heap_.begin(), heap_.end(), better_);
      heap_.back() = values[i];
      std::push_heap(heap_.begin(), heap_.end(), better_);
      worst = heap_.front();
    }
  }

  /// The kept values, best first.
  [[nodiscard]] TopKVector take() && {
    std::sort_heap(heap_.begin(), heap_.end(), better_);
    return std::move(heap_);
  }

 private:
  std::size_t k_;
  Better better_;
  TopKVector heap_;
};

/// Copies the values whose mask byte is 1 to the front of `out`, in row
/// order and without branches; returns how many it kept.
std::size_t compact(const Value* __restrict values,
                    const std::uint8_t* __restrict mask, std::size_t n,
                    Value* __restrict out) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[kept] = values[i];
    kept += mask[i];
  }
  return kept;
}

/// Sets mask[0..n) to the rows of the block at `begin` that `filter`
/// keeps, n being the block's row count, which it returns.
std::size_t narrowBlock(const BlockFilter& filter, std::size_t begin,
                        std::size_t rows, std::uint8_t* mask) {
  const std::size_t n = std::min(kScanBlockRows, rows - begin);
  std::fill_n(mask, n, std::uint8_t{1});
  filter(begin, n, mask);
  return n;
}

/// Sums the values whose mask byte is 1, without branches.
ColumnSum maskedSum(const Value* __restrict values,
                    const std::uint8_t* __restrict mask, std::size_t n) {
  ColumnSum block;
  forEachInBlock(n, [&](std::size_t i) {
    block.sum += values[i] & -static_cast<Value>(mask[i]);
    block.rows += mask[i];
  });
  return block;
}

template <typename Better>
TopKVector selectWith(std::span<const Value> column, std::size_t k,
                      const BlockFilter& filter) {
  BestK<Better> kept(k);
  if (!filter) {
    kept.offer(column.data(), column.size());
    return std::move(kept).take();
  }
  std::uint8_t mask[kScanBlockRows];
  Value selected[kScanBlockRows];
  for (std::size_t begin = 0; begin < column.size(); begin += kScanBlockRows) {
    const std::size_t n = narrowBlock(filter, begin, column.size(), mask);
    kept.offer(selected, compact(column.data() + begin, mask, n, selected));
  }
  return std::move(kept).take();
}

/// Adapts a row predicate into a block filter (one predicate call per
/// row); an empty predicate gives an empty filter.
BlockFilter blockFilterOf(const Table& table, const RowPredicate& predicate) {
  if (!predicate) return {};
  return [&table, predicate](std::size_t begin, std::size_t n,
                             std::uint8_t* mask) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!predicate(table, begin + i)) mask[i] = 0;
    }
  };
}

}  // namespace

TopKVector selectBest(std::span<const Value> column, std::size_t k, Best best,
                      const BlockFilter& filter) {
  if (k == 0) return {};
  return best == Best::Largest ? selectWith<std::greater<>>(column, k, filter)
                               : selectWith<std::less<>>(column, k, filter);
}

ColumnSum sumSelected(std::span<const Value> column,
                      const BlockFilter& filter) {
  ColumnSum total;
  if (!filter) {
    for (const Value v : column) total.sum += v;
    total.rows = static_cast<std::int64_t>(column.size());
    return total;
  }
  std::uint8_t mask[kScanBlockRows];
  for (std::size_t begin = 0; begin < column.size(); begin += kScanBlockRows) {
    const std::size_t n = narrowBlock(filter, begin, column.size(), mask);
    const ColumnSum block = maskedSum(column.data() + begin, mask, n);
    total.sum += block.sum;
    total.rows += block.rows;
  }
  return total;
}

void PrivateDatabase::addTable(const std::string& tableName, Table table) {
  const auto [it, inserted] = tables_.emplace(tableName, std::move(table));
  (void)it;
  if (!inserted) {
    throw SchemaError("PrivateDatabase: table '" + tableName +
                      "' already exists");
  }
}

bool PrivateDatabase::hasTable(const std::string& tableName) const {
  return tables_.contains(tableName);
}

const Table& PrivateDatabase::table(const std::string& tableName) const {
  const auto it = tables_.find(tableName);
  if (it == tables_.end()) {
    throw SchemaError("PrivateDatabase: no table '" + tableName + "'");
  }
  return it->second;
}

Table& PrivateDatabase::table(const std::string& tableName) {
  const auto it = tables_.find(tableName);
  if (it == tables_.end()) {
    throw SchemaError("PrivateDatabase: no table '" + tableName + "'");
  }
  return it->second;
}

std::vector<std::string> PrivateDatabase::tableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

TopKVector PrivateDatabase::localTopK(const std::string& tableName,
                                      const std::string& attribute,
                                      std::size_t k,
                                      const RowPredicate& predicate) const {
  const Table& t = table(tableName);
  return selectBest(t.intColumn(attribute), k, Best::Largest,
                    blockFilterOf(t, predicate));
}

TopKVector PrivateDatabase::localBottomK(const std::string& tableName,
                                         const std::string& attribute,
                                         std::size_t k,
                                         const RowPredicate& predicate) const {
  const Table& t = table(tableName);
  return selectBest(t.intColumn(attribute), k, Best::Smallest,
                    blockFilterOf(t, predicate));
}

std::optional<Value> PrivateDatabase::localMax(
    const std::string& tableName, const std::string& attribute,
    const RowPredicate& predicate) const {
  const TopKVector top = localTopK(tableName, attribute, 1, predicate);
  if (top.empty()) return std::nullopt;
  return top.front();
}

std::optional<Value> PrivateDatabase::localMin(
    const std::string& tableName, const std::string& attribute,
    const RowPredicate& predicate) const {
  const TopKVector bottom = localBottomK(tableName, attribute, 1, predicate);
  if (bottom.empty()) return std::nullopt;
  return bottom.front();
}

}  // namespace privtopk::data
