#include "data/database.hpp"

#include <algorithm>
#include <memory>

namespace privtopk::data {

namespace {

/// Sets mask[0..n) to the rows of the block at `begin` that `filter`
/// keeps, n being the block's row count, which it returns.
std::size_t narrowBlock(const BlockFilter& filter, std::size_t begin,
                        std::size_t rows, std::uint8_t* mask) {
  const std::size_t n = std::min(kScanBlockRows, rows - begin);
  std::fill_n(mask, n, std::uint8_t{1});
  filter(begin, n, mask);
  return n;
}

/// Adds the values whose mask byte is 1 to `sum` (mod 2^64) and their
/// count to `rows`, without branches.
void maskedSum(const Value* __restrict values,
               const std::uint8_t* __restrict mask, std::size_t n,
               std::uint64_t& sum, std::int64_t& rows) {
  std::uint64_t blockSum = 0;
  std::int64_t blockRows = 0;
  forEachInBlock(n, [&](std::size_t i) {
    blockSum += static_cast<std::uint64_t>(values[i]) &
                -static_cast<std::uint64_t>(mask[i]);
    blockRows += mask[i];
  });
  sum += blockSum;
  rows += blockRows;
}

/// The values of the best k rows whose `mask` byte is set (every row when
/// `mask` is null), best first; fewer when fewer rows are set.  `best`
/// points at the best of n row ids in a value order, and best[Step * i] is
/// the i-th best: Step is -1 when the best end is the back.
template <std::ptrdiff_t Step>
TopKVector walk(const Value* values, const std::uint32_t* best,
                std::ptrdiff_t n, std::size_t k, const std::uint8_t* mask) {
  TopKVector out(std::min(k, static_cast<std::size_t>(n)));
  const std::size_t want = out.size();
  if (mask == nullptr) {
    for (std::size_t i = 0; i < want; ++i) {
      out[i] = values[best[Step * static_cast<std::ptrdiff_t>(i)]];
    }
    return out;
  }
  // Most rows of a selective filter are dropped: test a stride of rows
  // with one branch, and look at its rows one by one only when one stays.
  // With it, BM_LocalInput/rare_eq_topk (~5 of 50k rows kept) reads
  // 73-78 us; with one branch per row, 107-136 us; the heap select this
  // walk replaced read 69-79 us (4-vCPU x86-64 VM, RelWithDebInfo).
  constexpr std::ptrdiff_t kStride = 16;
  std::size_t found = 0;
  for (std::ptrdiff_t i = 0; i < n && found < want; i += kStride) {
    const std::uint32_t* stride = best + Step * i;
    const std::ptrdiff_t len = std::min(kStride, n - i);
    if (len == kStride) {
      std::uint8_t any = 0;
      for (std::ptrdiff_t j = 0; j < kStride; ++j) {
        any |= mask[stride[Step * j]];
      }
      if (any == 0) continue;
    }
    for (std::ptrdiff_t j = 0; j < len && found < want; ++j) {
      const std::uint32_t row = stride[Step * j];
      if (mask[row] != 0) out[found++] = values[row];
    }
  }
  out.resize(found);
  return out;
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

TopKVector selectBest(const Table& table, const std::string& column,
                      std::size_t k, Best best, const BlockFilter& filter) {
  const std::vector<Value>& values = table.intColumn(column);
  if (k == 0 || values.empty()) return {};
  const std::size_t rows = values.size();
  std::unique_ptr<std::uint8_t[]> mask;
  if (filter) {
    mask = std::make_unique_for_overwrite<std::uint8_t[]>(rows);
    for (std::size_t begin = 0; begin < rows; begin += kScanBlockRows) {
      narrowBlock(filter, begin, rows, &mask[begin]);
    }
  }
  const std::span<const std::uint32_t> order = table.valueOrder(column);
  const auto n = static_cast<std::ptrdiff_t>(rows);
  return best == Best::Largest
             ? walk<-1>(values.data(), &order.back(), n, k, mask.get())
             : walk<1>(values.data(), order.data(), n, k, mask.get());
}

ColumnSum sumSelected(std::span<const Value> column,
                      const BlockFilter& filter) {
  std::uint64_t sum = 0;
  std::int64_t rows = 0;
  if (!filter) {
    for (const Value v : column) sum += static_cast<std::uint64_t>(v);
    rows = static_cast<std::int64_t>(column.size());
  } else {
    std::uint8_t mask[kScanBlockRows];
    for (std::size_t begin = 0; begin < column.size();
         begin += kScanBlockRows) {
      const std::size_t n = narrowBlock(filter, begin, column.size(), mask);
      maskedSum(column.data() + begin, mask, n, sum, rows);
    }
  }
  return {static_cast<std::int64_t>(sum), rows};
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
  return selectBest(t, attribute, k, Best::Largest,
                    blockFilterOf(t, predicate));
}

TopKVector PrivateDatabase::localBottomK(const std::string& tableName,
                                         const std::string& attribute,
                                         std::size_t k,
                                         const RowPredicate& predicate) const {
  const Table& t = table(tableName);
  return selectBest(t, attribute, k, Best::Smallest,
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
