// PrivateDatabase: one participant's local data store.
//
// Each node owns a PrivateDatabase holding one or more tables.  The only
// thing the protocol ever extracts from it is the *local top-k vector* of a
// named integer attribute (optionally filtered by a predicate) - this is
// the paper's initialization step where "each node first sorts its values
// and takes the local set of topk values ... to participate in the
// protocol".  The sort happens once per column: the table keeps the
// column's value order (Table::valueOrder) from the first ranked scan
// until the next appended row, and every scan walks it from the best end.
// Scans may run concurrently; appending rows to a table while queries
// scan it is not supported.  Nothing else leaves the database object.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "data/table.hpp"

namespace privtopk::data {

/// Optional row filter applied before extracting attribute values; receives
/// the table and a row index.
using RowPredicate = std::function<bool(const Table&, std::size_t)>;

/// Rows a filter evaluates at a time: a block filter is called once per
/// block of this many rows, never per row.
inline constexpr std::size_t kScanBlockRows = 1024;

/// Calls body(i) for every i < n, n <= kScanBlockRows.  A full block's
/// trip count is a compile-time constant, which lets even -O2's cheap
/// vectoriser take a branch-free body.
template <typename Body>
inline void forEachInBlock(std::size_t n, const Body& body) {
  if (n == kScanBlockRows) {
    for (std::size_t i = 0; i < kScanBlockRows; ++i) body(i);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

/// A row filter evaluated one column block at a time: for every i < n it
/// clears mask[i] when row `begin + i` does not qualify, and leaves the
/// other bytes (each 0 or 1) alone.  Called once per block, never per row.
using BlockFilter =
    std::function<void(std::size_t begin, std::size_t n, std::uint8_t* mask)>;

/// Which end of the value order a selection keeps.
enum class Best { Largest, Smallest };

/// The k best values of int column `column` of `table` among the rows
/// `filter` keeps (all rows when it is empty), best first: descending for
/// Largest, ascending for Smallest.  Duplicates are kept.  Walks the
/// column's value order (Table::valueOrder, sorted on the first call) from
/// the best end: an unfiltered scan reads k rows; a filtered one runs the
/// filter once into a row mask and stops at the k-th kept row.  Throws
/// SchemaError unless `column` is an int column.
[[nodiscard]] TopKVector selectBest(const Table& table,
                                    const std::string& column, std::size_t k,
                                    Best best, const BlockFilter& filter = {});

/// Sum (mod 2^64) and count of the rows `filter` keeps.  Without a filter,
/// Table::intColumnTotal answers the same without reading the column.
[[nodiscard]] ColumnSum sumSelected(std::span<const Value> column,
                                    const BlockFilter& filter = {});

class PrivateDatabase {
 public:
  explicit PrivateDatabase(std::string ownerName = "anonymous")
      : ownerName_(std::move(ownerName)) {}

  [[nodiscard]] const std::string& ownerName() const { return ownerName_; }

  /// Adds a table under `tableName`; throws SchemaError if the name exists.
  void addTable(const std::string& tableName, Table table);

  [[nodiscard]] bool hasTable(const std::string& tableName) const;
  [[nodiscard]] const Table& table(const std::string& tableName) const;
  [[nodiscard]] Table& table(const std::string& tableName);
  [[nodiscard]] std::vector<std::string> tableNames() const;

  /// Local top-k: the k largest values of `attribute` in `tableName`
  /// (all values if fewer than k rows), sorted descending.  Duplicates kept
  /// (the global vector is a multiset).  `predicate`, when given, restricts
  /// which rows participate.  Walks the column's value order (see
  /// selectBest).
  [[nodiscard]] TopKVector localTopK(const std::string& tableName,
                                     const std::string& attribute,
                                     std::size_t k,
                                     const RowPredicate& predicate = {}) const;

  /// Local bottom-k (k smallest ascending); the min/k-min query dual used
  /// by the kNN extension where smaller distance is better.
  [[nodiscard]] TopKVector localBottomK(
      const std::string& tableName, const std::string& attribute,
      std::size_t k, const RowPredicate& predicate = {}) const;

  /// Local max/min (top/bottom 1); nullopt when no rows qualify.
  [[nodiscard]] std::optional<Value> localMax(
      const std::string& tableName, const std::string& attribute,
      const RowPredicate& predicate = {}) const;
  [[nodiscard]] std::optional<Value> localMin(
      const std::string& tableName, const std::string& attribute,
      const RowPredicate& predicate = {}) const;

 private:
  std::string ownerName_;
  std::map<std::string, Table> tables_;
};

}  // namespace privtopk::data
