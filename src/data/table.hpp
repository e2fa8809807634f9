// A small typed, columnar in-memory table: the storage layer of a private
// database.  Columns are Int (attribute values), Real, or Text.  The paper
// assumes schemas are matched across parties, so Table carries an explicit
// schema that PrivateDatabase checks at query time.
//
// Each int column's *value order* (its row ids in ascending value order)
// serves the ranked local scan (data::selectBest).  It is built the first
// time a ranked scan asks for it and kept until the next appendRow, so a
// node sorts its values once, as the paper's initialisation step does, not
// once per query.  It stays inside the table: nothing reads it but this
// node's own scans.
//
// Each int column also keeps a running total of its values, so an
// unfiltered Sum, Count or Average reads one number instead of the column.
//
// Scans may run concurrently on one table (the first ones race to build
// an order, which is built once, under the column's lock).  Appending a
// row while another thread scans the table is not supported.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace privtopk::data {

enum class ColumnType { Int, Real, Text };

[[nodiscard]] std::string toString(ColumnType t);

/// One cell of a row.
using Cell = std::variant<Value, double, std::string>;

/// Column descriptor.
struct ColumnSpec {
  std::string name;
  ColumnType type;

  friend bool operator==(const ColumnSpec&, const ColumnSpec&) = default;
};

/// Table schema: ordered column specs with unique names.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns);

  [[nodiscard]] std::size_t columnCount() const { return columns_.size(); }
  [[nodiscard]] const ColumnSpec& column(std::size_t i) const {
    return columns_.at(i);
  }
  [[nodiscard]] const std::vector<ColumnSpec>& columns() const {
    return columns_;
  }

  /// Index of the named column; throws SchemaError if absent.
  [[nodiscard]] std::size_t indexOf(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;

  friend bool operator==(const Schema&, const Schema&) = default;

 private:
  std::vector<ColumnSpec> columns_;
};

/// Sum and row count of a column's selected rows.  The sum wraps modulo
/// 2^64 (read as two's complement), as the secure sum that carries it does.
struct ColumnSum {
  std::int64_t sum = 0;
  std::int64_t rows = 0;
};

/// Row ids of `values` in ascending value order, ties in row order: an LSD
/// radix sort on value - min with one byte pass per byte of the range
/// (none when every value is equal).  Stable and deterministic.  Throws
/// SchemaError past 2^32 - 1 rows.
[[nodiscard]] std::vector<std::uint32_t> valueOrderOf(
    std::span<const Value> values);

/// Columnar table.  Rows are appended; cells are stored per column.
/// Copies and moves start with no value order built, and carry each
/// column's running total with its values.
class Table {
 public:
  explicit Table(Schema schema);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t rowCount() const { return rowCount_; }

  /// Appends a row; the cell count and types must match the schema.
  /// Drops every value order built so far.
  void appendRow(const std::vector<Cell>& row);

  /// Typed column accessors; throw SchemaError on name or type mismatch.
  [[nodiscard]] const std::vector<Value>& intColumn(
      const std::string& name) const;
  [[nodiscard]] const std::vector<double>& realColumn(
      const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& textColumn(
      const std::string& name) const;

  /// The sum (mod 2^64) and count of all of the int column's rows, kept up
  /// to date by appendRow.
  [[nodiscard]] ColumnSum intColumnTotal(const std::string& name) const;

  /// The int column's value order (valueOrderOf), built on first use.  It
  /// stays valid until the next appendRow or the table's end.
  [[nodiscard]] std::span<const std::uint32_t> valueOrder(
      const std::string& name) const;

  /// Cell access by (row, column index).
  [[nodiscard]] Cell at(std::size_t row, std::size_t col) const;

 private:
  /// One int column's value order, built once and then read without a
  /// lock.  Copying or moving a slot gives an empty one.
  class OrderSlot {
   public:
    OrderSlot() = default;
    OrderSlot(const OrderSlot&) noexcept {}
    OrderSlot& operator=(const OrderSlot&) noexcept {
      reset();
      return *this;
    }
    ~OrderSlot() { reset(); }

    [[nodiscard]] std::span<const std::uint32_t> get(
        std::span<const Value> values) const;
    /// Drops the order; must not race with get().  A load first, so
    /// appending to a table no scan has read costs no atomic write.
    void reset() noexcept {
      if (published_.load() != nullptr) delete published_.exchange(nullptr);
    }

   private:
    mutable std::mutex building_;
    mutable std::atomic<const std::vector<std::uint32_t>*> published_{
        nullptr};
  };

  struct IntColumn {
    std::vector<Value> values;
    std::uint64_t sum = 0;  ///< of `values`, mod 2^64
    OrderSlot order;
  };

  using ColumnData = std::variant<IntColumn, std::vector<double>,
                                  std::vector<std::string>>;

  /// The named column's data; throws SchemaError unless it has type `want`
  /// (`accessor` names the caller in the message).
  [[nodiscard]] const ColumnData& column(const std::string& name,
                                         ColumnType want,
                                         const char* accessor) const;

  Schema schema_;
  std::vector<ColumnData> columns_;
  std::size_t rowCount_ = 0;
};

}  // namespace privtopk::data
