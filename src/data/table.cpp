#include "data/table.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

namespace privtopk::data {

std::string toString(ColumnType t) {
  switch (t) {
    case ColumnType::Int: return "int";
    case ColumnType::Real: return "real";
    case ColumnType::Text: return "text";
  }
  return "?";
}

Schema::Schema(std::vector<ColumnSpec> columns) : columns_(std::move(columns)) {
  std::unordered_set<std::string> seen;
  for (const auto& c : columns_) {
    if (!seen.insert(c.name).second) {
      throw SchemaError("Schema: duplicate column '" + c.name + "'");
    }
  }
}

std::size_t Schema::indexOf(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  throw SchemaError("Schema: no column named '" + name + "'");
}

bool Schema::has(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

std::vector<std::uint32_t> valueOrderOf(std::span<const Value> values) {
  const std::size_t n = values.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw SchemaError("valueOrderOf: more than 2^32 - 1 rows");
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  if (n < 2) return order;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  const auto min = static_cast<std::uint64_t>(*lo);
  const std::uint64_t range = static_cast<std::uint64_t>(*hi) - min;
  std::size_t passes = 0;
  while (passes < 8 && (range >> (8 * passes)) != 0) ++passes;
  if (passes == 0) return order;

  const auto key = [&](std::size_t row) {
    return static_cast<std::uint64_t>(values[row]) - min;
  };
  std::vector<std::array<std::uint32_t, 256>> counts(passes);
  for (auto& c : counts) c.fill(0);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t p = 0; p < passes; ++p) {
      ++counts[p][(key(row) >> (8 * p)) & 0xFF];
    }
  }
  // Only row ids move; each pass re-reads its rows' values, so the sort's
  // scratch space is one more order.
  std::vector<std::uint32_t> sorted(n);
  for (std::size_t p = 0; p < passes; ++p) {
    std::array<std::uint32_t, 256>& next = counts[p];
    std::uint32_t start = 0;
    for (std::uint32_t& c : next) start += std::exchange(c, start);
    for (const std::uint32_t row : order) {
      sorted[next[(key(row) >> (8 * p)) & 0xFF]++] = row;
    }
    order.swap(sorted);
  }
  return order;
}

std::span<const std::uint32_t> Table::OrderSlot::get(
    std::span<const Value> values) const {
  const std::vector<std::uint32_t>* order = published_.load();
  if (order == nullptr) {
    const std::lock_guard lock(building_);
    order = published_.load();
    if (order == nullptr) {
      order = new const std::vector<std::uint32_t>(valueOrderOf(values));
      published_.store(order);
    }
  }
  return *order;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.columnCount());
  for (std::size_t i = 0; i < schema_.columnCount(); ++i) {
    switch (schema_.column(i).type) {
      case ColumnType::Int:
        columns_.emplace_back(std::in_place_type<IntColumn>);
        break;
      case ColumnType::Real:
        columns_.emplace_back(std::in_place_type<std::vector<double>>);
        break;
      case ColumnType::Text:
        columns_.emplace_back(std::in_place_type<std::vector<std::string>>);
        break;
    }
  }
}

void Table::appendRow(const std::vector<Cell>& row) {
  if (row.size() != schema_.columnCount()) {
    throw SchemaError("Table::appendRow: cell count mismatch");
  }
  // A value order holds row ids as uint32.
  if (rowCount_ == std::numeric_limits<std::uint32_t>::max()) {
    throw SchemaError("Table::appendRow: table is full (2^32 - 1 rows)");
  }
  // Validate all cells before mutating any column so a bad row cannot leave
  // columns with uneven lengths.
  for (std::size_t i = 0; i < row.size(); ++i) {
    const ColumnType want = schema_.column(i).type;
    const bool ok = (want == ColumnType::Int &&
                     std::holds_alternative<Value>(row[i])) ||
                    (want == ColumnType::Real &&
                     std::holds_alternative<double>(row[i])) ||
                    (want == ColumnType::Text &&
                     std::holds_alternative<std::string>(row[i]));
    if (!ok) {
      throw SchemaError("Table::appendRow: type mismatch in column '" +
                        schema_.column(i).name + "'");
    }
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    switch (schema_.column(i).type) {
      case ColumnType::Int: {
        auto& column = std::get<IntColumn>(columns_[i]);
        const Value v = std::get<Value>(row[i]);
        column.values.push_back(v);
        column.sum += static_cast<std::uint64_t>(v);
        column.order.reset();
        break;
      }
      case ColumnType::Real:
        std::get<std::vector<double>>(columns_[i]).push_back(
            std::get<double>(row[i]));
        break;
      case ColumnType::Text:
        std::get<std::vector<std::string>>(columns_[i]).push_back(
            std::get<std::string>(row[i]));
        break;
    }
  }
  ++rowCount_;
}

const Table::ColumnData& Table::column(const std::string& name,
                                       ColumnType want,
                                       const char* accessor) const {
  const std::size_t i = schema_.indexOf(name);
  if (schema_.column(i).type != want) {
    throw SchemaError(std::string("Table::") + accessor + ": '" + name +
                      "' is not " + (want == ColumnType::Int ? "an " : "a ") +
                      toString(want) + " column");
  }
  return columns_[i];
}

const std::vector<Value>& Table::intColumn(const std::string& name) const {
  return std::get<IntColumn>(column(name, ColumnType::Int, "intColumn"))
      .values;
}

const std::vector<double>& Table::realColumn(const std::string& name) const {
  return std::get<std::vector<double>>(
      column(name, ColumnType::Real, "realColumn"));
}

const std::vector<std::string>& Table::textColumn(
    const std::string& name) const {
  return std::get<std::vector<std::string>>(
      column(name, ColumnType::Text, "textColumn"));
}

ColumnSum Table::intColumnTotal(const std::string& name) const {
  const auto& c =
      std::get<IntColumn>(column(name, ColumnType::Int, "intColumnTotal"));
  return {static_cast<std::int64_t>(c.sum),
          static_cast<std::int64_t>(c.values.size())};
}

std::span<const std::uint32_t> Table::valueOrder(
    const std::string& name) const {
  const auto& c =
      std::get<IntColumn>(column(name, ColumnType::Int, "valueOrder"));
  return c.order.get(c.values);
}

Cell Table::at(std::size_t row, std::size_t col) const {
  if (row >= rowCount_) throw SchemaError("Table::at: row out of range");
  switch (schema_.column(col).type) {
    case ColumnType::Int:
      return std::get<IntColumn>(columns_[col]).values[row];
    case ColumnType::Real:
      return std::get<std::vector<double>>(columns_[col])[row];
    case ColumnType::Text:
      return std::get<std::vector<std::string>>(columns_[col])[row];
  }
  throw SchemaError("Table::at: bad column type");
}

}  // namespace privtopk::data
