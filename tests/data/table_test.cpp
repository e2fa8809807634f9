#include "data/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "data/database.hpp"

namespace privtopk::data {
namespace {

Schema salesSchema() {
  return Schema({{"id", ColumnType::Text},
                 {"revenue", ColumnType::Int},
                 {"margin", ColumnType::Real}});
}

TEST(Schema, IndexAndLookup) {
  const Schema s = salesSchema();
  EXPECT_EQ(s.columnCount(), 3u);
  EXPECT_EQ(s.indexOf("revenue"), 1u);
  EXPECT_TRUE(s.has("margin"));
  EXPECT_FALSE(s.has("missing"));
  EXPECT_THROW((void)s.indexOf("missing"), SchemaError);
}

TEST(Schema, RejectsDuplicateColumns) {
  EXPECT_THROW(Schema({{"a", ColumnType::Int}, {"a", ColumnType::Real}}),
               SchemaError);
}

TEST(Table, AppendAndReadBack) {
  Table t(salesSchema());
  t.appendRow({Cell{std::string("r1")}, Cell{Value{100}}, Cell{0.4}});
  t.appendRow({Cell{std::string("r2")}, Cell{Value{250}}, Cell{0.2}});
  EXPECT_EQ(t.rowCount(), 2u);
  EXPECT_EQ(t.intColumn("revenue"), (std::vector<Value>{100, 250}));
  EXPECT_EQ(t.textColumn("id"), (std::vector<std::string>{"r1", "r2"}));
  EXPECT_DOUBLE_EQ(t.realColumn("margin")[1], 0.2);
}

TEST(Table, CellAccess) {
  Table t(salesSchema());
  t.appendRow({Cell{std::string("x")}, Cell{Value{7}}, Cell{1.5}});
  EXPECT_EQ(std::get<Value>(t.at(0, 1)), 7);
  EXPECT_EQ(std::get<std::string>(t.at(0, 0)), "x");
  EXPECT_THROW((void)t.at(1, 0), SchemaError);
}

TEST(Table, RejectsWrongArity) {
  Table t(salesSchema());
  EXPECT_THROW(t.appendRow({Cell{Value{1}}}), SchemaError);
  EXPECT_EQ(t.rowCount(), 0u);
}

TEST(Table, RejectsWrongTypesWithoutPartialWrites) {
  Table t(salesSchema());
  // Bad type in the LAST column: no column may be modified.
  EXPECT_THROW(t.appendRow({Cell{std::string("r")}, Cell{Value{1}},
                            Cell{std::string("oops")}}),
               SchemaError);
  EXPECT_EQ(t.rowCount(), 0u);
  EXPECT_TRUE(t.intColumn("revenue").empty());
  EXPECT_TRUE(t.textColumn("id").empty());
}

TEST(Table, TypedAccessorMismatchThrows) {
  Table t(salesSchema());
  EXPECT_THROW((void)t.intColumn("id"), SchemaError);
  EXPECT_THROW((void)t.realColumn("revenue"), SchemaError);
  EXPECT_THROW((void)t.textColumn("margin"), SchemaError);
  EXPECT_THROW((void)t.intColumn("nope"), SchemaError);
}

/// Row ids in ascending value order, ties in row order, by a comparison
/// sort: the reference valueOrderOf must match.
std::vector<std::uint32_t> referenceOrder(const std::vector<Value>& values) {
  std::vector<std::uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return values[a] < values[b];
                   });
  return order;
}

TEST(ValueOrder, MatchesStableSortForEveryRange) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  Rng rng(0x0DE5);
  // Ranges of 0, 1, 2, 3 and 8 bytes; the last ones negative and spanning
  // the whole int64 range, so every radix pass runs.
  const std::vector<std::pair<Value, Value>> ranges = {
      {7, 7},        {-3, 250},  {1, 10'000}, {-70'000, 70'000},
      {kMin, kMax},  {kMin, -1}, {-1, 0}};
  for (const auto& [lo, hi] : ranges) {
    for (const std::size_t rows : {0, 1, 2, 300, 5'000}) {
      std::vector<Value> values;
      for (std::size_t i = 0; i < rows; ++i) {
        values.push_back(rng.uniformInt(lo, hi));
      }
      if (rows >= 2) {  // the range's ends, so it needs all its passes
        values[rows / 3] = lo;
        values[rows / 2] = hi;
      }
      EXPECT_EQ(valueOrderOf(values), referenceOrder(values))
          << "range [" << lo << ", " << hi << "] rows " << rows;
    }
  }
  const std::vector<Value> extremes = {kMax, 0, kMin, -1, kMax, kMin, 1};
  EXPECT_EQ(valueOrderOf(extremes),
            (std::vector<std::uint32_t>{2, 5, 3, 1, 6, 0, 4}));
}

TEST(ValueOrder, FollowsAppendsCopiesAndMoves) {
  Table t(Schema({{"v", ColumnType::Int}, {"w", ColumnType::Int}}));
  for (const Value v : {4, 2, 9, 2}) t.appendRow({Cell{v}, Cell{-v}});
  const auto order = [](const Table& table, const char* column) {
    const auto span = table.valueOrder(column);
    return std::vector<std::uint32_t>(span.begin(), span.end());
  };
  EXPECT_EQ(order(t, "v"), (std::vector<std::uint32_t>{1, 3, 0, 2}));
  EXPECT_EQ(order(t, "w"), (std::vector<std::uint32_t>{2, 0, 1, 3}));
  Table copy = t;  // after a scan: the copy builds its own order
  t.appendRow({Cell{Value{11}}, Cell{Value{-11}}});  // a new maximum
  EXPECT_EQ(order(t, "v"), (std::vector<std::uint32_t>{1, 3, 0, 2, 4}));
  EXPECT_EQ(order(copy, "v"), (std::vector<std::uint32_t>{1, 3, 0, 2}));
  copy.appendRow({Cell{Value{0}}, Cell{Value{0}}});  // a new minimum
  EXPECT_EQ(order(copy, "v"), (std::vector<std::uint32_t>{4, 1, 3, 0, 2}));
  const Table moved = std::move(copy);
  EXPECT_EQ(order(moved, "v"), (std::vector<std::uint32_t>{4, 1, 3, 0, 2}));
  copy = t;  // assigning over a moved-from table
  EXPECT_EQ(order(copy, "w"), (std::vector<std::uint32_t>{4, 2, 0, 1, 3}));
  EXPECT_THROW((void)t.valueOrder("nope"), SchemaError);
  Table text(salesSchema());
  EXPECT_THROW((void)text.valueOrder("id"), SchemaError);
}

// The running total equals a fresh sum of the column - the unfiltered
// scan and the masked one - after every append, in copies and in moves,
// and wraps modulo 2^64 as the secure sum does.
TEST(ColumnTotal, MatchesSumSelectedAcrossAppendsCopiesAndMoves) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const BlockFilter keepAll = [](std::size_t, std::size_t, std::uint8_t*) {};
  const auto expectTotal = [&](const Table& t, std::uint64_t want) {
    const ColumnSum total = t.intColumnTotal("v");
    EXPECT_EQ(total.sum, static_cast<std::int64_t>(want));
    EXPECT_EQ(total.rows, static_cast<std::int64_t>(t.rowCount()));
    const ColumnSum plain = sumSelected(t.intColumn("v"));
    const ColumnSum masked = sumSelected(t.intColumn("v"), keepAll);
    EXPECT_EQ(plain.sum, total.sum);
    EXPECT_EQ(plain.rows, total.rows);
    EXPECT_EQ(masked.sum, total.sum);
    EXPECT_EQ(masked.rows, total.rows);
  };

  Table t(Schema({{"v", ColumnType::Int}, {"w", ColumnType::Int}}));
  expectTotal(t, 0);
  std::uint64_t want = 0;
  Rng rng(31);
  for (int i = 0; i < 2500; ++i) {
    const Value v = i % 500 == 0   ? kMax
                    : i % 500 == 1 ? kMax
                    : i % 500 == 2 ? kMin
                    : rng.uniformInt(-1000, 1000);
    t.appendRow({Cell{v}, Cell{Value{1}}});
    want += static_cast<std::uint64_t>(v);
  }
  expectTotal(t, want);
  EXPECT_EQ(t.intColumnTotal("w").sum, 2500);

  Table copy = t;
  copy.appendRow({Cell{kMax}, Cell{Value{1}}});
  expectTotal(copy, want + static_cast<std::uint64_t>(kMax));
  expectTotal(t, want);

  Table moved = std::move(copy);
  moved.appendRow({Cell{kMin}, Cell{Value{1}}});
  expectTotal(moved, want + static_cast<std::uint64_t>(kMax) +
                         static_cast<std::uint64_t>(kMin));
  copy = t;
  expectTotal(copy, want);

  EXPECT_THROW((void)t.intColumnTotal("nope"), SchemaError);
  Table mixed(salesSchema());
  EXPECT_THROW((void)mixed.intColumnTotal("margin"), SchemaError);
}

TEST(ColumnType, Names) {
  EXPECT_EQ(toString(ColumnType::Int), "int");
  EXPECT_EQ(toString(ColumnType::Real), "real");
  EXPECT_EQ(toString(ColumnType::Text), "text");
}

}  // namespace
}  // namespace privtopk::data
