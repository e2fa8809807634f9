#include "data/database.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

namespace privtopk::data {
namespace {

PrivateDatabase makeDb() {
  PrivateDatabase db("acme");
  Table t(Schema({{"region", ColumnType::Text}, {"revenue", ColumnType::Int}}));
  t.appendRow({Cell{std::string("east")}, Cell{Value{500}}});
  t.appendRow({Cell{std::string("west")}, Cell{Value{900}}});
  t.appendRow({Cell{std::string("east")}, Cell{Value{300}}});
  t.appendRow({Cell{std::string("west")}, Cell{Value{900}}});
  t.appendRow({Cell{std::string("north")}, Cell{Value{120}}});
  db.addTable("sales", std::move(t));
  return db;
}

TEST(PrivateDatabase, TableManagement) {
  PrivateDatabase db = makeDb();
  EXPECT_EQ(db.ownerName(), "acme");
  EXPECT_TRUE(db.hasTable("sales"));
  EXPECT_FALSE(db.hasTable("hr"));
  EXPECT_EQ(db.tableNames(), (std::vector<std::string>{"sales"}));
  EXPECT_THROW((void)db.table("hr"), SchemaError);
  Table dup(Schema({{"x", ColumnType::Int}}));
  EXPECT_THROW(db.addTable("sales", std::move(dup)), SchemaError);
}

TEST(PrivateDatabase, LocalTopKSortedWithDuplicates) {
  PrivateDatabase db = makeDb();
  EXPECT_EQ(db.localTopK("sales", "revenue", 3),
            (TopKVector{900, 900, 500}));
}

TEST(PrivateDatabase, LocalTopKFewerRowsThanK) {
  PrivateDatabase db = makeDb();
  EXPECT_EQ(db.localTopK("sales", "revenue", 10),
            (TopKVector{900, 900, 500, 300, 120}));
}

TEST(PrivateDatabase, LocalBottomK) {
  PrivateDatabase db = makeDb();
  EXPECT_EQ(db.localBottomK("sales", "revenue", 2), (TopKVector{120, 300}));
}

TEST(PrivateDatabase, MaxMin) {
  PrivateDatabase db = makeDb();
  EXPECT_EQ(db.localMax("sales", "revenue"), 900);
  EXPECT_EQ(db.localMin("sales", "revenue"), 120);
}

TEST(PrivateDatabase, PredicateFiltersRows) {
  PrivateDatabase db = makeDb();
  const RowPredicate eastOnly = [](const Table& t, std::size_t row) {
    return t.textColumn("region")[row] == "east";
  };
  EXPECT_EQ(db.localTopK("sales", "revenue", 5, eastOnly),
            (TopKVector{500, 300}));
  EXPECT_EQ(db.localMax("sales", "revenue", eastOnly), 500);
}

TEST(PrivateDatabase, PredicateExcludingAllRowsYieldsEmpty) {
  PrivateDatabase db = makeDb();
  const RowPredicate none = [](const Table&, std::size_t) { return false; };
  EXPECT_TRUE(db.localTopK("sales", "revenue", 3, none).empty());
  EXPECT_EQ(db.localMax("sales", "revenue", none), std::nullopt);
}

/// The k largest (or smallest) of `values` by a full sort.
TopKVector referenceBest(std::vector<Value> values, std::size_t k,
                         bool largest) {
  if (largest) {
    std::sort(values.begin(), values.end(), std::greater<>());
  } else {
    std::sort(values.begin(), values.end());
  }
  values.resize(std::min(k, values.size()));
  return values;
}

TEST(PrivateDatabase, ExtremeValuesTiesAndAppends) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  std::vector<Value> values = {-5, 7, 0, -5, 3, -5, -5, 1, -1, 7};
  PrivateDatabase db("edge");
  Table t(Schema({{"v", ColumnType::Int}}));
  for (const Value v : values) t.appendRow({Cell{v}});
  db.addTable("t", std::move(t));
  const RowPredicate even = [](const Table&, std::size_t row) {
    return row % 2 == 0;
  };
  // Each round scans, then appends: a new int64 maximum, a new int64
  // minimum (every radix pass runs from then on), a tie, a value inside.
  const std::vector<Value> appends = {kMax, kMin, -5, kMax - 9};
  for (std::size_t round = 0; round <= appends.size(); ++round) {
    std::vector<Value> evens;
    for (std::size_t row = 0; row < values.size(); row += 2) {
      evens.push_back(values[row]);
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                values.size(), values.size() + 4}) {
      EXPECT_EQ(db.localTopK("t", "v", k), referenceBest(values, k, true));
      EXPECT_EQ(db.localBottomK("t", "v", k),
                referenceBest(values, k, false));
      EXPECT_EQ(db.localTopK("t", "v", k, even), referenceBest(evens, k, true));
      EXPECT_EQ(db.localBottomK("t", "v", k, even),
                referenceBest(evens, k, false));
    }
    EXPECT_TRUE(db.localTopK("t", "v", 0).empty());
    if (round == appends.size()) break;
    db.table("t").appendRow({Cell{appends[round]}});
    values.push_back(appends[round]);
  }
  EXPECT_EQ(db.localMax("t", "v"), kMax);
  EXPECT_EQ(db.localMin("t", "v"), kMin);
}

TEST(PrivateDatabase, EmptyTableSelectsNothing) {
  PrivateDatabase db("empty");
  db.addTable("t", Table(Schema({{"v", ColumnType::Int}})));
  EXPECT_TRUE(db.localTopK("t", "v", 3).empty());
  EXPECT_TRUE(db.localBottomK("t", "v", 3).empty());
  EXPECT_EQ(db.localMax("t", "v"), std::nullopt);
}

TEST(PrivateDatabase, UnknownAttributeThrows) {
  PrivateDatabase db = makeDb();
  EXPECT_THROW((void)db.localTopK("sales", "profit", 3), SchemaError);
  EXPECT_THROW((void)db.localTopK("sales", "region", 3), SchemaError);
}

}  // namespace
}  // namespace privtopk::data
