// The local scan (LocalParty::localInput / localAggregate over
// Filter::bind, data::selectBest's walk of the cached value order and
// data::sumSelected) against a naive row-at-a-time reference: filter with
// Filter::predicate(), sort the whole selection, truncate.  Seeded tables
// with many duplicates, row counts around the filter's block size, 0-3
// clauses over every FilterOp; appends after a scan, copied and moved
// tables, and concurrent first scans of one table.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/database.hpp"
#include "query/descriptor.hpp"
#include "query/federation.hpp"
#include "query/filter.hpp"

namespace privtopk::query {
namespace {

constexpr Domain kDomain{1, 40};  // narrow, so every table has duplicates
const std::vector<std::string> kTags = {"north", "south", "east", ""};

/// A row with `value`, a random year and a random tag.
std::vector<data::Cell> randomRow(Value value, Rng& rng) {
  return {data::Cell{value}, data::Cell{rng.uniformInt(2020, 2025)},
          data::Cell{kTags[rng.index(kTags.size())]}, data::Cell{0.5}};
}

/// `rows` rows whose values are uniform over [lo, hi].
data::PrivateDatabase makeDb(std::size_t rows, Rng& rng,
                             Value lo = kDomain.min, Value hi = kDomain.max) {
  data::Table t(data::Schema({{"value", data::ColumnType::Int},
                              {"year", data::ColumnType::Int},
                              {"tag", data::ColumnType::Text},
                              {"weight", data::ColumnType::Real}}));
  for (std::size_t row = 0; row < rows; ++row) {
    t.appendRow(randomRow(rng.uniformInt(lo, hi), rng));
  }
  data::PrivateDatabase db("scan");
  db.addTable("t", std::move(t));
  return db;
}

constexpr QueryType kRankedTypes[] = {QueryType::TopK, QueryType::BottomK,
                                      QueryType::Max, QueryType::Min};
constexpr QueryType kAggregateTypes[] = {QueryType::Sum, QueryType::Count,
                                         QueryType::Average};
constexpr FilterOp kOps[] = {FilterOp::Eq, FilterOp::Ne, FilterOp::Lt,
                             FilterOp::Le, FilterOp::Gt, FilterOp::Ge};

/// A random clause; `op` is used when the clause is on an int column.
FilterClause randomClause(FilterOp op, Rng& rng) {
  switch (rng.index(3)) {
    case 0:  // literals one past each end select nothing or everything
      return {"value", op, rng.uniformInt(kDomain.min - 1, kDomain.max + 1)};
    case 1: return {"year", op, rng.uniformInt(2019, 2026)};
    default: {
      const std::string literal =
          rng.bernoulli(0.8) ? kTags[rng.index(kTags.size())] : "west";
      return {"tag", rng.bernoulli(0.5) ? FilterOp::Eq : FilterOp::Ne,
              literal};
    }
  }
}

/// The selected values of `d`'s attribute, row by row through predicate().
std::vector<Value> referenceSelection(const data::PrivateDatabase& db,
                                      const QueryDescriptor& d) {
  const data::Table& table = db.table(d.tableName);
  const std::vector<Value>& column = table.intColumn(d.attribute);
  const data::RowPredicate keep = d.filter.predicate();
  std::vector<Value> values;
  for (std::size_t row = 0; row < column.size(); ++row) {
    if (!keep || keep(table, row)) values.push_back(column[row]);
  }
  return values;
}

TopKVector referenceInput(const data::PrivateDatabase& db,
                          const QueryDescriptor& d) {
  TopKVector values = referenceSelection(db, d);
  if (d.isBottom()) {
    std::sort(values.begin(), values.end());
  } else {
    std::sort(values.begin(), values.end(), std::greater<>());
  }
  if (values.size() > d.effectiveK()) values.resize(d.effectiveK());
  if (d.isBottom()) {
    for (Value& v : values) v = kDomain.min + kDomain.max - v;
  }
  return values;
}

std::vector<std::int64_t> referenceAggregate(const data::PrivateDatabase& db,
                                             const QueryDescriptor& d) {
  const std::vector<Value> values = referenceSelection(db, d);
  std::int64_t sum = 0;
  for (const Value v : values) sum += v;
  const auto rows = static_cast<std::int64_t>(values.size());
  if (d.type == QueryType::Sum) return {sum};
  if (d.type == QueryType::Count) return {rows};
  return {sum, rows};
}

QueryDescriptor scanDescriptor(QueryType type, std::size_t k, Filter filter) {
  QueryDescriptor d;
  d.type = type;
  d.tableName = "t";
  d.attribute = "value";
  d.params.k = k;
  d.params.domain = kDomain;
  d.filter = std::move(filter);
  return d;
}

/// Filters exercised by the order tests: none, an int range, a rare
/// value, a text Eq, a text Ne on an absent literal, and two clauses.
std::vector<Filter> orderFilters() {
  return {Filter{},
          Filter({{"year", FilterOp::Le, Value{2022}}}),
          Filter({{"value", FilterOp::Eq, Value{17}}}),
          Filter({{"tag", FilterOp::Eq, std::string("east")}}),
          Filter({{"tag", FilterOp::Ne, std::string("west")}}),
          Filter({{"tag", FilterOp::Ne, std::string("")},
                  {"year", FilterOp::Gt, Value{2021}}})};
}

/// Every ranked query type under every order filter, k from 1 to past the
/// row count, against the reference.
void expectRankedMatchReference(const data::PrivateDatabase& db) {
  const std::size_t rows = db.table("t").rowCount();
  const LocalParty party(db);
  for (const Filter& filter : orderFilters()) {
    for (const QueryType type : kRankedTypes) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{7}, rows,
                                  rows + 3}) {
        const QueryDescriptor d = scanDescriptor(type, k, filter);
        EXPECT_EQ(party.localInput(d), referenceInput(db, d))
            << toString(type) << " k=" << k << " clauses "
            << filter.clauses().size();
      }
    }
  }
}

TEST(LocalScan, MatchesRowAtATimeReference) {
  Rng rng(0x5CA7);
  const std::size_t block = data::kScanBlockRows;
  for (const std::size_t rows : {block - 1, block, block + 1, 3 * block + 7}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    const data::PrivateDatabase db = makeDb(rows, rng);
    const LocalParty party(db);
    const std::vector<std::size_t> ks = {1, rows - 1, rows, rows + 5};
    for (std::size_t trial = 0; trial < 24; ++trial) {
      // 0-3 clauses; the first int clause cycles through every operator.
      std::vector<FilterClause> clauses;
      for (std::size_t c = 0; c < trial % 4; ++c) {
        const FilterOp op =
            c == 0 ? kOps[(trial / 4) % 6] : kOps[rng.index(6)];
        clauses.push_back(randomClause(op, rng));
      }
      const Filter filter(clauses);
      SCOPED_TRACE("trial " + std::to_string(trial));
      for (const QueryType type : kRankedTypes) {
        for (const std::size_t k : ks) {
          const QueryDescriptor d = scanDescriptor(type, k, filter);
          EXPECT_EQ(party.localInput(d), referenceInput(db, d))
              << toString(type) << " k=" << k;
        }
      }
      // The PrivateDatabase entry point, through a row predicate.
      const QueryDescriptor top = scanDescriptor(QueryType::TopK, 7, filter);
      EXPECT_EQ(db.localTopK("t", "value", 7, filter.predicate()),
                referenceInput(db, top));
      for (const QueryType type : kAggregateTypes) {
        const QueryDescriptor d = scanDescriptor(type, 1, filter);
        EXPECT_EQ(party.localAggregate(d), referenceAggregate(db, d))
            << toString(type);
      }
    }
  }
}

TEST(LocalScan, EmptySelection) {
  Rng rng(0x5CA8);
  const data::PrivateDatabase db = makeDb(data::kScanBlockRows + 1, rng);
  const LocalParty party(db);
  const Filter none({{"value", FilterOp::Gt, kDomain.max}});
  for (const QueryType type : kRankedTypes) {
    EXPECT_TRUE(party.localInput(scanDescriptor(type, 5, none)).empty());
  }
  EXPECT_EQ(party.localAggregate(scanDescriptor(QueryType::Sum, 1, none)),
            (std::vector<std::int64_t>{0}));
  EXPECT_EQ(party.localAggregate(scanDescriptor(QueryType::Count, 1, none)),
            (std::vector<std::int64_t>{0}));
  EXPECT_EQ(party.localAggregate(scanDescriptor(QueryType::Average, 1, none)),
            (std::vector<std::int64_t>{0, 0}));
}

TEST(LocalScan, KernelHandlesZeroKAndEmptyColumns) {
  data::Table table(data::Schema({{"v", data::ColumnType::Int}}));
  for (const Value v : {5, 3, 5, 9, 1}) table.appendRow({data::Cell{v}});
  const data::Table empty(data::Schema({{"v", data::ColumnType::Int}}));
  EXPECT_TRUE(data::selectBest(table, "v", 0, data::Best::Largest).empty());
  EXPECT_TRUE(data::selectBest(empty, "v", 3, data::Best::Smallest).empty());
  EXPECT_EQ(data::selectBest(table, "v", 3, data::Best::Largest),
            (TopKVector{9, 5, 5}));
  EXPECT_EQ(data::selectBest(table, "v", 9, data::Best::Smallest),
            (TopKVector{1, 3, 5, 5, 9}));
  const data::BlockFilter odd = [](std::size_t begin, std::size_t n,
                                   std::uint8_t* mask) {
    for (std::size_t i = 0; i < n; ++i) {
      if ((begin + i) % 2 == 0) mask[i] = 0;
    }
  };
  EXPECT_EQ(data::selectBest(table, "v", 2, data::Best::Largest, odd),
            (TopKVector{9, 3}));
  const data::ColumnSum sum = data::sumSelected(table.intColumn("v"), odd);
  EXPECT_EQ(sum.sum, 12);
  EXPECT_EQ(sum.rows, 2);
  EXPECT_EQ(data::sumSelected({}).rows, 0);
}

TEST(LocalScan, AppendAfterScanMatchesReference) {
  Rng rng(0x5CAA);
  // Values start inside [5, 30], so appends can set a new max and min.
  data::PrivateDatabase db = makeDb(2 * data::kScanBlockRows + 5, rng, 5, 30);
  expectRankedMatchReference(db);
  for (const Value next : {35, 2, 17, 35, 40, 1}) {
    SCOPED_TRACE("appended " + std::to_string(next));
    db.table("t").appendRow(randomRow(next, rng));
    expectRankedMatchReference(db);
  }
}

TEST(LocalScan, HeavyTiesAndEmptyTables) {
  Rng rng(0x5CAB);
  for (const auto& [lo, hi] : {std::pair<Value, Value>{20, 21}, {20, 20}}) {
    SCOPED_TRACE("values in [" + std::to_string(lo) + ", " +
                 std::to_string(hi) + "]");
    expectRankedMatchReference(makeDb(3 * data::kScanBlockRows, rng, lo, hi));
  }
  const data::PrivateDatabase empty = makeDb(0, rng);
  const LocalParty party(empty);
  for (const Filter& filter : orderFilters()) {
    for (const QueryType type : kRankedTypes) {
      EXPECT_TRUE(party.localInput(scanDescriptor(type, 4, filter)).empty());
    }
  }
}

TEST(LocalScan, CopiedAndMovedTablesAfterScan) {
  Rng rng(0x5CAC);
  data::PrivateDatabase db = makeDb(data::kScanBlockRows + 9, rng, 5, 30);
  expectRankedMatchReference(db);  // builds db's orders
  data::PrivateDatabase copy = db;
  expectRankedMatchReference(copy);
  copy.table("t").appendRow(randomRow(36, rng));
  expectRankedMatchReference(copy);
  expectRankedMatchReference(db);  // the original kept its own rows
  const data::PrivateDatabase moved = std::move(copy);
  expectRankedMatchReference(moved);
  data::Table table = db.table("t");
  table.appendRow(randomRow(3, rng));
  data::PrivateDatabase rebuilt("rebuilt");
  rebuilt.addTable("t", std::move(table));
  expectRankedMatchReference(rebuilt);
}

TEST(LocalScan, ConcurrentFirstScansOfOneTable) {
  constexpr std::size_t kThreads = 4;
  Rng rng(0x5CAD);
  const data::PrivateDatabase source = makeDb(4 * data::kScanBlockRows, rng);
  const std::vector<Filter> filters = orderFilters();
  for (int round = 0; round < 8; ++round) {
    const data::PrivateDatabase db = source;  // no order built yet
    std::vector<TopKVector> want;
    std::vector<QueryDescriptor> queries;
    for (std::size_t i = 0; i < kThreads; ++i) {
      const QueryType type = kRankedTypes[(round + i) % 4];
      queries.push_back(scanDescriptor(type, 50, filters[i % filters.size()]));
      want.push_back(referenceInput(db, queries.back()));
    }
    std::vector<TopKVector> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        got[i] = LocalParty(db).localInput(queries[i]);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(got, want) << "round " << round;
  }
}

TEST(LocalScan, ExternalCallersAreValidated) {
  Rng rng(0x5CA9);
  const data::PrivateDatabase db = makeDb(10, rng);
  const LocalParty party(db);
  const QueryDescriptor zeroK = scanDescriptor(QueryType::TopK, 0, Filter{});
  EXPECT_THROW((void)party.localInput(zeroK), ConfigError);
  QueryDescriptor segmented = scanDescriptor(QueryType::TopK, 3, Filter{});
  segmented.params.mechanism.kind = protocol::MechanismKind::Segmented;
  segmented.params.mechanism.segments = 65;
  EXPECT_THROW((void)party.localInput(segmented), ConfigError);
  QueryDescriptor sumLdp = scanDescriptor(QueryType::Sum, 1, Filter{});
  sumLdp.params.mechanism.kind = protocol::MechanismKind::Ldp;
  EXPECT_THROW((void)party.localAggregate(sumLdp), ConfigError);
  // A filter the schema cannot serve fails the scan itself too.
  const Filter onReal({{"weight", FilterOp::Eq, Value{1}}});
  const QueryDescriptor realFilter = scanDescriptor(QueryType::TopK, 3, onReal);
  EXPECT_THROW((void)party.scanInput(realFilter), ConfigError);
  const Filter textAsInt({{"tag", FilterOp::Eq, Value{1}}});
  const QueryDescriptor textSum = scanDescriptor(QueryType::Sum, 1, textAsInt);
  EXPECT_THROW((void)party.scanAggregate(textSum), ConfigError);
}

}  // namespace
}  // namespace privtopk::query
