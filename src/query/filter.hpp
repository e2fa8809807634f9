// Row filters for federated queries.
//
// The paper's motivating statistic is "the top sales among them IN A GIVEN
// CATEGORY OR TIME PERIOD" - i.e. the query carries a selection predicate
// that every party applies locally before extracting its top-k.  A filter
// is a conjunction (AND) of simple clauses over the party's columns; it is
// serialized inside the query descriptor so all parties apply the same
// selection, and evaluated locally so no filtered-out row ever leaves a
// database.

#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/serialization.hpp"
#include "common/types.hpp"
#include "data/database.hpp"

namespace privtopk::query {

enum class FilterOp : std::uint8_t {
  Eq = 0,
  Ne = 1,
  Lt = 2,
  Le = 3,
  Gt = 4,
  Ge = 5,
};

[[nodiscard]] const char* toString(FilterOp op);

/// One clause: <column> <op> <literal>.  Int clauses compare numerically;
/// text clauses support Eq/Ne only (lexicographic ranges invite
/// locale-dependent surprises across parties).
struct FilterClause {
  std::string column;
  FilterOp op = FilterOp::Eq;
  std::variant<Value, std::string> literal;

  friend bool operator==(const FilterClause&, const FilterClause&) = default;
};

/// AND-conjunction of clauses; empty = match everything.
class Filter {
 public:
  Filter() = default;
  explicit Filter(std::vector<FilterClause> clauses);

  [[nodiscard]] const std::vector<FilterClause>& clauses() const {
    return clauses_;
  }
  [[nodiscard]] bool empty() const { return clauses_.empty(); }

  /// Validates every clause against `schema`: the column must exist, the
  /// literal type must match the column type, and text clauses must use
  /// Eq/Ne.  Throws SchemaError/ConfigError.
  void validateAgainst(const data::Schema& schema) const;

  /// Builds the row predicate for a concrete table: evaluated one row at
  /// a time, looking each clause's column up by name.  The reference
  /// semantics that bind() must match.
  [[nodiscard]] data::RowPredicate predicate() const;

  /// Binds the filter to `table` for a column scan: validates it
  /// (validateAgainst), resolves each clause's column once, and returns a
  /// block filter that narrows a block's mask one clause at a time.  Empty
  /// when the filter is.  The table must outlive the result and stay
  /// unchanged while it is used.
  [[nodiscard]] data::BlockFilter bind(const data::Table& table) const;

  /// Serialization (embedded in QueryDescriptor's encoding).
  void encodeTo(ByteWriter& w) const;
  static Filter decodeFrom(ByteReader& r);

  /// Parses the CLI syntax "col=value,col2>10" (comma = AND; operators
  /// ==, !=, <, <=, >, >=, and = as an alias of ==).  Literals that parse
  /// as integers become int clauses, everything else text.
  static Filter parse(const std::string& text);

  friend bool operator==(const Filter&, const Filter&) = default;

 private:
  std::vector<FilterClause> clauses_;
};

}  // namespace privtopk::query
