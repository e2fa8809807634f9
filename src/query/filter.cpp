#include "query/filter.hpp"

#include <charconv>

#include "common/args.hpp"
#include "common/error.hpp"

namespace privtopk::query {

const char* toString(FilterOp op) {
  switch (op) {
    case FilterOp::Eq: return "==";
    case FilterOp::Ne: return "!=";
    case FilterOp::Lt: return "<";
    case FilterOp::Le: return "<=";
    case FilterOp::Gt: return ">";
    case FilterOp::Ge: return ">=";
  }
  return "?";
}

namespace {

template <typename T>
bool applyOp(FilterOp op, const T& lhs, const T& rhs) {
  switch (op) {
    case FilterOp::Eq: return lhs == rhs;
    case FilterOp::Ne: return lhs != rhs;
    case FilterOp::Lt: return lhs < rhs;
    case FilterOp::Le: return lhs <= rhs;
    case FilterOp::Gt: return lhs > rhs;
    case FilterOp::Ge: return lhs >= rhs;
  }
  return false;
}

/// One clause with its column resolved: `ints` for an int clause, `texts`
/// for a text clause (an empty column's data() may be null either way).
struct BoundClause {
  FilterOp op = FilterOp::Eq;
  bool onText = false;
  const Value* ints = nullptr;
  Value intLiteral = 0;
  const std::string* texts = nullptr;
  std::string textLiteral;
};

/// 1 when a < b, else 0, from 64-bit subtract/xor/and/shift alone (Hacker's
/// Delight 2-12: the sign of a - b, corrected for overflow).  Baseline
/// x86-64 (SSE2) has no 64-bit vector compare, so a plain `<` keeps the
/// clause loops scalar; these operations vectorise.
std::uint8_t lessBit(Value a, Value b) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  const std::uint64_t d = ua - ub;
  return static_cast<std::uint8_t>((d ^ ((ua ^ ub) & (d ^ ua))) >> 63);
}

/// 1 when a != b, else 0 (x | -x has its sign bit set iff x != 0).
std::uint8_t differBit(Value a, Value b) {
  const std::uint64_t x =
      static_cast<std::uint64_t>(a) ^ static_cast<std::uint64_t>(b);
  return static_cast<std::uint8_t>((x | (0 - x)) >> 63);
}

/// Whether an int cell passes `Op` against the literal, as 0 or 1.
template <FilterOp Op>
std::uint8_t keepInt(Value cell, Value literal) {
  if constexpr (Op == FilterOp::Eq) return differBit(cell, literal) ^ 1;
  if constexpr (Op == FilterOp::Ne) return differBit(cell, literal);
  if constexpr (Op == FilterOp::Lt) return lessBit(cell, literal);
  if constexpr (Op == FilterOp::Le) return lessBit(literal, cell) ^ 1;
  if constexpr (Op == FilterOp::Gt) return lessBit(literal, cell);
  if constexpr (Op == FilterOp::Ge) return lessBit(cell, literal) ^ 1;
}

/// mask[i] &= keepInt<Op>(cells[i]) for i < n.  The restrict parameters
/// tell the compiler the mask does not alias the column; kept out of line
/// so they still hold where -O2's cheap vectoriser looks at the loop.
template <FilterOp Op>
[[gnu::noinline]] void narrowInts(const Value* __restrict cells,
                                  Value literal, std::uint8_t* __restrict mask,
                                  std::size_t n) {
  data::forEachInBlock(
      n, [&](std::size_t i) { mask[i] &= keepInt<Op>(cells[i], literal); });
}

void narrowInts(FilterOp op, const Value* cells, Value literal,
                std::uint8_t* mask, std::size_t n) {
  switch (op) {
    case FilterOp::Eq: return narrowInts<FilterOp::Eq>(cells, literal, mask, n);
    case FilterOp::Ne: return narrowInts<FilterOp::Ne>(cells, literal, mask, n);
    case FilterOp::Lt: return narrowInts<FilterOp::Lt>(cells, literal, mask, n);
    case FilterOp::Le: return narrowInts<FilterOp::Le>(cells, literal, mask, n);
    case FilterOp::Gt: return narrowInts<FilterOp::Gt>(cells, literal, mask, n);
    case FilterOp::Ge: return narrowInts<FilterOp::Ge>(cells, literal, mask, n);
  }
}

/// Text clauses are Eq/Ne only (validateAgainst).
void narrowTexts(FilterOp op, const std::string* cells,
                 const std::string& literal, std::uint8_t* mask,
                 std::size_t n) {
  const bool equal = op == FilterOp::Eq;
  for (std::size_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<std::uint8_t>((cells[i] == literal) == equal);
  }
}

}  // namespace

Filter::Filter(std::vector<FilterClause> clauses)
    : clauses_(std::move(clauses)) {}

void Filter::validateAgainst(const data::Schema& schema) const {
  for (const auto& clause : clauses_) {
    const std::size_t idx = schema.indexOf(clause.column);  // throws if absent
    const data::ColumnType type = schema.column(idx).type;
    const bool intLiteral = std::holds_alternative<Value>(clause.literal);
    switch (type) {
      case data::ColumnType::Int:
        if (!intLiteral) {
          throw ConfigError("Filter: column '" + clause.column +
                            "' is int but the literal is text");
        }
        break;
      case data::ColumnType::Text:
        if (intLiteral) {
          throw ConfigError("Filter: column '" + clause.column +
                            "' is text but the literal is int");
        }
        if (clause.op != FilterOp::Eq && clause.op != FilterOp::Ne) {
          throw ConfigError("Filter: text column '" + clause.column +
                            "' supports only == and !=");
        }
        break;
      case data::ColumnType::Real:
        throw ConfigError("Filter: real columns are not filterable "
                          "(column '" + clause.column + "')");
    }
  }
}

data::RowPredicate Filter::predicate() const {
  if (clauses_.empty()) return {};
  // Copy the clauses into the closure; tables are consulted per row.
  const std::vector<FilterClause> clauses = clauses_;
  return [clauses](const data::Table& table, std::size_t row) {
    for (const auto& clause : clauses) {
      if (const auto* value = std::get_if<Value>(&clause.literal)) {
        const Value cell = table.intColumn(clause.column)[row];
        if (!applyOp(clause.op, cell, *value)) return false;
      } else {
        const std::string& want = std::get<std::string>(clause.literal);
        const std::string& cell = table.textColumn(clause.column)[row];
        if (!applyOp(clause.op, cell, want)) return false;
      }
    }
    return true;
  };
}

data::BlockFilter Filter::bind(const data::Table& table) const {
  if (clauses_.empty()) return {};
  validateAgainst(table.schema());
  std::vector<BoundClause> bound;
  bound.reserve(clauses_.size());
  for (const auto& clause : clauses_) {
    BoundClause b;
    b.op = clause.op;
    if (const auto* value = std::get_if<Value>(&clause.literal)) {
      b.ints = table.intColumn(clause.column).data();
      b.intLiteral = *value;
    } else {
      b.onText = true;
      b.texts = table.textColumn(clause.column).data();
      b.textLiteral = std::get<std::string>(clause.literal);
    }
    bound.push_back(std::move(b));
  }
  return [bound = std::move(bound)](std::size_t begin, std::size_t n,
                                    std::uint8_t* mask) {
    for (const BoundClause& b : bound) {
      if (b.onText) {
        narrowTexts(b.op, b.texts + begin, b.textLiteral, mask, n);
      } else {
        narrowInts(b.op, b.ints + begin, b.intLiteral, mask, n);
      }
    }
  };
}

void Filter::encodeTo(ByteWriter& w) const {
  w.writeVarint(clauses_.size());
  for (const auto& clause : clauses_) {
    w.writeString(clause.column);
    w.writeU8(static_cast<std::uint8_t>(clause.op));
    if (const auto* value = std::get_if<Value>(&clause.literal)) {
      w.writeU8(0);
      w.writeI64(*value);
    } else {
      w.writeU8(1);
      w.writeString(std::get<std::string>(clause.literal));
    }
  }
}

Filter Filter::decodeFrom(ByteReader& r) {
  const std::uint64_t count = r.readVarint();
  if (count > 1024) throw ProtocolError("Filter: too many clauses");
  std::vector<FilterClause> clauses;
  clauses.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FilterClause clause;
    clause.column = r.readString();
    const std::uint8_t rawOp = r.readU8();
    if (rawOp > static_cast<std::uint8_t>(FilterOp::Ge)) {
      throw ProtocolError("Filter: unknown operator");
    }
    clause.op = static_cast<FilterOp>(rawOp);
    const std::uint8_t literalKind = r.readU8();
    if (literalKind == 0) {
      clause.literal = r.readI64();
    } else if (literalKind == 1) {
      clause.literal = r.readString();
    } else {
      throw ProtocolError("Filter: unknown literal kind");
    }
    clauses.push_back(std::move(clause));
  }
  return Filter(std::move(clauses));
}

Filter Filter::parse(const std::string& text) {
  if (text.empty()) return Filter();
  std::vector<FilterClause> clauses;
  for (const std::string& part : splitString(text, ',')) {
    // Longest-match operator scan.
    static constexpr std::pair<const char*, FilterOp> kOps[] = {
        {"==", FilterOp::Eq}, {"!=", FilterOp::Ne}, {"<=", FilterOp::Le},
        {">=", FilterOp::Ge}, {"<", FilterOp::Lt},  {">", FilterOp::Gt},
        {"=", FilterOp::Eq},
    };
    FilterClause clause;
    std::string rhs;
    bool matched = false;
    for (const auto& [symbol, op] : kOps) {
      const std::size_t pos = part.find(symbol);
      if (pos == std::string::npos || pos == 0) continue;
      clause.column = part.substr(0, pos);
      clause.op = op;
      rhs = part.substr(pos + std::string(symbol).size());
      matched = true;
      break;
    }
    if (!matched || rhs.empty()) {
      throw ConfigError("Filter::parse: cannot parse clause '" + part + "'");
    }
    Value value = 0;
    const auto [ptr, ec] =
        std::from_chars(rhs.data(), rhs.data() + rhs.size(), value);
    if (ec == std::errc() && ptr == rhs.data() + rhs.size()) {
      clause.literal = value;
    } else {
      clause.literal = rhs;
    }
    clauses.push_back(std::move(clause));
  }
  return Filter(std::move(clauses));
}

}  // namespace privtopk::query
