// Federation: the highest-level public API.  Binds PrivateDatabases to
// query descriptors and runs the protocol end to end, including the
// bottom-k mirroring and result presentation.
//
// Two entry points:
//   * Federation::execute - in-process simulation across a set of
//     databases (experiments, tests, the CLI's `query` subcommand);
//   * LocalParty::localInput / presentResult - the per-participant pieces
//     a networked node (query::NodeService) runs around the ring protocol.

#pragma once

#include <vector>

#include "common/rng.hpp"
#include "data/database.hpp"
#include "protocol/runner.hpp"
#include "query/descriptor.hpp"

namespace privtopk::query {

struct QueryOutcome {
  /// Presented in the query's natural order (descending for top-k,
  /// ascending for bottom-k).
  TopKVector values;
  Round rounds = 0;
  std::size_t messages = 0;
  protocol::ExecutionTrace trace;
};

/// One participant's local view of a query.
class LocalParty {
 public:
  /// Borrows `db`, which must outlive the party.
  explicit LocalParty(const data::PrivateDatabase& db) : db_(&db) {}

  /// Checks a descriptor against the local schema; throws SchemaError when
  /// the table/attribute is missing or not an int column, and
  /// SchemaError/ConfigError on a filter the schema cannot serve.  Does
  /// not validate the descriptor itself: QueryDescriptor::decode returns
  /// only validated descriptors.
  void checkSchema(const QueryDescriptor& descriptor) const;

  /// Extracts the protocol input: local top-k for top queries, MIRRORED
  /// local bottom-k for bottom queries (the protocol always maximizes).
  /// Values are clamped-checked against the public domain.  Not valid for
  /// aggregate queries (use localAggregate()).  Validates the descriptor
  /// first.
  [[nodiscard]] TopKVector localInput(const QueryDescriptor& descriptor) const;

  /// Per-party addends for aggregate queries: {sum} for Sum, {rows} for
  /// Count, {sum, rows} for Average.  Validates the descriptor first.
  [[nodiscard]] std::vector<std::int64_t> localAggregate(
      const QueryDescriptor& descriptor) const;

  /// localInput / localAggregate for an already validated descriptor: the
  /// column scan alone (its schema is still checked).  One pass over the
  /// column, one block of rows at a time; nothing is copied per row.
  [[nodiscard]] TopKVector scanInput(const QueryDescriptor& descriptor) const;
  [[nodiscard]] std::vector<std::int64_t> scanAggregate(
      const QueryDescriptor& descriptor) const;

 private:
  const data::PrivateDatabase* db_;
};

/// Mirrors a protocol result back into the query's natural order; for top
/// queries this is the identity.
[[nodiscard]] TopKVector presentResult(const QueryDescriptor& descriptor,
                                       TopKVector protocolResult);

/// Mirrors every value within `domain`: bottom-k queries run the protocol
/// on mirrored values, and mirroring twice is the identity.
[[nodiscard]] TopKVector mirrorValues(const Domain& domain,
                                      TopKVector values);

/// In-process federation over a set of databases.
class Federation {
 public:
  /// Borrows the databases; they must outlive the federation.
  explicit Federation(const std::vector<data::PrivateDatabase>& parties);

  /// Runs `descriptor` across all parties and returns the outcome.
  [[nodiscard]] QueryOutcome execute(const QueryDescriptor& descriptor,
                                     Rng& rng) const;

  [[nodiscard]] std::size_t parties() const { return parties_->size(); }

 private:
  const std::vector<data::PrivateDatabase>* parties_;
};

}  // namespace privtopk::query
