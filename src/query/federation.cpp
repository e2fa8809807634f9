#include "query/federation.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "protocol/core.hpp"
#include "protocol/group.hpp"
#include "protocol/secure_sum.hpp"

namespace privtopk::query {

namespace {

Value mirror(const Domain& domain, Value v) {
  return domain.min + domain.max - v;
}

}  // namespace

void LocalParty::checkSchema(const QueryDescriptor& descriptor) const {
  const data::Table& table = db_->table(descriptor.tableName);
  // intColumn throws a precise SchemaError for missing/mistyped attribute.
  (void)table.intColumn(descriptor.attribute);
  descriptor.filter.validateAgainst(table.schema());
}

TopKVector LocalParty::localInput(const QueryDescriptor& descriptor) const {
  descriptor.validate();
  return scanInput(descriptor);
}

std::vector<std::int64_t> LocalParty::localAggregate(
    const QueryDescriptor& descriptor) const {
  descriptor.validate();
  return scanAggregate(descriptor);
}

// The scans check the schema as they resolve the table, the attribute
// column and (Filter::bind) the filter's columns.
TopKVector LocalParty::scanInput(const QueryDescriptor& descriptor) const {
  const data::Table& table = db_->table(descriptor.tableName);
  const data::BlockFilter filter = descriptor.filter.bind(table);
  const data::Best best =
      descriptor.isBottom() ? data::Best::Smallest : data::Best::Largest;
  TopKVector values = data::selectBest(table, descriptor.attribute,
                                       descriptor.effectiveK(), best, filter);
  const Domain& domain = descriptor.params.domain;
  for (Value v : values) {
    if (!domain.contains(v)) {
      throw ConfigError("LocalParty: value outside the public domain");
    }
  }
  if (descriptor.isBottom()) {
    // Mirror into max-space; the bottom-k is ascending, so the mirrored
    // vector is descending, as the protocol expects.
    for (Value& v : values) v = mirror(domain, v);
  }
  return values;
}

std::vector<std::int64_t> LocalParty::scanAggregate(
    const QueryDescriptor& descriptor) const {
  if (!descriptor.isAggregate()) {
    throw ConfigError("LocalParty::localAggregate: not an aggregate query");
  }
  const data::Table& table = db_->table(descriptor.tableName);
  const data::BlockFilter filter = descriptor.filter.bind(table);
  // Unfiltered, the table's running total is the answer.
  const data::ColumnSum total =
      filter ? data::sumSelected(table.intColumn(descriptor.attribute), filter)
             : table.intColumnTotal(descriptor.attribute);
  switch (descriptor.type) {
    case QueryType::Sum: return {total.sum};
    case QueryType::Count: return {total.rows};
    case QueryType::Average: return {total.sum, total.rows};
    default: throw ConfigError("localAggregate: unreachable");
  }
}

TopKVector presentResult(const QueryDescriptor& descriptor,
                         TopKVector protocolResult) {
  if (!descriptor.isBottom()) return protocolResult;
  // Descending mirrored values become ascending originals - already the
  // natural order for bottom-k.
  return mirrorValues(descriptor.params.domain, std::move(protocolResult));
}

TopKVector mirrorValues(const Domain& domain, TopKVector values) {
  for (Value& v : values) v = mirror(domain, v);
  return values;
}

Federation::Federation(const std::vector<data::PrivateDatabase>& parties)
    : parties_(&parties) {
  if (!protocol::core::meetsPrivacyFloor(parties.size())) {
    throw ConfigError("Federation: the protocol requires >= 3 parties");
  }
}

QueryOutcome Federation::execute(const QueryDescriptor& descriptor,
                                 Rng& rng) const {
  descriptor.validate();

  if (descriptor.isAggregate()) {
    // Statistics queries run the decentralized secure sum over per-party
    // aggregates (one masked pass, exact totals, uniform intermediates).
    std::vector<std::vector<std::int64_t>> counters;
    counters.reserve(parties_->size());
    for (const auto& db : *parties_) {
      counters.push_back(LocalParty(db).scanAggregate(descriptor));
    }
    const protocol::SecureSumResult sum = protocol::secureSum(counters, rng);
    QueryOutcome outcome;
    outcome.values = sum.totals;
    outcome.rounds = 1;
    outcome.messages = sum.messages;
    return outcome;
  }

  std::vector<std::vector<Value>> inputs;
  inputs.reserve(parties_->size());
  for (const auto& db : *parties_) {
    inputs.push_back(LocalParty(db).scanInput(descriptor));
  }

  protocol::ProtocolParams params = descriptor.params;
  params.k = descriptor.effectiveK();

  if (descriptor.groupSize >= 3) {
    // Group-parallel execution (paper §4.2): small rings in parallel, one
    // delegate ring to merge.  No single ring sees every party, so there
    // is no whole-run trace to return.
    const protocol::GroupedRunResult run = protocol::runGrouped(
        inputs, params, descriptor.kind, descriptor.groupSize, rng);
    QueryOutcome outcome;
    outcome.values = presentResult(descriptor, run.result);
    outcome.rounds = params.rounds.value_or(0);
    outcome.messages = run.totalMessages;
    return outcome;
  }

  const protocol::RingQueryRunner runner(params, descriptor.kind);
  protocol::RunResult run = runner.run(inputs, rng);

  QueryOutcome outcome;
  outcome.values = presentResult(descriptor, run.result);
  outcome.rounds = run.rounds;
  outcome.messages = run.totalMessages;
  outcome.trace = std::move(run.trace);
  return outcome;
}

}  // namespace privtopk::query
