#include "query/descriptor.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "protocol/mechanism.hpp"

namespace privtopk::query {

const char* toString(QueryType type) {
  switch (type) {
    case QueryType::TopK: return "topk";
    case QueryType::BottomK: return "bottomk";
    case QueryType::Max: return "max";
    case QueryType::Min: return "min";
    case QueryType::Sum: return "sum";
    case QueryType::Count: return "count";
    case QueryType::Average: return "average";
  }
  return "?";
}

std::size_t QueryDescriptor::effectiveK() const {
  if (type == QueryType::Max || type == QueryType::Min) return 1;
  if (type == QueryType::Average) return 2;  // {sum, count}
  if (isAggregate()) return 1;
  return params.k;
}

bool QueryDescriptor::isAggregate() const {
  return type == QueryType::Sum || type == QueryType::Count ||
         type == QueryType::Average;
}

bool QueryDescriptor::isBottom() const {
  return type == QueryType::BottomK || type == QueryType::Min;
}

void QueryDescriptor::validate() const {
  if (tableName.empty()) throw ConfigError("QueryDescriptor: empty table");
  if (attribute.empty()) throw ConfigError("QueryDescriptor: empty attribute");
  if (groupSize != 0 && groupSize < 3) {
    throw ConfigError("QueryDescriptor: groupSize must be 0 or >= 3");
  }
  protocol::ProtocolParams effective = params;
  effective.k = effectiveK();
  effective.validate();
  if (isAggregate()) {
    if (params.mechanism.kind != protocol::MechanismKind::Schedule) {
      throw ConfigError(
          "QueryDescriptor: aggregate queries run the secure-sum protocol "
          "and take no privacy mechanism");
    }
  } else {
    protocol::validateMechanismFor(kind, effective);
  }
}

Bytes QueryDescriptor::encode() const {
  validate();
  ByteWriter w;
  w.writeU64(queryId);
  w.writeU8(static_cast<std::uint8_t>(type));
  w.writeU8(static_cast<std::uint8_t>(kind));
  w.writeString(tableName);
  w.writeString(attribute);
  w.writeVarint(params.k);
  w.writeF64(params.p0);
  w.writeF64(params.d);
  w.writeI64(params.delta);
  w.writeI64(params.domain.min);
  w.writeI64(params.domain.max);
  w.writeU8(params.rounds.has_value() ? 1 : 0);
  w.writeU32(params.rounds.value_or(0));
  w.writeF64(params.epsilon);
  w.writeU8(params.remapEachRound ? 1 : 0);
  filter.encodeTo(w);
  w.writeVarint(groupSize);
  // Mechanism selection: id + only the knob that id consults, so the
  // default (Schedule) costs one zero byte and the canonical encoding is
  // free of the irrelevant knobs.
  w.writeVarint(static_cast<std::uint64_t>(params.mechanism.kind));
  if (params.mechanism.kind == protocol::MechanismKind::Segmented) {
    w.writeVarint(params.mechanism.segments);
  } else if (params.mechanism.kind == protocol::MechanismKind::Ldp) {
    w.writeF64(params.mechanism.ldpEpsilon);
  }
  return w.take();
}

QueryDescriptor QueryDescriptor::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  QueryDescriptor d;
  d.queryId = r.readU64();
  const std::uint8_t rawType = r.readU8();
  if (rawType > static_cast<std::uint8_t>(QueryType::Average)) {
    throw ProtocolError("QueryDescriptor: unknown query type");
  }
  d.type = static_cast<QueryType>(rawType);
  const std::uint8_t rawKind = r.readU8();
  if (rawKind > 2) throw ProtocolError("QueryDescriptor: unknown protocol kind");
  d.kind = static_cast<protocol::ProtocolKind>(rawKind);
  d.tableName = r.readString();
  d.attribute = r.readString();
  d.params.k = r.readVarint();
  d.params.p0 = r.readF64();
  d.params.d = r.readF64();
  d.params.delta = r.readI64();
  d.params.domain.min = r.readI64();
  d.params.domain.max = r.readI64();
  const bool hasRounds = r.readU8() != 0;
  const Round rounds = r.readU32();
  if (hasRounds) d.params.rounds = rounds;
  d.params.epsilon = r.readF64();
  d.params.remapEachRound = r.readU8() != 0;
  d.filter = Filter::decodeFrom(r);
  d.groupSize = r.readVarint();
  const std::uint64_t rawMechanism = r.readVarint();
  if (rawMechanism > static_cast<std::uint64_t>(protocol::MechanismKind::Ldp)) {
    throw ProtocolError("QueryDescriptor: unknown privacy mechanism");
  }
  d.params.mechanism.kind = static_cast<protocol::MechanismKind>(rawMechanism);
  // The knob ranges live in MechanismSpec::validate alone; a segment count
  // too wide for the field saturates, so validate() still sees it.
  if (d.params.mechanism.kind == protocol::MechanismKind::Segmented) {
    d.params.mechanism.segments = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(r.readVarint(), UINT32_MAX));
  } else if (d.params.mechanism.kind == protocol::MechanismKind::Ldp) {
    d.params.mechanism.ldpEpsilon = r.readF64();
  }
  if (!r.atEnd()) throw ProtocolError("QueryDescriptor: trailing bytes");
  // The one validation a received descriptor gets: its receivers trust
  // what decode returns.  Invalid fields on the wire are a wire violation.
  try {
    d.validate();
  } catch (const ConfigError& e) {
    throw ProtocolError(std::string("QueryDescriptor: ") + e.what());
  }
  return d;
}

QueryDescriptor normalizedForCaching(const QueryDescriptor& descriptor) {
  QueryDescriptor n = descriptor;
  n.queryId = 0;
  n.groupSize = 0;
  n.params.k = descriptor.effectiveK();
  if (descriptor.type == QueryType::Max) n.type = QueryType::TopK;
  if (descriptor.type == QueryType::Min) n.type = QueryType::BottomK;

  const protocol::ProtocolParams defaults;
  if (descriptor.isAggregate()) {
    // The masked secure-sum pass never consults the ring-protocol knobs.
    n.kind = protocol::ProtocolKind::Probabilistic;
    n.params.p0 = defaults.p0;
    n.params.d = defaults.d;
    n.params.delta = defaults.delta;
    n.params.rounds.reset();
    n.params.epsilon = defaults.epsilon;
    n.params.remapEachRound = defaults.remapEachRound;
    n.params.mechanism = defaults.mechanism;
  } else if (descriptor.params.mechanism.kind !=
             protocol::MechanismKind::Schedule) {
    // Segmented/LDP replace the Eq.-2 randomizer entirely: none of the
    // schedule knobs or the round budget shape the answer.  The
    // mechanism's own knob stays - distinct mechanisms (or the same
    // mechanism at different settings) must never share a cache entry.
    n.params.p0 = defaults.p0;
    n.params.d = defaults.d;
    n.params.delta = defaults.delta;
    n.params.rounds.reset();
    n.params.epsilon = defaults.epsilon;
    n.params.remapEachRound = defaults.remapEachRound;
  } else if (descriptor.kind != protocol::ProtocolKind::Probabilistic) {
    // The naive variants run exactly one deterministic round; the
    // randomization schedule and round budget cannot shape the answer.
    n.params.p0 = defaults.p0;
    n.params.d = defaults.d;
    n.params.delta = defaults.delta;
    n.params.rounds.reset();
    n.params.epsilon = defaults.epsilon;
    n.params.remapEachRound = defaults.remapEachRound;
  } else {
    // An explicit round budget and the same budget derived from a
    // precision target are the same question.
    n.params.rounds = descriptor.params.effectiveRounds();
    n.params.epsilon = defaults.epsilon;
  }
  return n;
}

bool operator==(const QueryDescriptor& a, const QueryDescriptor& b) {
  return a.queryId == b.queryId && a.type == b.type && a.kind == b.kind &&
         a.tableName == b.tableName && a.attribute == b.attribute &&
         a.params.k == b.params.k && a.params.p0 == b.params.p0 &&
         a.params.d == b.params.d && a.params.delta == b.params.delta &&
         a.params.domain == b.params.domain &&
         a.params.rounds == b.params.rounds &&
         a.params.epsilon == b.params.epsilon &&
         a.params.remapEachRound == b.params.remapEachRound &&
         a.params.mechanism == b.params.mechanism && a.filter == b.filter &&
         a.groupSize == b.groupSize;
}

}  // namespace privtopk::query
