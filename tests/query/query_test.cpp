#include <gtest/gtest.h>

#include <limits>
#include <span>

#include "common/error.hpp"
#include "data/generator.hpp"
#include "query/descriptor.hpp"
#include "query/federation.hpp"

namespace privtopk::query {
namespace {

QueryDescriptor baseDescriptor() {
  QueryDescriptor d;
  d.queryId = 7;
  d.type = QueryType::TopK;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = 3;
  d.params.rounds = 12;
  return d;
}

std::vector<data::PrivateDatabase> makeFleet(std::size_t n, std::size_t rows,
                                             std::uint64_t seed) {
  data::FleetSpec spec;
  spec.nodes = n;
  spec.rowsPerNode = rows;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(seed);
  return data::generateFleet(spec, rng);
}

// ---------------------------------------------------------------------------
// QueryDescriptor
// ---------------------------------------------------------------------------

TEST(QueryDescriptor, EncodeDecodeRoundTrip) {
  QueryDescriptor d = baseDescriptor();
  d.params.remapEachRound = true;
  d.params.domain = Domain{-100, 50000};
  const QueryDescriptor back = QueryDescriptor::decode(d.encode());
  EXPECT_EQ(back, d);
}

TEST(QueryDescriptor, RoundTripWithoutExplicitRounds) {
  QueryDescriptor d = baseDescriptor();
  d.params.rounds.reset();
  d.params.epsilon = 1e-5;
  const QueryDescriptor back = QueryDescriptor::decode(d.encode());
  EXPECT_EQ(back, d);
  EXPECT_FALSE(back.params.rounds.has_value());
}

TEST(QueryDescriptor, AllTypesRoundTrip) {
  for (QueryType type : {QueryType::TopK, QueryType::BottomK, QueryType::Max,
                         QueryType::Min}) {
    QueryDescriptor d = baseDescriptor();
    d.type = type;
    EXPECT_EQ(QueryDescriptor::decode(d.encode()).type, type);
  }
}

TEST(QueryDescriptor, EffectiveKAndBottomFlags) {
  QueryDescriptor d = baseDescriptor();
  EXPECT_EQ(d.effectiveK(), 3u);
  EXPECT_FALSE(d.isBottom());
  d.type = QueryType::Max;
  EXPECT_EQ(d.effectiveK(), 1u);
  d.type = QueryType::Min;
  EXPECT_EQ(d.effectiveK(), 1u);
  EXPECT_TRUE(d.isBottom());
  d.type = QueryType::BottomK;
  EXPECT_EQ(d.effectiveK(), 3u);
  EXPECT_TRUE(d.isBottom());
}

TEST(QueryDescriptor, ValidationRejectsBadFields) {
  QueryDescriptor d = baseDescriptor();
  d.tableName.clear();
  EXPECT_THROW(d.validate(), ConfigError);
  d = baseDescriptor();
  d.attribute.clear();
  EXPECT_THROW(d.validate(), ConfigError);
  d = baseDescriptor();
  d.params.p0 = 2.0;
  EXPECT_THROW(d.validate(), ConfigError);
}

TEST(QueryDescriptor, DecodeRejectsCorruptInput) {
  const Bytes good = baseDescriptor().encode();
  Bytes truncated(good.begin(), good.begin() + 5);
  EXPECT_THROW((void)QueryDescriptor::decode(truncated), Error);
  Bytes trailing = good;
  trailing.push_back(0x00);
  EXPECT_THROW((void)QueryDescriptor::decode(trailing), ProtocolError);
  Bytes badType = good;
  badType[8] = 99;  // type byte follows the 8-byte query id
  EXPECT_THROW((void)QueryDescriptor::decode(badType), ProtocolError);
}

TEST(QueryDescriptor, MechanismRoundTrip) {
  QueryDescriptor segmented = baseDescriptor();
  segmented.params.mechanism.kind = protocol::MechanismKind::Segmented;
  segmented.params.mechanism.segments = 8;
  EXPECT_EQ(QueryDescriptor::decode(segmented.encode()), segmented);

  QueryDescriptor ldp = baseDescriptor();
  ldp.params.mechanism.kind = protocol::MechanismKind::Ldp;
  ldp.params.mechanism.ldpEpsilon = 0.5;
  EXPECT_EQ(QueryDescriptor::decode(ldp.encode()), ldp);

  // The default mechanism costs exactly one extra byte on the wire.
  QueryDescriptor schedule = baseDescriptor();
  EXPECT_EQ(schedule.encode().size() + 1, segmented.encode().size());
}

TEST(QueryDescriptor, MechanismValidation) {
  // Non-schedule mechanisms replace the probabilistic randomizer: the
  // naive kinds and aggregates reject them.
  QueryDescriptor d = baseDescriptor();
  d.kind = protocol::ProtocolKind::Naive;
  d.params.mechanism.kind = protocol::MechanismKind::Segmented;
  EXPECT_THROW(d.validate(), ConfigError);

  d = baseDescriptor();
  d.type = QueryType::Sum;
  d.params.mechanism.kind = protocol::MechanismKind::Ldp;
  EXPECT_THROW(d.validate(), ConfigError);

  // Segmented forbids the schedule-only per-round remap knob.
  d = baseDescriptor();
  d.params.mechanism.kind = protocol::MechanismKind::Segmented;
  d.params.remapEachRound = true;
  EXPECT_THROW(d.validate(), ConfigError);

  // Out-of-range knobs are rejected by encode (validate) and decode alike.
  d = baseDescriptor();
  d.params.mechanism.kind = protocol::MechanismKind::Segmented;
  d.params.mechanism.segments = 1;
  EXPECT_THROW((void)d.encode(), ConfigError);
  d.params.mechanism.segments = 65;
  EXPECT_THROW((void)d.encode(), ConfigError);

  d = baseDescriptor();
  d.params.mechanism.kind = protocol::MechanismKind::Ldp;
  d.params.mechanism.ldpEpsilon = 0.0;
  EXPECT_THROW((void)d.encode(), ConfigError);

  // A tampered wire mechanism id is rejected with a typed error.
  Bytes wire = baseDescriptor().encode();
  wire.back() = 0x03;  // the mechanism id varint is the trailing byte
  EXPECT_THROW((void)QueryDescriptor::decode(wire), ProtocolError);
}

TEST(QueryDescriptor, DecodeRejectsOutOfRangeKnobs) {
  // decode leaves the knob ranges to validate() and reports a violation
  // as a wire error; a segment count too wide for its field saturates
  // rather than wrapping into range.
  const Bytes base = baseDescriptor().encode();
  ASSERT_EQ(base.back(), 0);  // the schedule mechanism id, no knob
  const auto patched = [&base](std::uint64_t id, auto writeKnob) {
    ByteWriter w;
    w.writeBytes(std::span(base).first(base.size() - 1));
    w.writeVarint(id);
    writeKnob(w);
    return w.take();
  };
  const auto segments = [](std::uint64_t s) {
    return [s](ByteWriter& w) { w.writeVarint(s); };
  };
  const auto epsilon = [](double e) {
    return [e](ByteWriter& w) { w.writeF64(e); };
  };
  const std::vector<Bytes> bad = {
      patched(1, segments(1)),
      patched(1, segments(65)),
      patched(1, segments((std::uint64_t{1} << 32) + 4)),
      patched(2, epsilon(0.0)),
      patched(2, epsilon(65.0)),
      patched(2, epsilon(std::numeric_limits<double>::quiet_NaN())),
      patched(2, epsilon(std::numeric_limits<double>::infinity())),
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW((void)QueryDescriptor::decode(bad[i]), ProtocolError) << i;
  }
  const Bytes ok = patched(1, segments(64));
  EXPECT_EQ(QueryDescriptor::decode(ok).params.mechanism.segments, 64u);
}

TEST(QueryDescriptor, MechanismsNeverShareACacheKey) {
  QueryDescriptor schedule = baseDescriptor();
  QueryDescriptor segmented = baseDescriptor();
  segmented.params.mechanism.kind = protocol::MechanismKind::Segmented;
  segmented.params.mechanism.segments = 8;
  QueryDescriptor ldp = baseDescriptor();
  ldp.params.mechanism.kind = protocol::MechanismKind::Ldp;
  ldp.params.mechanism.ldpEpsilon = 1.0;

  const Bytes a = normalizedForCaching(schedule).encode();
  const Bytes b = normalizedForCaching(segmented).encode();
  const Bytes c = normalizedForCaching(ldp).encode();
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);

  // Same mechanism at a different setting is a different question too.
  QueryDescriptor segmented16 = segmented;
  segmented16.params.mechanism.segments = 16;
  EXPECT_NE(b, normalizedForCaching(segmented16).encode());

  // ...but the schedule knobs no longer shape the answer: two segmented
  // queries differing only in p0/d/rounds normalize to one key.
  QueryDescriptor segmentedOtherSchedule = segmented;
  segmentedOtherSchedule.params.p0 = 0.25;
  segmentedOtherSchedule.params.rounds = 3;
  EXPECT_EQ(b, normalizedForCaching(segmentedOtherSchedule).encode());
}

TEST(QueryDescriptor, TypeNames) {
  EXPECT_STREQ(toString(QueryType::TopK), "topk");
  EXPECT_STREQ(toString(QueryType::BottomK), "bottomk");
  EXPECT_STREQ(toString(QueryType::Max), "max");
  EXPECT_STREQ(toString(QueryType::Min), "min");
}

// ---------------------------------------------------------------------------
// LocalParty / Federation
// ---------------------------------------------------------------------------

TEST(LocalParty, ValidatesSchema) {
  const auto fleet = makeFleet(3, 10, 1);
  const LocalParty party(fleet[0]);
  EXPECT_NO_THROW(party.checkSchema(baseDescriptor()));

  QueryDescriptor wrongTable = baseDescriptor();
  wrongTable.tableName = "nope";
  EXPECT_THROW(party.checkSchema(wrongTable), SchemaError);

  QueryDescriptor wrongAttr = baseDescriptor();
  wrongAttr.attribute = "id";  // text column
  EXPECT_THROW(party.checkSchema(wrongAttr), SchemaError);
}

TEST(LocalParty, TopInputIsLocalTopK) {
  const auto fleet = makeFleet(3, 10, 2);
  const LocalParty party(fleet[1]);
  EXPECT_EQ(party.localInput(baseDescriptor()),
            fleet[1].localTopK("sales", "revenue", 3));
}

TEST(LocalParty, BottomInputIsMirroredAndDescending) {
  const auto fleet = makeFleet(3, 10, 3);
  QueryDescriptor d = baseDescriptor();
  d.type = QueryType::BottomK;
  const LocalParty party(fleet[0]);
  const TopKVector input = party.localInput(d);
  EXPECT_TRUE(std::is_sorted(input.begin(), input.end(), std::greater<>()));
  // Mirroring back must give the ascending local bottom-k.
  TopKVector mirrored = input;
  for (Value& v : mirrored) {
    v = d.params.domain.min + d.params.domain.max - v;
  }
  EXPECT_EQ(mirrored, fleet[0].localBottomK("sales", "revenue", 3));
}

TEST(Federation, TopKMatchesTruth) {
  const auto fleet = makeFleet(5, 12, 4);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  const Federation federation(fleet);
  Rng rng(5);
  const QueryOutcome outcome = federation.execute(baseDescriptor(), rng);
  EXPECT_EQ(outcome.values, data::trueTopK(raw, 3));
  EXPECT_EQ(outcome.rounds, 12u);
  EXPECT_EQ(outcome.messages, 12u * 5 + 5);
}

TEST(Federation, BottomKAscending) {
  const auto fleet = makeFleet(4, 12, 6);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  QueryDescriptor d = baseDescriptor();
  d.type = QueryType::BottomK;
  const Federation federation(fleet);
  Rng rng(7);
  const QueryOutcome outcome = federation.execute(d, rng);

  std::vector<Value> all;
  for (const auto& v : raw) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  all.resize(3);
  EXPECT_EQ(outcome.values, all);
}

TEST(Federation, MaxAndMin) {
  const auto fleet = makeFleet(4, 12, 8);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  Value lo = raw[0][0];
  Value hi = raw[0][0];
  for (const auto& v : raw) {
    for (Value x : v) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  const Federation federation(fleet);
  QueryDescriptor d = baseDescriptor();
  d.type = QueryType::Max;
  Rng rng1(9);
  EXPECT_EQ(federation.execute(d, rng1).values, (TopKVector{hi}));
  d.type = QueryType::Min;
  Rng rng2(10);
  EXPECT_EQ(federation.execute(d, rng2).values, (TopKVector{lo}));
}

TEST(Federation, SumQueryExact) {
  const auto fleet = makeFleet(4, 10, 20);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  std::int64_t expected = 0;
  for (const auto& party : raw) {
    for (Value v : party) expected += v;
  }
  QueryDescriptor d = baseDescriptor();
  d.type = QueryType::Sum;
  const Federation federation(fleet);
  Rng rng(21);
  const QueryOutcome outcome = federation.execute(d, rng);
  ASSERT_EQ(outcome.values.size(), 1u);
  EXPECT_EQ(outcome.values[0], expected);
  EXPECT_EQ(outcome.messages, 4u);  // one masked pass around the ring
}

TEST(Federation, CountQueryExact) {
  const auto fleet = makeFleet(5, 7, 22);
  QueryDescriptor d = baseDescriptor();
  d.type = QueryType::Count;
  const Federation federation(fleet);
  Rng rng(23);
  EXPECT_EQ(federation.execute(d, rng).values, (TopKVector{5 * 7}));
}

TEST(Federation, AverageQueryReturnsSumAndCount) {
  const auto fleet = makeFleet(3, 4, 24);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  std::int64_t sum = 0;
  for (const auto& party : raw) {
    for (Value v : party) sum += v;
  }
  QueryDescriptor d = baseDescriptor();
  d.type = QueryType::Average;
  const Federation federation(fleet);
  Rng rng(25);
  const QueryOutcome outcome = federation.execute(d, rng);
  ASSERT_EQ(outcome.values.size(), 2u);
  EXPECT_EQ(outcome.values[0], sum);
  EXPECT_EQ(outcome.values[1], 12);
}

TEST(LocalParty, AggregateAddends) {
  const auto fleet = makeFleet(3, 5, 26);
  const LocalParty party(fleet[0]);
  QueryDescriptor d = baseDescriptor();
  d.type = QueryType::Average;
  const auto addends = party.localAggregate(d);
  ASSERT_EQ(addends.size(), 2u);
  std::int64_t sum = 0;
  for (Value v : fleet[0].table("sales").intColumn("revenue")) sum += v;
  EXPECT_EQ(addends[0], sum);
  EXPECT_EQ(addends[1], 5);
  // Misuse guards.
  d.type = QueryType::TopK;
  EXPECT_THROW((void)party.localAggregate(d), ConfigError);
}

TEST(QueryDescriptor, AggregateTypesRoundTripAndFlags) {
  for (QueryType type :
       {QueryType::Sum, QueryType::Count, QueryType::Average}) {
    QueryDescriptor d = baseDescriptor();
    d.type = type;
    EXPECT_TRUE(d.isAggregate());
    EXPECT_FALSE(d.isBottom());
    EXPECT_EQ(QueryDescriptor::decode(d.encode()).type, type);
  }
  EXPECT_EQ(baseDescriptor().isAggregate(), false);
  QueryDescriptor avg = baseDescriptor();
  avg.type = QueryType::Average;
  EXPECT_EQ(avg.effectiveK(), 2u);
}

TEST(Federation, NaiveKindSupported) {
  const auto fleet = makeFleet(4, 8, 11);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  QueryDescriptor d = baseDescriptor();
  d.kind = protocol::ProtocolKind::Naive;
  const Federation federation(fleet);
  Rng rng(12);
  const QueryOutcome outcome = federation.execute(d, rng);
  EXPECT_EQ(outcome.values, data::trueTopK(raw, 3));
  EXPECT_EQ(outcome.rounds, 1u);
}

TEST(Federation, RequiresThreeParties) {
  const auto fleet = makeFleet(3, 5, 13);
  std::vector<data::PrivateDatabase> two;
  two.push_back(data::PrivateDatabase("a"));
  two.push_back(data::PrivateDatabase("b"));
  EXPECT_THROW(Federation{two}, ConfigError);
}

TEST(PresentResult, IdentityForTopMirrorForBottom) {
  QueryDescriptor d = baseDescriptor();
  EXPECT_EQ(presentResult(d, {9, 5, 1}), (TopKVector{9, 5, 1}));
  d.type = QueryType::BottomK;
  d.params.domain = Domain{1, 100};
  // Protocol space descending {99, 95, 90} -> originals ascending {2, 6, 11}.
  EXPECT_EQ(presentResult(d, {99, 95, 90}), (TopKVector{2, 6, 11}));
}

}  // namespace
}  // namespace privtopk::query
