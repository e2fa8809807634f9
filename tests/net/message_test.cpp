#include "net/message.hpp"

#include <gtest/gtest.h>

namespace privtopk::net {
namespace {

TEST(Message, RoundTokenRoundTrip) {
  const RoundToken token{42, 3, {9999, 8888, 1}};
  const Bytes encoded = encodeMessage(token);
  const Message decoded = decodeMessage(encoded);
  ASSERT_TRUE(std::holds_alternative<RoundToken>(decoded));
  EXPECT_EQ(std::get<RoundToken>(decoded), token);
}

TEST(Message, EmptyVectorToken) {
  const RoundToken token{1, 1, {}};
  const Message decoded = decodeMessage(encodeMessage(token));
  EXPECT_EQ(std::get<RoundToken>(decoded), token);
}

TEST(Message, ResultAnnouncementRoundTrip) {
  const ResultAnnouncement result{7, {100, 50}};
  const Message decoded = decodeMessage(encodeMessage(result));
  ASSERT_TRUE(std::holds_alternative<ResultAnnouncement>(decoded));
  EXPECT_EQ(std::get<ResultAnnouncement>(decoded), result);
}

TEST(Message, RingRepairRoundTrip) {
  const RingRepair repair{9, 3, 5};
  const Message decoded = decodeMessage(encodeMessage(repair));
  ASSERT_TRUE(std::holds_alternative<RingRepair>(decoded));
  EXPECT_EQ(std::get<RingRepair>(decoded), repair);
}

TEST(Message, SumTokenRoundTrip) {
  const SumToken sum{11, 2, {-5, 0, 123456789}};
  const Message decoded = decodeMessage(encodeMessage(sum));
  ASSERT_TRUE(std::holds_alternative<SumToken>(decoded));
  EXPECT_EQ(std::get<SumToken>(decoded), sum);
}

TEST(Message, NegativeValuesSurvive) {
  const RoundToken token{1, 1, {-10000, -1}};
  const Message decoded = decodeMessage(encodeMessage(token));
  EXPECT_EQ(std::get<RoundToken>(decoded).vector, (TopKVector{-10000, -1}));
}

TEST(Message, QueryAnnounceRoundTrip) {
  const QueryAnnounce announce{21, Bytes{0x01, 0x02, 0x03}, {2, 0, 1}};
  const Message decoded = decodeMessage(encodeMessage(announce));
  ASSERT_TRUE(std::holds_alternative<QueryAnnounce>(decoded));
  EXPECT_EQ(std::get<QueryAnnounce>(decoded), announce);
}

TEST(Message, GroupedAnnounceRoundTrip) {
  QueryAnnounce announce{22, Bytes{0xaa}, {4, 5, 6}};
  announce.parentQueryId = 99;
  announce.phase = 1;
  announce.groups = 4;
  const Message decoded = decodeMessage(encodeMessage(announce));
  ASSERT_TRUE(std::holds_alternative<QueryAnnounce>(decoded));
  EXPECT_EQ(std::get<QueryAnnounce>(decoded), announce);

  announce.phase = 2;  // merge ring: the group count stays off the wire
  announce.groups = 0;
  EXPECT_EQ(std::get<QueryAnnounce>(decodeMessage(encodeMessage(announce))),
            announce);
}

TEST(Message, GroupedAnnounceValidation) {
  // Unknown phase values are rejected at decode time.
  QueryAnnounce badPhase{23, Bytes{0x01}, {0, 1, 2}};
  badPhase.parentQueryId = 7;
  badPhase.phase = 3;
  EXPECT_THROW((void)decodeMessage(encodeMessage(badPhase)), ProtocolError);

  // A phase sub-query must name its parent, and a standalone query must
  // not.
  QueryAnnounce orphanPhase{24, Bytes{0x01}, {0, 1, 2}};
  orphanPhase.phase = 1;
  orphanPhase.groups = 3;
  EXPECT_THROW((void)decodeMessage(encodeMessage(orphanPhase)),
               ProtocolError);

  QueryAnnounce strayParent{25, Bytes{0x01}, {0, 1, 2}};
  strayParent.parentQueryId = 9;
  EXPECT_THROW((void)decodeMessage(encodeMessage(strayParent)),
               ProtocolError);

  // A grouped query has at least three groups.
  QueryAnnounce twoGroups{26, Bytes{0x01}, {0, 1, 2}};
  twoGroups.parentQueryId = 9;
  twoGroups.phase = 1;
  twoGroups.groups = 2;
  EXPECT_THROW((void)decodeMessage(encodeMessage(twoGroups)), ProtocolError);
}

TEST(Message, UnknownTagRejected) {
  Bytes bogus = {0x7f, 0x00};
  EXPECT_THROW((void)decodeMessage(bogus), ProtocolError);
}

TEST(Message, TruncatedPayloadRejected) {
  Bytes encoded = encodeMessage(RoundToken{42, 3, {1, 2, 3}});
  encoded.resize(encoded.size() / 2);
  EXPECT_THROW((void)decodeMessage(encoded), ProtocolError);
}

TEST(Message, TrailingGarbageRejected) {
  Bytes encoded = encodeMessage(RoundToken{42, 3, {1}});
  encoded.push_back(0xee);
  EXPECT_THROW((void)decodeMessage(encoded), ProtocolError);
}

TEST(Message, EmptyInputRejected) {
  EXPECT_THROW((void)decodeMessage(Bytes{}), ProtocolError);
}

TEST(Message, TraceContextRoundTripsOnEveryType) {
  const obs::TraceContext ctx{0xfedcba9876543210ull, 0x123456789abcdef0ull};

  const RoundToken token{42, 3, {9999, 1}, ctx};
  EXPECT_EQ(std::get<RoundToken>(decodeMessage(encodeMessage(token))), token);

  const ResultAnnouncement result{7, {100, 50}, ctx};
  EXPECT_EQ(
      std::get<ResultAnnouncement>(decodeMessage(encodeMessage(result))),
      result);

  const RingRepair repair{9, 3, 5, ctx};
  EXPECT_EQ(std::get<RingRepair>(decodeMessage(encodeMessage(repair))),
            repair);

  const SumToken sum{11, 2, {-5, 123}, ctx};
  EXPECT_EQ(std::get<SumToken>(decodeMessage(encodeMessage(sum))), sum);

  QueryAnnounce announce{21, Bytes{0x01}, {2, 0, 1}};
  announce.ctx = ctx;
  EXPECT_EQ(std::get<QueryAnnounce>(decodeMessage(encodeMessage(announce))),
            announce);
}

TEST(Message, RootTraceContextHasZeroParent) {
  // A root span context (parent 0) is valid on the wire.
  const RoundToken token{1, 1, {5}, obs::TraceContext{77, 0}};
  EXPECT_EQ(std::get<RoundToken>(decodeMessage(encodeMessage(token))).ctx,
            (obs::TraceContext{77, 0}));
}

TEST(Message, ParentSpanWithoutTraceIdRejected) {
  // parent_span_id != 0 while trace_id == 0 is internally inconsistent;
  // the decoder must reject it rather than propagate a half-formed
  // context.
  const RoundToken token{1, 1, {5}, obs::TraceContext{0, 99}};
  EXPECT_THROW((void)decodeMessage(encodeMessage(token)), ProtocolError);

  const ResultAnnouncement result{1, {5}, obs::TraceContext{0, 99}};
  EXPECT_THROW((void)decodeMessage(encodeMessage(result)), ProtocolError);
}

TEST(Message, UntracedMessagesStaySmall) {
  // trace_id == 0 costs exactly two zero bytes on the wire.
  const RoundToken traced{42, 3, {1, 2, 3}, obs::TraceContext{1, 0}};
  RoundToken untraced = traced;
  untraced.ctx = {};
  EXPECT_EQ(encodeMessage(untraced).size(), encodeMessage(traced).size());
  const Bytes bytes = encodeMessage(untraced);
  ASSERT_GE(bytes.size(), 2u);
  EXPECT_EQ(bytes[bytes.size() - 1], 0);
  EXPECT_EQ(bytes[bytes.size() - 2], 0);
}

}  // namespace
}  // namespace privtopk::net
