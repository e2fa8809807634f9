#include "net/message.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace privtopk::net {
namespace {

std::string hexOf(const Bytes& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

// The wire format, byte for byte: one frame of each type, pinned as hex.
// A codec change that moves any byte breaks every deployed peer, so these
// strings change only with a deliberate format revision (docs/PROTOCOL.md).
TEST(Message, GoldenBytesForEveryType) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  QueryAnnounce grouped{0x0102030405060708ull, Bytes{0xaa, 0xbb}, {4, 5, 300}};
  grouped.parentQueryId = 99;
  grouped.phase = 1;
  grouped.groups = 200;
  // Fields are split one per string piece: tag, query id, round, count,
  // values, trace context (two varints).
  const std::vector<std::pair<Message, std::string>> golden = {
      {RoundToken{42, 3, {kMax, -1, kMin}},
       "01" "2a00000000000000" "03000000" "03"
       "ffffffffffffff7f" "ffffffffffffffff" "0000000000000080" "00" "00"},
      {RoundToken{1, 1, {}},
       "01" "0100000000000000" "01000000" "00" "00" "00"},
      {ResultAnnouncement{7, {100, 50}},
       "02" "0700000000000000" "02" "6400000000000000" "3200000000000000"
       "00" "00"},
      {RingRepair{9, 3, 0xfffffffeu},
       "03" "0900000000000000" "03000000" "feffffff" "00" "00"},
      {SumToken{11, 2, {-5, 0, 123456789}},
       "04" "0b00000000000000" "02000000" "03"
       "fbffffffffffffff" "0000000000000000" "15cd5b0700000000" "00" "00"},
      // descriptor blob, ring order, parent id, phase, groups (phase 1).
      {grouped,
       "05" "0807060504030201" "02" "aabb" "03" "04000000" "05000000"
       "2c010000" "6300000000000000" "01" "c801" "00" "00"},
      {RoundToken{5, 2, {9999}, obs::TraceContext{300, 1ull << 40}},
       "01" "0500000000000000" "02000000" "01" "0f27000000000000" "ac02"
       "808080808020"},
  };
  for (const auto& [message, hex] : golden) {
    const Bytes encoded = encodeMessage(message);
    EXPECT_EQ(hexOf(encoded), hex);
    EXPECT_EQ(encodedSize(message), encoded.size());
    EXPECT_EQ(decodeMessage(encoded), message);
  }
}

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
