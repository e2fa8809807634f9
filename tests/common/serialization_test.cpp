#include "common/serialization.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace privtopk {
namespace {

TEST(ByteWriter, FixedWidthLittleEndian) {
  ByteWriter w;
  w.writeU8(0xab);
  w.writeU16(0x1234);
  w.writeU32(0xdeadbeef);
  w.writeU64(0x0102030405060708ULL);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 1u + 2 + 4 + 8);
  EXPECT_EQ(b[0], 0xab);
  EXPECT_EQ(b[1], 0x34);  // low byte first
  EXPECT_EQ(b[2], 0x12);
  EXPECT_EQ(b[3], 0xef);
  EXPECT_EQ(b[6], 0xde);
  EXPECT_EQ(b[7], 0x08);
  EXPECT_EQ(b[14], 0x01);
}

TEST(Serialization, RoundTripScalars) {
  ByteWriter w;
  w.writeU8(7);
  w.writeU16(65535);
  w.writeU32(4000000000u);
  w.writeU64(std::numeric_limits<std::uint64_t>::max());
  w.writeI64(-42);
  w.writeI64(std::numeric_limits<std::int64_t>::min());
  w.writeF64(3.14159265358979);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.readU8(), 7);
  EXPECT_EQ(r.readU16(), 65535);
  EXPECT_EQ(r.readU32(), 4000000000u);
  EXPECT_EQ(r.readU64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.readI64(), -42);
  EXPECT_EQ(r.readI64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_DOUBLE_EQ(r.readF64(), 3.14159265358979);
  EXPECT_TRUE(r.atEnd());
}

TEST(Serialization, VarintBoundaries) {
  const std::uint64_t cases[] = {0,    1,    127,   128,
                                 300,  16383, 16384, 1u << 20,
                                 (1ull << 63), std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : cases) {
    ByteWriter w;
    w.writeVarint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.readVarint(), v) << "value " << v;
    EXPECT_TRUE(r.atEnd());
  }
}

TEST(Serialization, VarintEncodingSize) {
  ByteWriter w;
  w.writeVarint(127);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.writeVarint(128);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Serialization, StringAndBlobRoundTrip) {
  ByteWriter w;
  w.writeString("hello, ring");
  w.writeString("");
  const Bytes blob = {0x00, 0xff, 0x10};
  w.writeBlob(blob);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.readString(), "hello, ring");
  EXPECT_EQ(r.readString(), "");
  EXPECT_EQ(r.readBlob(), blob);
  EXPECT_TRUE(r.atEnd());
}

TEST(Serialization, ValueVectorRoundTrip) {
  const std::vector<std::int64_t> values = {9999, -1, 0, 42, 10000};
  ByteWriter w;
  w.writeValueVector(values);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.readValueVector(), values);
}

TEST(Serialization, EmptyValueVector) {
  ByteWriter w;
  w.writeValueVector({});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.readValueVector().empty());
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteReader, TruncatedInputThrows) {
  ByteWriter w;
  w.writeU32(12345);
  Bytes b = w.bytes();
  b.pop_back();
  ByteReader r(b);
  EXPECT_THROW((void)r.readU32(), ProtocolError);
}

TEST(ByteReader, TruncatedStringThrows) {
  ByteWriter w;
  w.writeVarint(100);  // declares 100 bytes, supplies none
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.readString(), ProtocolError);
}

TEST(ByteReader, OversizedValueVectorRejected) {
  // A hostile frame declaring 2^60 values must be rejected before any
  // allocation of that size.
  ByteWriter w;
  w.writeVarint(1ull << 60);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.readValueVector(), ProtocolError);
}

TEST(ByteReader, ValueVectorFillingTheBufferExactly) {
  // A count of exactly remaining() / 8 values is the largest one allowed.
  ByteWriter w;
  w.writeVarint(3);
  for (std::int64_t v : {INT64_MIN, std::int64_t{-1}, INT64_MAX}) {
    w.writeI64(v);
  }
  ByteReader r(w.bytes());
  EXPECT_EQ(r.readValueVector(),
            (std::vector<std::int64_t>{INT64_MIN, -1, INT64_MAX}));
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteReader, ValueVectorOneByteShortRejected) {
  ByteWriter w;
  w.writeVarint(3);
  for (std::int64_t v : {1, 2, 3}) w.writeI64(v);
  Bytes b = w.bytes();
  b.pop_back();
  ByteReader r(b);
  EXPECT_THROW((void)r.readValueVector(), ProtocolError);
}

TEST(ByteReader, ValueVectorCountWhoseByteSizeWrapsRejected) {
  // (2^61 + 1) * 8 wraps to 8 in 64 bits: a check on n * 8 would accept
  // this count against the one value that follows it.
  for (std::uint64_t n : {(1ull << 61) + 1, 1ull << 61, ~0ull}) {
    ByteWriter w;
    w.writeVarint(n);
    w.writeI64(7);
    ByteReader r(w.bytes());
    EXPECT_THROW((void)r.readValueVector(), ProtocolError) << n;
  }
}

TEST(ByteReader, VarintOverflowRejected) {
  Bytes b(11, 0xff);  // 11 continuation bytes > 64 bits
  ByteReader r(b);
  EXPECT_THROW((void)r.readVarint(), ProtocolError);
}

}  // namespace
}  // namespace privtopk
