// Robustness "fuzzing" of every wire decoder and CLI spec parser: random
// byte/text soup, random mutations of valid inputs, truncations, and
// extensions must either decode cleanly or throw a typed Error - never
// crash, hang, or allocate absurdly.  Deterministic seeds keep failures
// reproducible.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "data/generator.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "query/descriptor.hpp"
#include "query/service_core.hpp"

namespace privtopk {
namespace {

Bytes randomBytes(Rng& rng, std::size_t maxLen) {
  Bytes out(rng.index(maxLen + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

template <typename DecodeFn>
void expectNoCrash(const Bytes& input, DecodeFn&& decode) {
  try {
    decode(input);
  } catch (const Error&) {
    // typed rejection is the expected failure mode
  } catch (const std::exception& e) {
    FAIL() << "non-library exception: " << e.what();
  }
}

TEST(FuzzDecode, MessageDecoderSurvivesRandomBytes) {
  Rng rng(0xF00D);
  for (int i = 0; i < 5000; ++i) {
    expectNoCrash(randomBytes(rng, 64),
                  [](const Bytes& b) { (void)net::decodeMessage(b); });
  }
}

TEST(FuzzDecode, MessageDecoderSurvivesMutatedValidEncodings) {
  Rng rng(0xF00E);
  const Bytes valid = net::encodeMessage(
      net::RoundToken{42, 7, {9999, 5000, 1, -3, 10000}});
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.index(4));
    for (int m = 0; m < mutations; ++m) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    expectNoCrash(mutated,
                  [](const Bytes& b) { (void)net::decodeMessage(b); });
  }
}

TEST(FuzzDecode, MessageDecoderSurvivesTruncations) {
  const Bytes valid = net::encodeMessage(
      net::ResultAnnouncement{7, {100, 50, 25, 12, 6}});
  for (std::size_t len = 0; len < valid.size(); ++len) {
    Bytes truncated(valid.begin(),
                    valid.begin() + static_cast<std::ptrdiff_t>(len));
    expectNoCrash(truncated,
                  [](const Bytes& b) { (void)net::decodeMessage(b); });
  }
}

TEST(FuzzDecode, MessageDecoderSurvivesExtensions) {
  Rng rng(0xF010);
  const Bytes valid = net::encodeMessage(net::RingRepair{1, 2, 3});
  for (int i = 0; i < 200; ++i) {
    Bytes extended = valid;
    const Bytes junk = randomBytes(rng, 16);
    extended.insert(extended.end(), junk.begin(), junk.end());
    expectNoCrash(extended,
                  [](const Bytes& b) { (void)net::decodeMessage(b); });
  }
}

TEST(FuzzDecode, QueryDescriptorSurvivesRandomBytes) {
  Rng rng(0xF011);
  for (int i = 0; i < 5000; ++i) {
    expectNoCrash(randomBytes(rng, 128), [](const Bytes& b) {
      (void)query::QueryDescriptor::decode(b);
    });
  }
}

TEST(FuzzDecode, QueryDescriptorSurvivesMutations) {
  Rng rng(0xF012);
  query::QueryDescriptor d;
  d.queryId = 5;
  d.params.k = 3;
  d.params.rounds = 7;
  const Bytes valid = d.encode();
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = valid;
    mutated[rng.index(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.index(8));
    expectNoCrash(mutated, [](const Bytes& b) {
      (void)query::QueryDescriptor::decode(b);
    });
  }
}

TEST(FuzzDecode, MechanismFieldsSurviveMutations) {
  // Mutate valid segmented/LDP encodings (descriptor and announce): the
  // mechanism tail must reject corruption with a typed error, not crash,
  // and a service handed any announce that still decodes must drop or
  // serve it without throwing.
  Rng rng(0xF013);
  query::QueryDescriptor segmented;
  segmented.queryId = 6;
  segmented.tableName = "sales";
  segmented.attribute = "revenue";
  segmented.params.k = 4;
  segmented.params.rounds = 5;
  segmented.params.mechanism.kind = protocol::MechanismKind::Segmented;
  segmented.params.mechanism.segments = 8;
  query::QueryDescriptor ldp = segmented;
  ldp.params.mechanism.kind = protocol::MechanismKind::Ldp;
  ldp.params.mechanism.ldpEpsilon = 0.5;
  const net::QueryAnnounce announce{6, segmented.encode(), {0, 1, 2}};
  const std::vector<Bytes> seeds = {segmented.encode(), ldp.encode(),
                                    net::encodeMessage(announce)};
  const auto dbs = data::fleetFromValues({{1}, {2}, {3}});
  const LogLevel savedLevel = logLevel();
  setLogLevel(LogLevel::Error);  // every dropped announce logs a warning
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = seeds[i % seeds.size()];
    const int mutations = 1 + static_cast<int>(rng.index(3));
    for (int m = 0; m < mutations; ++m) {
      mutated[rng.index(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    expectNoCrash(mutated, [](const Bytes& b) {
      (void)query::QueryDescriptor::decode(b);
    });
    std::optional<net::Message> decoded;
    expectNoCrash(mutated,
                  [&](const Bytes& b) { decoded = net::decodeMessage(b); });
    if (decoded && std::holds_alternative<net::QueryAnnounce>(*decoded)) {
      query::ServiceCore core(1, dbs[1], 7, query::ServiceOptions{}, nullptr);
      EXPECT_NO_THROW((void)core.onMessage(0, *decoded, 0, {}));
    }
  }
  setLogLevel(savedLevel);
}

TEST(FuzzDecode, RoundTripSurvivesAdversarialVectors) {
  // Decoded-then-reencoded valid messages must be stable (idempotent
  // canonical encoding).
  const std::vector<net::Message> messages = {
      net::RoundToken{0, 1, {}},
      net::RoundToken{~0ull, ~0u, {INT64_MAX, INT64_MIN, 0}},
      net::RoundToken{5, 3, {10000, 1}, {}, net::domainCoding(kPaperDomain)},
      net::ResultAnnouncement{1, TopKVector(100, 7)},
      net::ResultAnnouncement{1, TopKVector(100, 7), {},
                              net::ValueCoding{-3, 5}},
      net::RingRepair{9, 4294967295u, 0},
      net::SumToken{3, 2, {INT64_MIN, -1, INT64_MAX}},
  };
  for (const auto& msg : messages) {
    const Bytes once = net::encodeMessage(msg);
    const Bytes twice = net::encodeMessage(net::decodeMessage(once));
    EXPECT_EQ(once, twice);
    EXPECT_EQ(net::encodedSize(msg), once.size());
  }
}

// ---------------------------------------------------------------------------
// Ranked value coding: base (zigzag varint) and width (one byte) ahead of
// the value count.

/// A paper-domain token's frame: tag, query id, round, then the coding
/// header at kCodingAt (base 1 as zigzag 0x02, width 2) and the count.
constexpr std::size_t kCodingAt = 1 + 8 + 4;

Bytes paperToken() {
  return net::encodeMessage(net::RoundToken{
      42, 7, {10000, 5000, 1}, {}, net::domainCoding(kPaperDomain)});
}

TEST(FuzzDecode, ValueWidthOutsideOneToEightIsRejected) {
  // A three-value token, and an empty one whose zero values would fit any
  // width: the width byte alone must make both fail.
  const Bytes valid = paperToken();
  ASSERT_EQ(valid[kCodingAt], 0x02);
  ASSERT_EQ(valid[kCodingAt + 1], 2);
  const Bytes empty = net::encodeMessage(
      net::RoundToken{1, 1, {}, {}, net::domainCoding(kPaperDomain)});
  for (int width = 0; width <= 255; ++width) {
    if (width >= 1 && width <= 8) continue;
    for (Bytes bad : {valid, empty}) {
      bad[kCodingAt + 1] = static_cast<std::uint8_t>(width);
      EXPECT_THROW((void)net::decodeMessage(bad), ProtocolError) << width;
    }
  }
  // The same header on a result frame (no round field).
  const Bytes result = net::encodeMessage(
      net::ResultAnnouncement{7, {}, {}, net::domainCoding(kPaperDomain)});
  for (const std::uint8_t width : {0, 9, 255}) {
    Bytes bad = result;
    bad[1 + 8 + 1] = width;
    EXPECT_THROW((void)net::decodeMessage(bad), ProtocolError) << int{width};
  }
}

TEST(FuzzDecode, TruncationInsideTheCodingOrTheValuesIsRejected) {
  // Every proper prefix fails: inside the base varint, before the width,
  // before the count, and mid-value.
  const Bytes valid = paperToken();
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const Bytes cut(valid.begin(),
                    valid.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)net::decodeMessage(cut), ProtocolError) << len;
  }
  // A multi-byte base varint cut after its continuation byte.
  const Bytes wide = net::encodeMessage(
      net::RoundToken{1, 1, {-100000}, {}, net::ValueCoding{-100000, 1}});
  ASSERT_GT(wide.size(), kCodingAt + 2);
  ASSERT_NE(wide[kCodingAt] & 0x80, 0);
  const Bytes cut(wide.begin(),
                  wide.begin() + static_cast<std::ptrdiff_t>(kCodingAt + 1));
  EXPECT_THROW((void)net::decodeMessage(cut), ProtocolError);
}

TEST(FuzzDecode, CountTimesWidthBeyondTheFrameIsRejected) {
  // Counts whose count * width exceeds the remaining bytes - including
  // ones where the product overflows 64 bits - fail before any allocation.
  for (const std::uint8_t width : {1, 2, 3, 7, 8}) {
    for (const std::uint64_t count :
         {std::uint64_t{4}, std::uint64_t{1} << 20, std::uint64_t{1} << 61,
          ~std::uint64_t{0} / width + 1, ~std::uint64_t{0}}) {
      ByteWriter w;
      w.writeU8(static_cast<std::uint8_t>(net::MessageTag::RoundToken));
      w.writeU64(1);
      w.writeU32(1);
      w.writeSignedVarint(0);
      w.writeU8(width);
      w.writeVarint(count);
      w.writeBytes(Bytes(3 * width, 0));  // room for 3 values, then ctx
      w.writeU8(0);
      w.writeU8(0);
      EXPECT_THROW((void)net::decodeMessage(w.bytes()), ProtocolError)
          << "width " << int{width} << " count " << count;
    }
  }
}

TEST(FuzzDecode, WidthEightBaseZeroKeepsTheInt64Extremes) {
  // The default coding reproduces every int64 exactly, with wrapping
  // arithmetic at both ends; so does a width-8 domain whose base is the
  // int64 minimum.
  const TopKVector extremes = {INT64_MAX, INT64_MIN, -1, 0, 1};
  const net::RoundToken plain{9, 2, extremes};
  ASSERT_EQ(plain.coding, (net::ValueCoding{0, 8}));
  const Bytes once = net::encodeMessage(plain);
  EXPECT_EQ(std::get<net::RoundToken>(net::decodeMessage(once)), plain);
  EXPECT_EQ(net::encodeMessage(net::decodeMessage(once)), once);

  const net::ResultAnnouncement shifted{
      9, extremes, {}, net::domainCoding(Domain{INT64_MIN, INT64_MAX})};
  ASSERT_EQ(shifted.coding.width, 8);
  EXPECT_EQ(
      std::get<net::ResultAnnouncement>(
          net::decodeMessage(net::encodeMessage(shifted))),
      shifted);
}

TEST(FuzzDecode, MutatedCodedFramesDecodeToTheirCodingOrFail) {
  // Bit flips in a paper-domain token either fail with a typed error or
  // decode to values that lie inside whatever coding the frame now names.
  Rng rng(0xF014);
  const Bytes valid = paperToken();
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = valid;
    mutated[rng.index(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.index(8));
    try {
      const auto message = net::decodeMessage(mutated);
      const auto* token = std::get_if<net::RoundToken>(&message);
      if (token == nullptr) continue;
      ASSERT_GE(token->coding.width, 1);
      ASSERT_LE(token->coding.width, 8);
      const auto base = static_cast<std::uint64_t>(token->coding.base);
      for (const Value v : token->vector) {
        const std::uint64_t offset = static_cast<std::uint64_t>(v) - base;
        if (token->coding.width < 8) {
          EXPECT_EQ(offset >> (8 * token->coding.width), 0u);
        }
      }
    } catch (const Error&) {
    }
  }
}

// ---------------------------------------------------------------------------
// CLI spec parser (--fault-spec)
// ---------------------------------------------------------------------------

/// Text soup biased toward the grammar's alphabet so mutations regularly
/// hit interesting paths (half-formed links, numeric prefixes, separators).
std::string randomSpecText(Rng& rng, std::size_t maxLen) {
  static const std::string alphabet =
      "0123456789:->*,;~@.xdropdelaycrash ";
  std::string out(rng.index(maxLen + 1), ' ');
  for (auto& c : out) c = alphabet[rng.index(alphabet.size())];
  return out;
}

template <typename ParseFn>
void expectTypedOrOk(const std::string& input, ParseFn&& parse) {
  try {
    parse(input);
  } catch (const ConfigError&) {
    // typed rejection is the expected failure mode
  } catch (const std::exception& e) {
    FAIL() << "non-ConfigError exception for '" << input << "': " << e.what();
  }
}

TEST(FuzzSpecParsers, FaultSpecSurvivesRandomText) {
  Rng rng(0xFA01);
  for (int i = 0; i < 5000; ++i) {
    expectTypedOrOk(randomSpecText(rng, 48), [](const std::string& s) {
      (void)net::FaultSpec::parse(s);
    });
  }
}

TEST(FuzzSpecParsers, BothParsersSurviveMutatedValidSpecs) {
  Rng rng(0xFA03);
  const std::string validFault = "drop:0->1:3,delay:1->2:50,crash:2@5";
  static const std::string alphabet = "0123456789:->*,;~@.x ";
  for (int i = 0; i < 2500; ++i) {
    std::string mutated = validFault;
    const int mutations = 1 + static_cast<int>(rng.index(4));
    for (int m = 0; m < mutations; ++m) {
      mutated[rng.index(mutated.size())] = alphabet[rng.index(alphabet.size())];
    }
    expectTypedOrOk(mutated, [](const std::string& s) {
      (void)net::FaultSpec::parse(s);
    });
  }
}

TEST(FuzzSpecParsers, RandomFaultSpecsRoundTripThroughToString) {
  Rng rng(0xFA04);
  for (int i = 0; i < 500; ++i) {
    net::FaultSpec spec;
    for (std::size_t d = rng.index(4); d > 0; --d) {
      spec.drops.push_back({static_cast<NodeId>(rng.index(16)),
                            static_cast<NodeId>(rng.index(16)),
                            1 + rng.index(100)});
    }
    for (std::size_t d = rng.index(4); d > 0; --d) {
      spec.delays.push_back(
          {static_cast<NodeId>(rng.index(16)), static_cast<NodeId>(rng.index(16)),
           std::chrono::milliseconds(static_cast<long>(rng.index(1000)))});
    }
    for (std::size_t d = rng.index(3); d > 0; --d) {
      spec.crashes.push_back(
          {static_cast<NodeId>(rng.index(16)), rng.index(50)});
    }
    const std::string text = spec.toString();
    EXPECT_EQ(net::FaultSpec::parse(text).toString(), text);
  }
}

TEST(FuzzSpecParsers, MalformedTokensAreNamedInTheError) {
  const auto expectTokenIn = [](const std::string& token, auto&& parse) {
    try {
      parse();
      FAIL() << "expected ConfigError naming '" << token << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << "error should name '" << token << "' but was: " << e.what();
    }
  };
  // stoul used to accept garbage suffixes ("50x" parsed as 50); the strict
  // parsers must reject the whole token and echo it back.
  expectTokenIn("50x", [] { (void)net::FaultSpec::parse("delay:0->1:50x"); });
  expectTokenIn("1a", [] { (void)net::FaultSpec::parse("drop:0->1a:3"); });
  expectTokenIn("7q", [] { (void)net::FaultSpec::parse("crash:7q@1"); });
  expectTokenIn("3.5", [] { (void)net::FaultSpec::parse("drop:0->1:3.5"); });
  expectTokenIn("0>1", [] { (void)net::FaultSpec::parse("delay:0>1:5"); });
}

}  // namespace
}  // namespace privtopk
