// Endian-safe binary serialization used by the wire protocol.
//
// All multi-byte integers are encoded little-endian regardless of host
// order.  Variable-length quantities (container sizes) use LEB128-style
// varints to keep round tokens small.  Readers validate every length
// against the remaining buffer and throw ProtocolError on malformed input
// so a corrupt or hostile frame can never read out of bounds.
//
// A writer can reserve its exact output size up front (net::encodeMessage
// does, from net::encodedSize), so a frame is written into one allocation.
// Value vectors, the bulk of a round token, travel as `v - base` in a
// fixed width of 1-8 bytes (net::ValueCoding picks both from the query's
// public domain); the 1-, 2-, 4- and 8-byte widths are stored and loaded
// one word at a time.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace privtopk {

using Bytes = std::vector<std::uint8_t>;

namespace detail {

/// Stores `v` little-endian at `out` (sizeof(T) bytes).
template <typename T>
inline void storeLE(std::uint8_t* out, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Loads a little-endian T from `in` (sizeof(T) bytes).
template <typename T>
[[nodiscard]] inline T loadLE(const std::uint8_t* in) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(in[i]) << (8 * i));
    }
  }
  return v;
}

}  // namespace detail

/// Append-only binary writer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Bytes writeVarint(v) appends.
  [[nodiscard]] static constexpr std::size_t varintSize(std::uint64_t v) {
    std::size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }

  /// Bytes writeSignedVarint(v) appends.
  [[nodiscard]] static constexpr std::size_t signedVarintSize(std::int64_t v) {
    return varintSize(zigzag(v));
  }

  /// Bytes writeValueVector appends for `count` values of `width` bytes.
  [[nodiscard]] static constexpr std::size_t valueVectorSize(
      std::size_t count, std::size_t width = 8) {
    return varintSize(count) + width * count;
  }

  /// Reserves room for `n` more bytes, so the writes that follow do not
  /// reallocate.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  void writeU8(std::uint8_t v) { buf_.push_back(v); }

  void writeU16(std::uint16_t v) { writeLE(v); }
  void writeU32(std::uint32_t v) { writeLE(v); }
  void writeU64(std::uint64_t v) { writeLE(v); }

  /// Signed 64-bit value, two's-complement little-endian.
  void writeI64(std::int64_t v) { writeLE(static_cast<std::uint64_t>(v)); }

  void writeF64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    writeLE(bits);
  }

  /// Unsigned LEB128 varint.
  void writeVarint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-mapped signed varint: small magnitudes of either sign stay
  /// short.
  void writeSignedVarint(std::int64_t v) { writeVarint(zigzag(v)); }

  void writeBytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed byte string.
  void writeBlob(std::span<const std::uint8_t> data) {
    writeVarint(data.size());
    writeBytes(data);
  }

  /// Length-prefixed UTF-8 string.
  void writeString(std::string_view s) {
    writeVarint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Length-prefixed vector of signed values, each stored as `v - base`
  /// (wrapping mod 2^64) in `width` little-endian bytes, 1 <= width <= 8.
  /// Width 8 with base 0 stores every value as is.  Throws ProtocolError
  /// when a value does not fit: v - base must lie in [0, 2^(8*width)).
  void writeValueVector(std::span<const std::int64_t> values,
                        std::int64_t base = 0, std::size_t width = 8) {
    if (width == 0 || width > 8) {
      throw ProtocolError("value vector: width out of range");
    }
    writeVarint(values.size());
    std::uint8_t* out = grow(width * values.size());
    const auto b = static_cast<std::uint64_t>(base);
    switch (width) {
      case 1: return storeValues<std::uint8_t>(out, values, b);
      case 2: return storeValues<std::uint16_t>(out, values, b);
      case 4: return storeValues<std::uint32_t>(out, values, b);
      case 8: return storeValues<std::uint64_t>(out, values, b);
      default:
        for (std::int64_t v : values) {
          const std::uint64_t u = static_cast<std::uint64_t>(v) - b;
          if (u >> (8 * width) != 0) {
            throw ProtocolError("value vector: value outside its coding");
          }
          for (std::size_t i = 0; i < width; ++i) {
            out[i] = static_cast<std::uint8_t>(u >> (8 * i));
          }
          out += width;
        }
    }
  }

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  /// Appends `n` bytes and returns a pointer to the first, to be written.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  template <typename T>
  void writeLE(T v) {
    detail::storeLE(grow(sizeof(T)), v);
  }

  /// One branch-free pass: every value is stored, and the bits above the
  /// width are OR-ed together and checked once at the end (the buffer is
  /// abandoned when that throws).
  template <typename U>
  static void storeValues(std::uint8_t* __restrict out,
                          std::span<const std::int64_t> values,
                          std::uint64_t base) {
    const std::int64_t* __restrict in = values.data();
    const std::size_t n = values.size();
    std::uint64_t high = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t u = static_cast<std::uint64_t>(in[i]) - base;
      if constexpr (sizeof(U) < sizeof(std::uint64_t)) {
        high |= u >> (8 * sizeof(U));
      }
      detail::storeLE(out + i * sizeof(U), static_cast<U>(u));
    }
    if (high != 0) {
      throw ProtocolError("value vector: value outside its coding");
    }
  }

  static constexpr std::uint64_t zigzag(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
  }

  Bytes buf_;
};

/// Bounds-checked binary reader over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t readU8() {
    need(1);
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t readU16() { return readLE<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t readU32() { return readLE<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t readU64() { return readLE<std::uint64_t>(); }

  [[nodiscard]] std::int64_t readI64() {
    return static_cast<std::int64_t>(readLE<std::uint64_t>());
  }

  [[nodiscard]] double readF64() {
    std::uint64_t bits = readLE<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  [[nodiscard]] std::uint64_t readVarint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (shift >= 64) throw ProtocolError("varint overflow");
      std::uint8_t b = readU8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
    }
  }

  /// Inverse of ByteWriter::writeSignedVarint.
  [[nodiscard]] std::int64_t readSignedVarint() {
    const std::uint64_t z = readVarint();
    return static_cast<std::int64_t>((z >> 1) ^ (0 - (z & 1)));
  }

  [[nodiscard]] Bytes readBlob() {
    std::uint64_t n = readVarint();
    need(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::string readString() {
    std::uint64_t n = readVarint();
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data()) + pos_, n);
    pos_ += n;
    return out;
  }

  /// Inverse of ByteWriter::writeValueVector: each value is `base` plus
  /// its `width`-byte offset, wrapping mod 2^64.  Throws ProtocolError on
  /// a width outside [1, 8] or a count the remaining bytes cannot hold.
  [[nodiscard]] std::vector<std::int64_t> readValueVector(
      std::int64_t base = 0, std::size_t width = 8) {
    if (width == 0 || width > 8) {
      throw ProtocolError("value vector: width out of range");
    }
    const std::uint64_t n = readVarint();
    // Reject counts the buffer cannot hold (no count * width overflow).
    if (n > remaining() / width) throw ProtocolError("value vector too long");
    std::vector<std::int64_t> out(n);
    const std::uint8_t* in = data_.data() + pos_;
    const auto b = static_cast<std::uint64_t>(base);
    switch (width) {
      case 1: loadValues<std::uint8_t>(in, out, b); break;
      case 2: loadValues<std::uint16_t>(in, out, b); break;
      case 4: loadValues<std::uint32_t>(in, out, b); break;
      case 8: loadValues<std::uint64_t>(in, out, b); break;
      default:
        for (std::int64_t& v : out) {
          std::uint64_t u = 0;
          for (std::size_t i = 0; i < width; ++i) {
            u |= static_cast<std::uint64_t>(in[i]) << (8 * i);
          }
          v = static_cast<std::int64_t>(b + u);
          in += width;
        }
    }
    pos_ += width * n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool atEnd() const { return pos_ == data_.size(); }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) throw ProtocolError("serialized message truncated");
  }

  template <typename T>
  [[nodiscard]] T readLE() {
    need(sizeof(T));
    const T v = detail::loadLE<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  template <typename U>
  static void loadValues(const std::uint8_t* __restrict in,
                         std::vector<std::int64_t>& values,
                         std::uint64_t base) {
    std::int64_t* __restrict out = values.data();
    const std::size_t n = values.size();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::int64_t>(
          base + detail::loadLE<U>(in + i * sizeof(U)));
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace privtopk
