// Endian-safe binary serialization used by the wire protocol.
//
// All multi-byte integers are encoded little-endian regardless of host
// order.  Variable-length quantities (container sizes) use LEB128-style
// varints to keep round tokens small.  Readers validate every length
// against the remaining buffer and throw ProtocolError on malformed input
// so a corrupt or hostile frame can never read out of bounds.
//
// A writer can reserve its exact output size up front (net::encodeMessage
// does, from net::encodedSize), so a frame is written into one allocation;
// value vectors, the bulk of a round token, are stored and loaded eight
// bytes at a time.

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

  /// Bytes writeValueVector appends for `count` values.
  [[nodiscard]] static constexpr std::size_t valueVectorSize(
      std::size_t count) {
    return varintSize(count) + 8 * count;
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

  /// Length-prefixed vector of signed values (the top-k vector payload).
  void writeValueVector(std::span<const std::int64_t> values) {
    writeVarint(values.size());
    std::uint8_t* out = grow(8 * values.size());
    for (std::int64_t v : values) {
      detail::storeLE(out, static_cast<std::uint64_t>(v));
      out += 8;
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

  [[nodiscard]] std::vector<std::int64_t> readValueVector() {
    std::uint64_t n = readVarint();
    // Each value occupies 8 bytes; reject sizes the buffer cannot hold.
    if (n > remaining() / 8) throw ProtocolError("value vector too long");
    std::vector<std::int64_t> out(n);
    const std::uint8_t* in = data_.data() + pos_;
    for (std::int64_t& v : out) {
      v = static_cast<std::int64_t>(detail::loadLE<std::uint64_t>(in));
      in += 8;
    }
    pos_ += 8 * n;
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

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace privtopk
