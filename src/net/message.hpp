// Wire messages exchanged on the ring.
//
// Every message carries a query id so concurrent queries can share links.
// Framing/encryption is the transport's job; this layer is the typed
// payload codec (see common/serialization.hpp for the encoding rules).
//
// Every message also carries an obs::TraceContext as two trailing varints
// (trace id, parent span id) so distributed traces survive node hops.  A
// zero trace id means tracing is off and costs two bytes per message.
//
// Ranked values (RoundToken, ResultAnnouncement) travel in a ValueCoding
// fixed by the query's public domain, so a frame's length depends only on
// k and that domain - never on the values (docs/PRIVACY.md).

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <variant>

#include "common/serialization.hpp"
#include "common/types.hpp"
#include "obs/context.hpp"

namespace privtopk::net {

/// The first byte of every encoded message.
enum class MessageTag : std::uint8_t {
  RoundToken = 1,
  ResultAnnouncement = 2,
  RingRepair = 3,
  SumToken = 4,
  QueryAnnounce = 5,
};

/// How a frame carries its values: each value v as v - base (wrapping
/// mod 2^64) in `width` little-endian bytes, 1 <= width <= 8.  The default
/// stores every int64 as is, in 8 bytes.
struct ValueCoding {
  Value base = 0;
  std::uint8_t width = 8;

  friend bool operator==(const ValueCoding&, const ValueCoding&) = default;
};

/// The coding of a ranked query over `domain`: base = domain.min and the
/// fewest whole bytes that hold domain.max - domain.min (2 for the paper's
/// [1, 10000], 8 for the full int64 range).  A pure function of public
/// data, so every node derives the same coding.
[[nodiscard]] constexpr ValueCoding domainCoding(const Domain& domain) {
  const std::uint64_t span = static_cast<std::uint64_t>(domain.max) -
                             static_cast<std::uint64_t>(domain.min);
  const auto bytes = static_cast<std::uint8_t>((std::bit_width(span) + 7) / 8);
  return ValueCoding{domain.min, std::max<std::uint8_t>(1, bytes)};
}

/// The per-round payload: the current global top-k vector.
struct RoundToken {
  std::uint64_t queryId = 0;
  Round round = 1;
  TopKVector vector;
  obs::TraceContext ctx{};
  /// How `vector` travels; protocol::core::Participant sets it from the
  /// query's domain.
  ValueCoding coding{};

  friend bool operator==(const RoundToken&, const RoundToken&) = default;
};

/// Final-result broadcast sent around the ring once the starting node
/// terminates the query.  A ranked result travels in its query's domain
/// coding; an aggregate result (unmasked secure-sum totals) keeps the
/// default 8-byte coding.
struct ResultAnnouncement {
  std::uint64_t queryId = 0;
  TopKVector result;
  obs::TraceContext ctx{};
  ValueCoding coding{};

  friend bool operator==(const ResultAnnouncement&,
                         const ResultAnnouncement&) = default;
};

/// Ring-maintenance control message (failure repair handshakes in the TCP
/// deployment; the simulator performs repairs directly).
struct RingRepair {
  std::uint64_t queryId = 0;
  NodeId failedNode = 0;
  NodeId newSuccessor = 0;
  obs::TraceContext ctx{};

  friend bool operator==(const RingRepair&, const RingRepair&) = default;
};

/// Additive-share payload for the secure-sum protocol (kNN label voting,
/// sum/count/average queries).  Masked shares are uniform mod 2^64, so
/// they always travel in 8 bytes.
struct SumToken {
  std::uint64_t queryId = 0;
  Round round = 1;
  std::vector<std::int64_t> sums;  // one accumulator per counter
  obs::TraceContext ctx{};

  friend bool operator==(const SumToken&, const SumToken&) = default;
};

/// Announces a new query to the ring: the encoded query descriptor (opaque
/// at this layer; see query/descriptor.hpp) plus the agreed ring order.
/// All of the query but its id travels only inside the descriptor,
/// privacy mechanism and group size included; QueryDescriptor::decode
/// validates it.
/// Circles the ring once so every participant can register before the
/// first round token arrives (links are FIFO, so ordering is guaranteed).
struct QueryAnnounce {
  std::uint64_t queryId = 0;
  Bytes descriptor;
  std::vector<NodeId> ringOrder;

  // Group-parallel execution (paper §4.2; docs/PROTOCOL.md §6).  A grouped
  // query runs as phase-1 sub-queries (one per group ring) followed by a
  // phase-2 merge ring of delegates; each phase announce names the parent
  // query it serves.  Zero parentQueryId + phase 0 is a standalone query.
  std::uint64_t parentQueryId = 0;
  std::uint8_t phase = 0;  ///< 0 standalone, 1 group ring, 2 merge ring
  /// Phase 1 only: the number of groups, i.e. the merge ring's length.
  std::uint32_t groups = 0;
  obs::TraceContext ctx{};

  friend bool operator==(const QueryAnnounce&, const QueryAnnounce&) = default;
};

using Message = std::variant<RoundToken, ResultAnnouncement, RingRepair,
                             SumToken, QueryAnnounce>;

/// The exact size of encodeMessage(message), in bytes.
[[nodiscard]] std::size_t encodedSize(const Message& message);

/// Serializes a message (1-byte tag + body) into one buffer of exactly
/// encodedSize(message) bytes.  Throws ProtocolError when a value does not
/// fit its frame's coding.
[[nodiscard]] Bytes encodeMessage(const Message& message);

/// Parses a message; throws ProtocolError on malformed input, including a
/// value coding whose width lies outside [1, 8].  A decoded value lies in
/// its frame's coding; whether that fits the query is the receiver's
/// check (query::ServiceCore).
[[nodiscard]] Message decodeMessage(std::span<const std::uint8_t> bytes);

}  // namespace privtopk::net
