#include "net/message.hpp"

#include <limits>

namespace privtopk::net {

namespace {

/// Trace context rides at the end of every message as two varints; both
/// are 1 byte when tracing is off.
void writeContext(ByteWriter& w, const obs::TraceContext& ctx) {
  w.writeVarint(ctx.traceId);
  w.writeVarint(ctx.parentSpanId);
}

std::size_t contextSize(const obs::TraceContext& ctx) {
  return ByteWriter::varintSize(ctx.traceId) +
         ByteWriter::varintSize(ctx.parentSpanId);
}

obs::TraceContext readContext(ByteReader& r) {
  obs::TraceContext ctx;
  ctx.traceId = r.readVarint();
  ctx.parentSpanId = r.readVarint();
  if (ctx.parentSpanId != 0 && ctx.traceId == 0) {
    throw ProtocolError("trace context: parent span without trace id");
  }
  return ctx;
}

/// A ranked frame's coding rides ahead of its value count: the base as a
/// zigzag varint, then the width as one byte.
std::size_t codedValuesSize(const ValueCoding& coding, std::size_t count) {
  return ByteWriter::signedVarintSize(coding.base) + 1 +
         ByteWriter::valueVectorSize(count, coding.width);
}

void writeCodedValues(ByteWriter& w, const ValueCoding& coding,
                      const TopKVector& values) {
  w.writeSignedVarint(coding.base);
  w.writeU8(coding.width);
  w.writeValueVector(values, coding.base, coding.width);
}

TopKVector readCodedValues(ByteReader& r, ValueCoding& coding) {
  coding.base = r.readSignedVarint();
  coding.width = r.readU8();
  return r.readValueVector(coding.base, coding.width);
}

}  // namespace

std::size_t encodedSize(const Message& message) {
  // tag + query id, then each type's body as encodeMessage writes it.
  constexpr std::size_t kHead = 1 + 8;
  if (const auto* token = std::get_if<RoundToken>(&message)) {
    return kHead + 4 + codedValuesSize(token->coding, token->vector.size()) +
           contextSize(token->ctx);
  }
  if (const auto* result = std::get_if<ResultAnnouncement>(&message)) {
    return kHead + codedValuesSize(result->coding, result->result.size()) +
           contextSize(result->ctx);
  }
  if (const auto* repair = std::get_if<RingRepair>(&message)) {
    return kHead + 4 + 4 + contextSize(repair->ctx);
  }
  if (const auto* sum = std::get_if<SumToken>(&message)) {
    return kHead + 4 + ByteWriter::valueVectorSize(sum->sums.size()) +
           contextSize(sum->ctx);
  }
  const auto& announce = std::get<QueryAnnounce>(message);
  return kHead + ByteWriter::varintSize(announce.descriptor.size()) +
         announce.descriptor.size() +
         ByteWriter::varintSize(announce.ringOrder.size()) +
         4 * announce.ringOrder.size() + 8 + 1 +
         (announce.phase == 1 ? ByteWriter::varintSize(announce.groups) : 0) +
         contextSize(announce.ctx);
}

Bytes encodeMessage(const Message& message) {
  ByteWriter w;
  w.reserve(encodedSize(message));
  if (const auto* token = std::get_if<RoundToken>(&message)) {
    w.writeU8(static_cast<std::uint8_t>(MessageTag::RoundToken));
    w.writeU64(token->queryId);
    w.writeU32(token->round);
    writeCodedValues(w, token->coding, token->vector);
    writeContext(w, token->ctx);
  } else if (const auto* result = std::get_if<ResultAnnouncement>(&message)) {
    w.writeU8(static_cast<std::uint8_t>(MessageTag::ResultAnnouncement));
    w.writeU64(result->queryId);
    writeCodedValues(w, result->coding, result->result);
    writeContext(w, result->ctx);
  } else if (const auto* repair = std::get_if<RingRepair>(&message)) {
    w.writeU8(static_cast<std::uint8_t>(MessageTag::RingRepair));
    w.writeU64(repair->queryId);
    w.writeU32(repair->failedNode);
    w.writeU32(repair->newSuccessor);
    writeContext(w, repair->ctx);
  } else if (const auto* sum = std::get_if<SumToken>(&message)) {
    w.writeU8(static_cast<std::uint8_t>(MessageTag::SumToken));
    w.writeU64(sum->queryId);
    w.writeU32(sum->round);
    w.writeValueVector(sum->sums);
    writeContext(w, sum->ctx);
  } else {
    const auto& announce = std::get<QueryAnnounce>(message);
    w.writeU8(static_cast<std::uint8_t>(MessageTag::QueryAnnounce));
    w.writeU64(announce.queryId);
    w.writeBlob(announce.descriptor);
    w.writeVarint(announce.ringOrder.size());
    for (NodeId id : announce.ringOrder) w.writeU32(id);
    w.writeU64(announce.parentQueryId);
    w.writeU8(announce.phase);
    if (announce.phase == 1) w.writeVarint(announce.groups);
    writeContext(w, announce.ctx);
  }
  return w.take();
}

Message decodeMessage(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto tag = static_cast<MessageTag>(r.readU8());
  switch (tag) {
    case MessageTag::RoundToken: {
      RoundToken token;
      token.queryId = r.readU64();
      token.round = r.readU32();
      token.vector = readCodedValues(r, token.coding);
      token.ctx = readContext(r);
      if (!r.atEnd()) throw ProtocolError("RoundToken: trailing bytes");
      return token;
    }
    case MessageTag::ResultAnnouncement: {
      ResultAnnouncement result;
      result.queryId = r.readU64();
      result.result = readCodedValues(r, result.coding);
      result.ctx = readContext(r);
      if (!r.atEnd()) throw ProtocolError("ResultAnnouncement: trailing bytes");
      return result;
    }
    case MessageTag::RingRepair: {
      RingRepair repair;
      repair.queryId = r.readU64();
      repair.failedNode = r.readU32();
      repair.newSuccessor = r.readU32();
      repair.ctx = readContext(r);
      if (!r.atEnd()) throw ProtocolError("RingRepair: trailing bytes");
      return repair;
    }
    case MessageTag::SumToken: {
      SumToken sum;
      sum.queryId = r.readU64();
      sum.round = r.readU32();
      sum.sums = r.readValueVector();
      sum.ctx = readContext(r);
      if (!r.atEnd()) throw ProtocolError("SumToken: trailing bytes");
      return sum;
    }
    case MessageTag::QueryAnnounce: {
      QueryAnnounce announce;
      announce.queryId = r.readU64();
      announce.descriptor = r.readBlob();
      const std::uint64_t n = r.readVarint();
      if (n > r.remaining() / 4) {
        throw ProtocolError("QueryAnnounce: ring order too long");
      }
      announce.ringOrder.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        announce.ringOrder.push_back(r.readU32());
      }
      announce.parentQueryId = r.readU64();
      announce.phase = r.readU8();
      if (announce.phase == 1) {
        const std::uint64_t groups = r.readVarint();
        // A grouped query runs at least three groups.
        if (groups < 3 ||
            groups > std::numeric_limits<std::uint32_t>::max()) {
          throw ProtocolError("QueryAnnounce: group count out of range");
        }
        announce.groups = static_cast<std::uint32_t>(groups);
      }
      announce.ctx = readContext(r);
      if (announce.phase > 2) {
        throw ProtocolError("QueryAnnounce: unknown phase");
      }
      if ((announce.phase == 0) != (announce.parentQueryId == 0)) {
        throw ProtocolError("QueryAnnounce: phase/parent mismatch");
      }
      if (!r.atEnd()) throw ProtocolError("QueryAnnounce: trailing bytes");
      return announce;
    }
  }
  throw ProtocolError("decodeMessage: unknown tag");
}

}  // namespace privtopk::net
