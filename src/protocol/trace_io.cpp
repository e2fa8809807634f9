#include "protocol/trace_io.hpp"

#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace privtopk::protocol {

namespace {

constexpr std::uint8_t kFormatVersion = 1;
constexpr char kMagic[4] = {'P', 'T', 'R', 'C'};

void writeVector(ByteWriter& w, const TopKVector& v) {
  w.writeValueVector(v);
}

TopKVector readVector(ByteReader& r) { return r.readValueVector(); }

}  // namespace

void encodeTrace(const ExecutionTrace& trace, ByteWriter& w) {
  w.writeVarint(trace.nodeCount);
  w.writeVarint(trace.k);
  w.writeU32(trace.rounds);
  writeVector(w, trace.result);

  w.writeVarint(trace.initialOrder.size());
  for (NodeId id : trace.initialOrder) w.writeU32(id);

  w.writeVarint(trace.localVectors.size());
  for (const auto& local : trace.localVectors) writeVector(w, local);

  w.writeVarint(trace.steps.size());
  for (const auto& step : trace.steps) {
    w.writeU32(step.round);
    w.writeVarint(step.position);
    w.writeU32(step.node);
    writeVector(w, step.input);
    writeVector(w, step.output);
  }
}

ExecutionTrace decodeTrace(ByteReader& r) {
  ExecutionTrace trace;
  trace.nodeCount = r.readVarint();
  trace.k = r.readVarint();
  trace.rounds = r.readU32();
  trace.result = readVector(r);

  const std::uint64_t orderLen = r.readVarint();
  if (orderLen > r.remaining() / 4) {
    throw ProtocolError("trace: ring order too long");
  }
  trace.initialOrder.reserve(orderLen);
  for (std::uint64_t i = 0; i < orderLen; ++i) {
    trace.initialOrder.push_back(r.readU32());
  }

  const std::uint64_t localCount = r.readVarint();
  if (localCount > r.remaining()) {
    throw ProtocolError("trace: local vector count too large");
  }
  trace.localVectors.reserve(localCount);
  for (std::uint64_t i = 0; i < localCount; ++i) {
    trace.localVectors.push_back(readVector(r));
  }

  const std::uint64_t stepCount = r.readVarint();
  if (stepCount > r.remaining()) {
    throw ProtocolError("trace: step count too large");
  }
  trace.steps.reserve(stepCount);
  for (std::uint64_t i = 0; i < stepCount; ++i) {
    TraceStep step;
    step.round = r.readU32();
    step.position = r.readVarint();
    step.node = r.readU32();
    step.input = readVector(r);
    step.output = readVector(r);
    trace.steps.push_back(std::move(step));
  }

  // Internal consistency: every step must reference a known node.
  for (const auto& step : trace.steps) {
    if (step.node >= trace.nodeCount) {
      throw ProtocolError("trace: step references unknown node");
    }
  }
  if (trace.localVectors.size() != trace.nodeCount) {
    throw ProtocolError("trace: local vector count mismatch");
  }
  return trace;
}

Bytes encodeTraceArchive(const std::vector<ExecutionTrace>& traces) {
  ByteWriter w;
  w.writeBytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  w.writeU8(kFormatVersion);
  w.writeVarint(traces.size());
  for (const auto& trace : traces) encodeTrace(trace, w);
  return w.take();
}

std::vector<ExecutionTrace> decodeTraceArchive(
    std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.readU8());
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw ProtocolError("trace archive: bad magic");
  }
  const std::uint8_t version = r.readU8();
  if (version != kFormatVersion) {
    throw ProtocolError("trace archive: unsupported version " +
                        std::to_string(version));
  }
  const std::uint64_t count = r.readVarint();
  if (count > bytes.size()) {
    throw ProtocolError("trace archive: count exceeds payload");
  }
  std::vector<ExecutionTrace> traces;
  traces.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    traces.push_back(decodeTrace(r));
  }
  if (!r.atEnd()) throw ProtocolError("trace archive: trailing bytes");
  return traces;
}

void saveTraceArchive(const std::string& path,
                      const std::vector<ExecutionTrace>& traces) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("saveTraceArchive: cannot open '" + path + "'");
  const Bytes bytes = encodeTraceArchive(traces);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error("saveTraceArchive: write failed for '" + path + "'");
}

std::vector<ExecutionTrace> loadTraceArchive(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("loadTraceArchive: cannot open '" + path + "'");
  Bytes bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return decodeTraceArchive(bytes);
}

}  // namespace privtopk::protocol
