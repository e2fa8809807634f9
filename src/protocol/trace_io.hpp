// Execution-trace persistence: record protocol runs to a file and replay
// them through the privacy analyzers offline (the `privtopk trace` CLI).
//
// Format: "PTRC" magic, format version, then a varint-counted sequence of
// traces, each self-delimiting.  All integers little-endian via the common
// serialization layer; decoding is bounds-checked and rejects unknown
// versions, so archived traces from hostile sources cannot corrupt the
// analyzer.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/serialization.hpp"
#include "protocol/trace.hpp"

namespace privtopk::protocol {

/// Serializes one trace.
void encodeTrace(const ExecutionTrace& trace, ByteWriter& w);
[[nodiscard]] ExecutionTrace decodeTrace(ByteReader& r);

/// Writes a trace archive (magic + version + count + traces).
[[nodiscard]] Bytes encodeTraceArchive(const std::vector<ExecutionTrace>& traces);
[[nodiscard]] std::vector<ExecutionTrace> decodeTraceArchive(
    std::span<const std::uint8_t> bytes);

/// File helpers; throw Error on I/O failure.
void saveTraceArchive(const std::string& path,
                      const std::vector<ExecutionTrace>& traces);
[[nodiscard]] std::vector<ExecutionTrace> loadTraceArchive(
    const std::string& path);

}  // namespace privtopk::protocol
