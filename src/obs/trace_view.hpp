// Cross-node trace assembly for `privtopk trace-view`.
//
// Each node records spans against its own steady_clock, so per-node dumps
// cannot be compared directly.  buildTimeline merges the dumps of every
// node, aligns their clocks along the trace's causal edges, and derives
// the artifacts an operator reads: a single ordered timeline, the critical
// path (the parent chain ending at the latest span), and a per-phase
// breakdown separating scheduler queue wait, send/network gaps and local
// compute.
//
// Clock alignment: the initiator's node is the reference (offset 0).  The
// first causal edge reaching any other node - its announce or first round
// token - is treated as a zero-latency handshake: the child's aligned
// start is pinned to the parent's aligned end, which fixes that node's
// offset for all of its spans.  Later edges into the same node then expose
// real queueing/network gaps relative to the fixed offset.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace privtopk::obs {

/// Parses one JSON line produced by renderSpanJson; returns nullopt for
/// non-span lines (blanks, garbage, other output) so mixed streams can be
/// fed through unfiltered.
[[nodiscard]] std::optional<SpanRecord> parseSpanJsonLine(
    std::string_view line);

/// Parses every span line of a dump (one JSON object per line).
[[nodiscard]] std::vector<SpanRecord> parseSpanDump(std::string_view text);

/// Distinct trace ids present, in first-seen order.
[[nodiscard]] std::vector<std::uint64_t> traceIdsOf(
    const std::vector<SpanRecord>& spans);

/// Trace ids whose spans touched `queryId` (a grouped query's sub-query
/// spans share the parent's trace id, so one id covers the whole tree).
[[nodiscard]] std::vector<std::uint64_t> traceIdsForQuery(
    const std::vector<SpanRecord>& spans, std::uint64_t queryId);

struct TimelineSpan {
  SpanRecord span;
  /// Start aligned to the initiator's clock.
  std::int64_t startNs = 0;
  /// Aligned start minus the parent's aligned end: send + network + remote
  /// scheduling ahead of this span.  0 for roots; may be slightly negative
  /// on non-handshake edges (clock jitter) - treated as 0 in breakdowns.
  std::int64_t gapNs = 0;
  bool onCriticalPath = false;
};

struct PhaseStats {
  std::size_t count = 0;
  std::int64_t computeNs = 0;  ///< sum of span durations
  std::int64_t queueNs = 0;    ///< scheduler queue wait before handling
  std::int64_t gapNs = 0;      ///< positive send/network gaps from parents
};

struct TraceTimeline {
  std::uint64_t traceId = 0;
  /// Query id of the root span (the initiator's end-to-end span).
  std::uint64_t queryId = 0;
  /// All spans, sorted by aligned start (ties by span id).
  std::vector<TimelineSpan> spans;
  /// Critical path as span ids, root first.
  std::vector<std::uint64_t> criticalPath;
  /// Per span-name aggregate over the whole trace.
  std::map<std::string, PhaseStats> phases;
  /// Spans whose nonzero parent never appeared in the merged set.
  std::vector<std::uint64_t> orphanSpanIds;
  /// Per-node clock offset applied (ns added to that node's raw stamps).
  std::map<std::uint32_t, std::int64_t> clockOffsetNs;
  /// Root aligned start to latest aligned end.
  std::int64_t totalNs = 0;
};

/// Merges `spans` (any node order, duplicates by span id tolerated) and
/// builds the timeline of `traceId`.  Returns an empty timeline (no spans)
/// when the trace is absent.
[[nodiscard]] TraceTimeline buildTimeline(const std::vector<SpanRecord>& spans,
                                          std::uint64_t traceId);

/// Human-readable rendering: ordered span table (critical path starred),
/// the critical-path chain, the per-phase breakdown and orphan diagnostics.
[[nodiscard]] std::string renderTimeline(const TraceTimeline& timeline);

}  // namespace privtopk::obs
