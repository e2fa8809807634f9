// Distributed-trace spans and the JSON-lines span stream.
//
// A span is the only thing the tracer writes: one line per completed span,
// e.g.
//   {"ts_ns":123456789,"kind":"span","name":"ring_round","trace_id":"9",
//    "span_id":"12","parent_span_id":"11","query_id":7,"node":0,"round":2,
//    "start_ns":123400000,"dur_ns":56789,"queue_ns":0}
// which `privtopk trace-view` (obs/trace_view.hpp) reads back.  Timestamps
// are monotonic (steady_clock nanoseconds), so durations are meaningful
// even across system clock adjustments.
//
// The stream is disabled by default and zero-cost while disabled: spans
// are only built for queries whose messages carry an active TraceContext
// (ServiceOptions::traceQueries), and EventTracer::recordSpan starts with
// one relaxed atomic load.  Enable at runtime with
// `EventTracer::global().enable(&stream)`.
//
// Every child span - the core participant's ring_round and
// result_dissemination, the service's announce_handled, sum_pass, repair,
// group_phase and merge_phase - is built by emitChildSpan.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/context.hpp"

namespace privtopk::obs {

/// One completed span of a distributed trace (docs/OBSERVABILITY.md
/// §Span schema).  Timestamps are process-local steady_clock nanoseconds;
/// `trace-view` aligns them across nodes at merge time.
struct SpanRecord {
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
  std::uint64_t parentSpanId = 0;  ///< 0 = root span
  std::string name;                ///< "ring_round", "announce_handled", ...
  std::uint64_t queryId = 0;
  std::uint32_t node = 0;
  std::uint32_t round = 0;
  std::int64_t startNs = 0;  ///< steady_clock ns, process-local epoch
  std::int64_t durNs = 0;
  std::int64_t queueNs = 0;  ///< scheduler queue wait before handling

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// Destination for completed spans.  Implementations must be thread-safe:
/// scheduler workers of one NodeService emit concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void recordSpan(const SpanRecord& span) = 0;
};

/// Renders one span as a JSON line (the `{"kind":"span",...}` schema that
/// EventTracer streams and parseSpanJsonLine reads back).  Span/trace ids
/// are rendered as decimal strings so 64-bit ids survive JSON consumers
/// that parse numbers as doubles.
[[nodiscard]] std::string renderSpanJson(const SpanRecord& span);

/// Process-wide JSON-lines span stream: every recorded span becomes one
/// renderSpanJson line on the enabled ostream.
class EventTracer final : public TraceSink {
 public:
  static EventTracer& global();

  /// Starts writing JSON lines to `sink` (caller keeps ownership and must
  /// outlive tracing).  Passing nullptr disables.
  void enable(std::ostream* sink);
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Writes one span line.  No-op while disabled.
  void recordSpan(const SpanRecord& span) override;

  /// Monotonic timestamp in nanoseconds.
  [[nodiscard]] static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::ostream* sink_ = nullptr;
};

/// Records one child span of `in` (started at `startNs`, ending now) into
/// `sink` and returns the child context to stamp on outgoing messages.
/// Passes `in` through untouched, emitting nothing, when `sink` is null or
/// `in` is inactive.
[[nodiscard]] TraceContext emitChildSpan(TraceSink* sink,
                                         const TraceContext& in,
                                         std::string_view name,
                                         std::uint64_t queryId,
                                         std::uint32_t node,
                                         std::uint32_t round,
                                         std::int64_t startNs,
                                         std::int64_t queueNs);

}  // namespace privtopk::obs
