#include "obs/trace.hpp"

#include <sstream>

namespace privtopk::obs {

EventTracer& EventTracer::global() {
  static EventTracer tracer;
  return tracer;
}

void EventTracer::enable(std::ostream* sink) {
  std::scoped_lock lock(mutex_);
  sink_ = sink;
  enabled_.store(sink != nullptr, std::memory_order_relaxed);
}

void EventTracer::disable() { enable(nullptr); }

void EventTracer::recordSpan(const SpanRecord& span) {
  if (!enabled()) return;
  // The line is assembled locally and written under the mutex in one shot
  // so concurrent emitters never interleave characters.
  const std::string line = renderSpanJson(span) + "\n";
  std::scoped_lock lock(mutex_);
  if (sink_ == nullptr) return;  // disabled between the check and the lock
  (*sink_) << line;
}

std::string renderSpanJson(const SpanRecord& span) {
  std::ostringstream os;
  os << "{\"ts_ns\":" << (span.startNs + span.durNs)
     << ",\"kind\":\"span\",\"name\":\"" << span.name << "\",\"trace_id\":\""
     << span.traceId << "\",\"span_id\":\"" << span.spanId
     << "\",\"parent_span_id\":\"" << span.parentSpanId
     << "\",\"query_id\":" << span.queryId << ",\"node\":" << span.node
     << ",\"round\":" << span.round << ",\"start_ns\":" << span.startNs
     << ",\"dur_ns\":" << span.durNs << ",\"queue_ns\":" << span.queueNs
     << '}';
  return os.str();
}

TraceContext emitChildSpan(TraceSink* sink, const TraceContext& in,
                           std::string_view name, std::uint64_t queryId,
                           std::uint32_t node, std::uint32_t round,
                           std::int64_t startNs, std::int64_t queueNs) {
  if (sink == nullptr || !in.active()) return in;
  SpanRecord span;
  span.traceId = in.traceId;
  span.spanId = allocateSpanId();
  span.parentSpanId = in.parentSpanId;
  span.name = name;
  span.queryId = queryId;
  span.node = node;
  span.round = round;
  span.startNs = startNs;
  span.durNs = EventTracer::nowNs() - startNs;
  span.queueNs = queueNs;
  sink->recordSpan(span);
  return TraceContext{in.traceId, span.spanId};
}

}  // namespace privtopk::obs
