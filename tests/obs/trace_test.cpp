#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_view.hpp"

namespace privtopk::obs {
namespace {

/// RAII guard: whatever a test does, the global tracer ends up disabled.
struct TracerGuard {
  ~TracerGuard() { EventTracer::global().disable(); }
};

std::vector<std::string> lines(const std::ostringstream& sink) {
  std::vector<std::string> out;
  std::istringstream in(sink.str());
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

SpanRecord sampleSpan(std::string name) {
  SpanRecord span;
  span.traceId = 0xfedcba9876543210ULL;  // above 2^53: must survive as text
  span.spanId = 12;
  span.parentSpanId = 11;
  span.name = std::move(name);
  span.queryId = 7;
  span.node = 3;
  span.round = 2;
  span.startNs = 1000;
  span.durNs = 250;
  span.queueNs = 40;
  return span;
}

/// Collects spans in memory.
struct VectorSink final : TraceSink {
  std::vector<SpanRecord> spans;
  void recordSpan(const SpanRecord& span) override { spans.push_back(span); }
};

TEST(EventTracer, DisabledByDefaultAndSilent) {
  TracerGuard guard;
  EXPECT_FALSE(EventTracer::global().enabled());
  // Must not crash or write anywhere while disabled.
  EventTracer::global().recordSpan(sampleSpan("ignored"));
}

TEST(EventTracer, EmitsJsonLinesWhenEnabled) {
  TracerGuard guard;
  std::ostringstream sink;
  EventTracer::global().enable(&sink);
  ASSERT_TRUE(EventTracer::global().enabled());

  const SpanRecord span = sampleSpan("ring_round");
  EventTracer::global().recordSpan(span);
  EventTracer::global().disable();
  EXPECT_FALSE(EventTracer::global().enabled());

  const auto emitted = lines(sink);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0], renderSpanJson(span));
  const auto parsed = parseSpanJsonLine(emitted[0]);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, span);
}

TEST(EventTracer, SpansAfterDisableAreDropped) {
  TracerGuard guard;
  std::ostringstream sink;
  EventTracer::global().enable(&sink);
  EventTracer::global().recordSpan(sampleSpan("kept"));
  EventTracer::global().disable();
  EventTracer::global().recordSpan(sampleSpan("dropped"));
  const auto emitted = lines(sink);
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_NE(emitted[0].find("\"name\":\"kept\""), std::string::npos);
}

TEST(EventTracer, TimestampsAreMonotonic) {
  const std::int64_t a = EventTracer::nowNs();
  const std::int64_t b = EventTracer::nowNs();
  EXPECT_LE(a, b);
}

TEST(EmitChildSpan, RecordsOneChildAndReturnsItsContext) {
  VectorSink sink;
  const TraceContext in{42, 7};
  const std::int64_t start = EventTracer::nowNs();
  const TraceContext child =
      emitChildSpan(&sink, in, "ring_round", 9, 3, 2, start, 15);

  ASSERT_EQ(sink.spans.size(), 1u);
  const SpanRecord& span = sink.spans[0];
  EXPECT_EQ(span.traceId, 42u);
  EXPECT_EQ(span.parentSpanId, 7u);
  EXPECT_NE(span.spanId, 0u);
  EXPECT_EQ(span.name, "ring_round");
  EXPECT_EQ(span.queryId, 9u);
  EXPECT_EQ(span.node, 3u);
  EXPECT_EQ(span.round, 2u);
  EXPECT_EQ(span.startNs, start);
  EXPECT_GE(span.durNs, 0);
  EXPECT_EQ(span.queueNs, 15);
  // The returned context chains the next hop off the new span.
  EXPECT_EQ(child, (TraceContext{42, span.spanId}));
}

TEST(EmitChildSpan, InactiveContextPassesThroughSilently) {
  VectorSink sink;
  const TraceContext off{};
  EXPECT_EQ(emitChildSpan(&sink, off, "ring_round", 9, 3, 2, 0, 0), off);
  EXPECT_TRUE(sink.spans.empty());

  // A null sink (tracing not wired) also passes an active context through.
  const TraceContext on{42, 7};
  EXPECT_EQ(emitChildSpan(nullptr, on, "ring_round", 9, 3, 2, 0, 0), on);
}

}  // namespace
}  // namespace privtopk::obs
