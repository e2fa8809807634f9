#include "obs/trace_view.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace privtopk::obs {
namespace {

SpanRecord make(std::uint64_t spanId, std::uint64_t parent, const char* name,
                std::uint32_t node, std::int64_t startNs, std::int64_t durNs,
                std::int64_t queueNs = 0) {
  SpanRecord s;
  s.traceId = 99;
  s.spanId = spanId;
  s.parentSpanId = parent;
  s.name = name;
  s.queryId = 1;
  s.node = node;
  s.round = 0;
  s.startNs = startNs;
  s.durNs = durNs;
  s.queueNs = queueNs;
  return s;
}

TEST(SpanJson, RenderParseRoundTrip) {
  SpanRecord s = make(0xffffffffffffff01ull, 0xffffffffffffff02ull,
                      "ring_round", 3, 123456789, 4200, 17);
  s.traceId = 0xfedcba9876543210ull;  // needs the full 64-bit range
  s.round = 5;
  const auto parsed = parseSpanJsonLine(renderSpanJson(s));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, s);
}

TEST(SpanJson, NonSpanLinesAreSkipped) {
  EXPECT_FALSE(parseSpanJsonLine("").has_value());
  EXPECT_FALSE(parseSpanJsonLine("not json").has_value());
  // Other JSON lines sharing the stream are ignored, not errors.
  EXPECT_FALSE(
      parseSpanJsonLine(
          R"({"ts_ns":1,"kind":"event","name":"ring_step","round":2})")
          .has_value());
  // A span line without a valid id is dropped.
  EXPECT_FALSE(
      parseSpanJsonLine(R"({"kind":"span","trace_id":"0","span_id":"5"})")
          .has_value());
}

TEST(SpanJson, ParseSpanDumpFiltersMixedStreams) {
  const std::string dump = renderSpanJson(make(1, 0, "query", 0, 0, 100)) +
                           "\n{\"kind\":\"event\",\"name\":\"x\"}\n\n" +
                           renderSpanJson(make(2, 1, "ring_round", 1, 5, 10));
  const auto spans = parseSpanDump(dump);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].spanId, 1u);
  EXPECT_EQ(spans[1].spanId, 2u);
}

TEST(TraceIds, ByFirstSeenAndByQuery) {
  SpanRecord a = make(1, 0, "query", 0, 0, 10);
  SpanRecord b = make(2, 0, "query", 0, 0, 10);
  b.traceId = 7;
  b.queryId = 42;
  const std::vector<SpanRecord> spans{a, b, a};
  EXPECT_EQ(traceIdsOf(spans), (std::vector<std::uint64_t>{99, 7}));
  EXPECT_EQ(traceIdsForQuery(spans, 42), (std::vector<std::uint64_t>{7}));
  EXPECT_TRUE(traceIdsForQuery(spans, 5).empty());
}

TEST(Timeline, AlignsSkewedClocksAlongCausalEdges) {
  // Node 0 (initiator) and node 1 run on clocks 1 full second apart; the
  // only causal link is announce_handled's parent edge.  Alignment must
  // pin node 1's first span to the parent's end, not leave the raw skew.
  const std::int64_t skew = 1'000'000'000;
  const std::vector<SpanRecord> spans{
      make(1, 0, "query", 0, 1000, 5000),
      make(2, 1, "announce_handled", 1, skew + 777, 100, /*queueNs=*/50),
      make(3, 2, "ring_round", 1, skew + 2000, 80),
  };
  const TraceTimeline timeline = buildTimeline(spans, 99);
  ASSERT_EQ(timeline.spans.size(), 3u);
  EXPECT_TRUE(timeline.orphanSpanIds.empty());
  EXPECT_EQ(timeline.queryId, 1u);

  // Handshake: child aligned start minus its queue wait == parent end.
  // "query" starts at 1000 and is the root, so its end is 6000.
  const std::int64_t offset = timeline.clockOffsetNs.at(1);
  EXPECT_EQ(skew + 777 + offset - 50, 1000 + 5000);
  // The second span on node 1 reuses the same fixed offset.
  for (const TimelineSpan& entry : timeline.spans) {
    if (entry.span.spanId == 3) {
      EXPECT_EQ(entry.startNs, skew + 2000 + offset);
    }
  }
  EXPECT_EQ(timeline.clockOffsetNs.at(0), 0);
}

TEST(Timeline, CriticalPathWalksFromTheLatestLeaf) {
  // query(root) covers everything and ends last; the critical path must
  // nevertheless descend to the latest-finishing LEAF and walk back up.
  const std::vector<SpanRecord> spans{
      make(1, 0, "query", 0, 0, 10'000),
      make(2, 1, "announce_handled", 1, 100, 50),
      make(3, 2, "ring_round", 1, 200, 50),
      make(4, 2, "ring_round", 1, 9'000, 100),  // the latest leaf
  };
  const TraceTimeline timeline = buildTimeline(spans, 99);
  EXPECT_EQ(timeline.criticalPath,
            (std::vector<std::uint64_t>{1, 2, 4}));
  for (const TimelineSpan& entry : timeline.spans) {
    const bool expected =
        entry.span.spanId == 1 || entry.span.spanId == 2 ||
        entry.span.spanId == 4;
    EXPECT_EQ(entry.onCriticalPath, expected) << entry.span.spanId;
  }
}

TEST(Timeline, ReportsOrphansAndSurvivesThem) {
  const std::vector<SpanRecord> spans{
      make(1, 0, "query", 0, 0, 100),
      make(2, 777, "ring_round", 1, 50, 10),  // parent never recorded
  };
  const TraceTimeline timeline = buildTimeline(spans, 99);
  ASSERT_EQ(timeline.orphanSpanIds.size(), 1u);
  EXPECT_EQ(timeline.orphanSpanIds[0], 2u);
  // Rendering must not crash on a timeline with orphans.
  const std::string out = renderTimeline(timeline);
  EXPECT_NE(out.find("orphan spans: 1"), std::string::npos);
}

TEST(Timeline, PhaseBreakdownAggregatesQueueAndGaps) {
  const std::vector<SpanRecord> spans{
      make(1, 0, "query", 0, 0, 1000),
      make(2, 1, "ring_round", 0, 300, 100, /*queueNs=*/40),
      make(3, 2, "ring_round", 0, 500, 100, /*queueNs=*/60),
  };
  const TraceTimeline timeline = buildTimeline(spans, 99);
  const PhaseStats& rounds = timeline.phases.at("ring_round");
  EXPECT_EQ(rounds.count, 2u);
  EXPECT_EQ(rounds.computeNs, 200);
  EXPECT_EQ(rounds.queueNs, 100);
  // Span 3 starts 100ns after span 2 ends; span 2's gap to the root is
  // positive too (300 - 0 is inside the parent, so clamped at >= 0).
  EXPECT_EQ(timeline.phases.at("ring_round").gapNs, 100);
}

TEST(Timeline, MissingTraceYieldsEmptyTimeline) {
  const std::vector<SpanRecord> spans{make(1, 0, "query", 0, 0, 10)};
  const TraceTimeline timeline = buildTimeline(spans, 12345);
  EXPECT_TRUE(timeline.spans.empty());
  EXPECT_NE(renderTimeline(timeline).find("no spans"), std::string::npos);
}

TEST(Timeline, DuplicateSpanIdsMergeToOne) {
  // Endpoint scrapes and file dumps of the same node overlap; the first
  // copy of each span id wins.
  const SpanRecord original = make(1, 0, "query", 0, 0, 10);
  const std::vector<SpanRecord> spans{original, original, original};
  const TraceTimeline timeline = buildTimeline(spans, 99);
  EXPECT_EQ(timeline.spans.size(), 1u);
}

}  // namespace
}  // namespace privtopk::obs
