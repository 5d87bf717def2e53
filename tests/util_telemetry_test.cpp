// util/obs telemetry unit coverage: the pieces the pipeline-level tests can't
// pin exactly — histogram quantile accuracy against synthetic durations,
// counter arithmetic, name-table completeness/uniqueness, and the
// flight-recorder ring mechanics via direct record_frame calls.
//
// Each TEST runs in its own process (gtest_discover_tests), so enabling
// telemetry here cannot leak into other tests.
#include "util/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

namespace cbma::telemetry {
namespace {

TEST(UtilTelemetry, SpanAndCounterNamesAreCompleteAndUnique) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    const std::string n = span_name(static_cast<Span>(i));
    EXPECT_NE(n, "unknown") << "span " << i << " is unnamed";
    // "layer/stage" scheme (DESIGN.md §7).
    EXPECT_NE(n.find('/'), std::string::npos) << n;
    EXPECT_TRUE(names.insert(n).second) << "duplicate span name " << n;
  }
  names.clear();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string n = counter_name(static_cast<Counter>(i));
    EXPECT_NE(n, "unknown") << "counter " << i << " is unnamed";
    // "layer.event" scheme.
    EXPECT_NE(n.find('.'), std::string::npos) << n;
    EXPECT_TRUE(names.insert(n).second) << "duplicate counter name " << n;
  }
  EXPECT_GE(kCounterCount, 10u);  // the acceptance bar for named counters
}

TEST(UtilTelemetry, DisabledRecordingIsANoOp) {
  obs::set(obs::kTelemetry, false);
  record_span(Span::kRxProcess, 1, 100);
  count(Counter::kRxDetections, 5);
  record_frame(FrameTrace{});
  { const ScopedSpan span(Span::kRxDecode); }
  EXPECT_EQ(obs::sink_count(), 0u);
  const auto snap = snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.frames.empty());
}

TEST(UtilTelemetry, SpanStatisticsAndQuantilesWithinBucketError) {
  obs::set(obs::kTelemetry, true);
  obs::reset();
  // 1..1000 ns, shuffled order must not matter for rank statistics.
  std::vector<std::uint64_t> durations;
  for (std::uint64_t d = 1; d <= 1000; ++d) durations.push_back(d);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < durations.size(); ++i) {
    const auto d = durations[(i * 7919) % durations.size()];
    record_span(Span::kRxDecode, /*start_ns=*/i, d);
    total += d;
  }
  const auto snap = snapshot();
  obs::set(obs::kTelemetry, false);

  ASSERT_EQ(snap.spans.size(), 1u);
  const auto& s = snap.spans[0];
  EXPECT_EQ(s.name, "rx/decode");
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.total_ns, total);
  EXPECT_EQ(s.min_ns, 1u);
  EXPECT_EQ(s.max_ns, 1000u);
  EXPECT_NEAR(s.mean_ns, 500.5, 1e-9);
  // Histogram quantiles are exact to the sub-bucket width: ≤ 12.5 %.
  EXPECT_NEAR(s.p50_ns, 500.0, 0.125 * 500.0);
  EXPECT_NEAR(s.p90_ns, 900.0, 0.125 * 900.0);
  EXPECT_NEAR(s.p99_ns, 990.0, 0.125 * 990.0);
  obs::reset();
}

TEST(UtilTelemetry, CountersAccumulateAcrossCalls) {
  obs::set(obs::kTelemetry, true);
  obs::reset();
  count(Counter::kChannelSamples, 100);
  count(Counter::kChannelSamples, 23);
  count(Counter::kChannelWindows);         // default n = 1
  count(Counter::kChannelWindows, 2);
  const auto snap = snapshot();
  obs::set(obs::kTelemetry, false);

  ASSERT_EQ(snap.counters.size(), 2u);
  std::uint64_t samples = 0, windows = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "channel.samples") samples = c.value;
    if (c.name == "channel.windows") windows = c.value;
  }
  EXPECT_EQ(samples, 123u);
  EXPECT_EQ(windows, 3u);
  obs::reset();
}

TEST(UtilTelemetry, FrameRingWrapsAndSeqIsGlobal) {
  obs::set(obs::kTelemetry, true);
  obs::reset();
  constexpr std::size_t kOffered = kFlightRecorderCapacity + 7;
  for (std::uint32_t k = 0; k < kOffered; ++k) {
    FrameTrace f;
    f.tag_id = k;
    record_frame(f);
  }
  const auto snap = snapshot();
  obs::set(obs::kTelemetry, false);

  ASSERT_EQ(snap.frames.size(), kFlightRecorderCapacity);
  // The latest frames, in seq order, seq stamped 0..kOffered-1 globally.
  for (std::size_t i = 0; i < kFlightRecorderCapacity; ++i) {
    EXPECT_EQ(snap.frames[i].seq, 7u + i);
    EXPECT_EQ(snap.frames[i].tag_id, 7u + i);
    EXPECT_GT(snap.frames[i].ts_ns, 0u);
  }
  obs::reset();
}

TEST(UtilTelemetry, ResetClearsDataButKeepsSinksRegistered) {
  obs::set(obs::kTelemetry, true);
  obs::reset();
  record_span(Span::kSweepPoint, 1, 50);
  count(Counter::kSweepPoints, 1);
  ASSERT_EQ(obs::sink_count(), 1u);
  obs::reset();
  const auto snap = snapshot();
  obs::set(obs::kTelemetry, false);
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_EQ(obs::sink_count(), 1u);
}

TEST(UtilTelemetry, TraceEventsCapturedOnlyWhenTraceFlagOn) {
  obs::set(obs::kTelemetry, true);
  obs::reset();
  record_span(Span::kRxDetect, 10, 5);
  EXPECT_TRUE(snapshot().events.empty());
  obs::set(obs::kTrace, true);
  record_span(Span::kRxDetect, 20, 5);
  record_span(Span::kRxDecode, 30, 7);
  obs::set(obs::kTrace, false);
  const auto snap = snapshot();
  obs::set(obs::kTelemetry, false);

  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.events[0].span, Span::kRxDetect);
  EXPECT_EQ(snap.events[0].ts_ns, 20u);
  EXPECT_EQ(snap.events[1].dur_ns, 7u);
  obs::reset();
}

// --- histogram bucketing edges (the metrics plane's percentile substrate) --

TEST(UtilTelemetry, HistogramBucketsAreExactBelowEight) {
  // Indices 0–7 hold the exact small values: no quantization at all.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(histogram_bucket_of(v), static_cast<std::size_t>(v));
    EXPECT_DOUBLE_EQ(histogram_bucket_mid(v), static_cast<double>(v));
  }
  // The first quantized bucket starts exactly at 8.
  EXPECT_EQ(histogram_bucket_of(8), 8u);
  EXPECT_EQ(histogram_bucket_of(9), 8u);  // [8, 10) share a quarter-octave
  EXPECT_EQ(histogram_bucket_of(10), 9u);
}

TEST(UtilTelemetry, HistogramBucketsAreMonotoneAndSubBucketTight) {
  std::size_t prev = 0;
  for (const std::uint64_t v :
       {1ull, 7ull, 8ull, 15ull, 16ull, 100ull, 1000ull, 12345ull,
        1ull << 20, (1ull << 20) + 1, 987654321ull, 1ull << 40,
        1ull << 62}) {
    const std::size_t b = histogram_bucket_of(v);
    EXPECT_GE(b, prev) << "bucket index regressed at " << v;
    prev = b;
    EXPECT_LT(b, kHistogramBuckets);
    // The bucket midpoint is within the documented sub-bucket width of any
    // member value: ≤ 12.5 % relative error (exact below 8).
    EXPECT_NEAR(histogram_bucket_mid(b), static_cast<double>(v),
                0.125 * static_cast<double>(v))
        << "bucket " << b << " for " << v;
  }
}

TEST(UtilTelemetry, HistogramSaturatesWithoutOverflowAtUint64Max) {
  const std::size_t top = histogram_bucket_of(~0ull);
  ASSERT_LT(top, kHistogramBuckets);
  // Every smaller value lands at or below the top bucket, and the top
  // midpoint still approximates the extreme within the sub-bucket width.
  EXPECT_LE(histogram_bucket_of(~0ull >> 1), top);
  EXPECT_NEAR(histogram_bucket_mid(top), static_cast<double>(~0ull),
              0.125 * static_cast<double>(~0ull));
}

TEST(UtilTelemetry, HistogramQuantileOfASingleSampleIsThatSample) {
  // One sample: every percentile is that sample's bucket midpoint — p50,
  // p90 and p99 must agree exactly (the window edge the metrics plane hits
  // whenever a span fired once in a window).
  std::uint64_t buckets[kHistogramBuckets] = {};
  buckets[histogram_bucket_of(500)] = 1;
  const double mid = histogram_bucket_mid(histogram_bucket_of(500));
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 1, q, -1.0), mid) << q;
  }
  EXPECT_NEAR(mid, 500.0, 0.125 * 500.0);
}

TEST(UtilTelemetry, HistogramQuantileAtBucketBoundaries) {
  // Two populations in distinct buckets: the quantile walk must switch
  // buckets exactly at the cumulative-rank boundary. 10 samples at 100 ns
  // and 90 at 10000 ns → p50/p90/p99 sit in the big bucket, p0 in the
  // small one.
  std::uint64_t buckets[kHistogramBuckets] = {};
  buckets[histogram_bucket_of(100)] = 10;
  buckets[histogram_bucket_of(10000)] = 90;
  const double lo = histogram_bucket_mid(histogram_bucket_of(100));
  const double hi = histogram_bucket_mid(histogram_bucket_of(10000));
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 100, 0.0, -1.0), lo);
  // Rank floor(0.09·99) = 8 is still inside the low-bucket count of 10.
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 100, 0.09, -1.0), lo);
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 100, 0.5, -1.0), hi);
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 100, 0.99, -1.0), hi);
}

TEST(UtilTelemetry, HistogramQuantileFallsBackOnEmptyOrInconsistentInput) {
  std::uint64_t buckets[kHistogramBuckets] = {};
  // Empty histogram: the caller's fallback comes back verbatim.
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 0, 0.5, 123.25), 123.25);
  // A count larger than the buckets actually hold (torn sample): the rank
  // walks off the end and the fallback protects the caller again.
  buckets[histogram_bucket_of(100)] = 2;
  EXPECT_DOUBLE_EQ(histogram_quantile(buckets, 10, 0.99, -7.5), -7.5);
}

}  // namespace
}  // namespace cbma::telemetry
