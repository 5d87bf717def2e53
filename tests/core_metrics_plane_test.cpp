// The metrics layer's window cadence and exports (DESIGN.md §7). Pins the
// two contracts the benches rely on:
//
// 1. Disabled is a strict identity — every entry point returns before
//    touching storage, and span/counter recording is on exactly while
//    metrics (or telemetry itself) is on: computed, never sticky.
// 2. The enabled path derives correct *windowed* series: telemetry counter
//    totals become per-window deltas, span histograms become per-window
//    percentiles (not cumulative ones), cell samples land under their
//    "cell=<id>" scope, and the JSON/Prometheus exports are well-formed.
//
// Each TEST runs in its own process (gtest_discover_tests), so flipping the
// switchboard here cannot leak into other tests.
#include "core/obs.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "rx/link_quality.h"
#include "rx/receiver.h"
#include "util/json.h"

namespace cbma::core {
namespace {

/// Find one series in a snapshot by (name, scope); nullptr when absent.
const metrics::SeriesSnapshot* find_series(const metrics::Snapshot& snap,
                                           const std::string& name,
                                           const std::string& scope) {
  for (const auto& s : snap.series) {
    if (s.name == name && s.scope == scope) return &s;
  }
  return nullptr;
}

/// Bring the plane up for an in-memory test: no Prometheus file, clean
/// store and baselines.
void enable_in_memory() {
  obs::set(obs::kMetrics, true);
  obs::set_path(obs::kMetrics, "");
  obs::reset();
}

void tear_down() {
  obs::set(obs::kMetrics, false);
  obs::set_path(obs::kMetrics, "");
  obs::reset();
}

TEST(MetricsPlane, DisabledEntryPointsAreNoOps) {
  obs::set(obs::kMetrics, false);
  EXPECT_FALSE(metrics::enabled());
  obs::CellSample sample;
  sample.cell_id = 1;
  sample.goodput_bps = 1e4;
  obs::record_cell(sample);
  metrics::push("net.goodput_bps", {}, 1.0);
  metrics::push_event(metrics::Severity::kInfo, "roam", {}, 0.0, {});
  obs::tick();
  EXPECT_TRUE(obs::write_exports());
  EXPECT_TRUE(metrics::snapshot().series.empty());
  // An off plane must never have switched span recording on.
  EXPECT_FALSE(telemetry::enabled());
}

TEST(MetricsPlane, EnableArmsTelemetryAndSetsTheExpositionPath) {
  ASSERT_FALSE(telemetry::enabled());
  const auto path = ::testing::TempDir() + "cbma_plane_test.prom";
  obs::set_path(obs::kMetrics, path);
  obs::set(obs::kMetrics, true);
  EXPECT_TRUE(metrics::enabled());
  // The counter/span series need a source: metrics on records spans.
  EXPECT_TRUE(telemetry::enabled());
  EXPECT_EQ(obs::path(obs::kMetrics), path);
  tear_down();
}

TEST(MetricsPlane, MetricsOffStopsSpanRecordingAndASecondSessionRecords) {
  // "Metrics on ⇒ spans and counters recorded" is computed when the
  // switchboard is read: switching metrics off switches recording off...
  obs::set(obs::kMetrics, true);
  ASSERT_TRUE(telemetry::enabled());
  obs::set(obs::kMetrics, false);
  EXPECT_FALSE(telemetry::enabled());

  // ...and a second session records again, even though telemetry itself
  // was switched off in between.
  obs::set(obs::kTelemetry, false);
  enable_in_memory();
  {
    const telemetry::ScopedSpan span(telemetry::Span::kRxDecode);
  }
  telemetry::count(telemetry::Counter::kChannelSamples, 3);
  obs::tick();
  const auto snap = metrics::snapshot();
  tear_down();

  EXPECT_FALSE(snap.series.empty());
  const auto* samples = find_series(snap, "channel.samples", "");
  ASSERT_NE(samples, nullptr);
  EXPECT_DOUBLE_EQ(samples->points.back().value, 3.0);
  EXPECT_NE(find_series(snap, "rx/decode.count", ""), nullptr);
}

TEST(MetricsPlane, CounterSeriesCarryPerWindowDeltas) {
  enable_in_memory();
  telemetry::count(telemetry::Counter::kChannelSamples, 5);
  obs::tick();
  telemetry::count(telemetry::Counter::kChannelSamples, 3);
  obs::tick();
  obs::tick();  // quiet window: the counter still charts, as 0
  const auto snap = metrics::snapshot();
  tear_down();

  const auto* s = find_series(snap, "channel.samples", "");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->points.size(), 3u);
  EXPECT_DOUBLE_EQ(s->points[0].value, 5.0);  // not the cumulative 5
  EXPECT_DOUBLE_EQ(s->points[1].value, 3.0);  // not the cumulative 8
  EXPECT_DOUBLE_EQ(s->points[2].value, 0.0);
  // A counter that never fired creates no series at all.
  EXPECT_EQ(find_series(snap, "net.tag_roams", ""), nullptr);
}

TEST(MetricsPlane, SpanSeriesCarryPerWindowPercentiles) {
  enable_in_memory();
  // Window 0: 100 spans of ~100 ns. Window 1: 100 spans of ~1000 ns. A
  // cumulative percentile would blend the two; the per-window delta must
  // track each population separately (within the 12.5 % sub-bucket width).
  for (int k = 0; k < 100; ++k) {
    telemetry::record_span(telemetry::Span::kRxDecode, k, 100);
  }
  obs::tick();
  for (int k = 0; k < 100; ++k) {
    telemetry::record_span(telemetry::Span::kRxDecode, k, 1000);
  }
  obs::tick();
  const auto snap = metrics::snapshot();
  tear_down();

  const auto* count = find_series(snap, "rx/decode.count", "");
  const auto* mean = find_series(snap, "rx/decode.mean_ns", "");
  const auto* p50 = find_series(snap, "rx/decode.p50_ns", "");
  const auto* p99 = find_series(snap, "rx/decode.p99_ns", "");
  ASSERT_NE(count, nullptr);
  ASSERT_NE(mean, nullptr);
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  ASSERT_EQ(count->points.size(), 2u);
  EXPECT_DOUBLE_EQ(count->points[0].value, 100.0);
  EXPECT_DOUBLE_EQ(count->points[1].value, 100.0);
  EXPECT_DOUBLE_EQ(mean->points[0].value, 100.0);
  EXPECT_DOUBLE_EQ(mean->points[1].value, 1000.0);
  EXPECT_EQ(mean->unit, "ns");
  ASSERT_EQ(p50->points.size(), 2u);
  EXPECT_NEAR(p50->points[0].value, 100.0, 0.125 * 100.0);
  EXPECT_NEAR(p50->points[1].value, 1000.0, 0.125 * 1000.0);
  EXPECT_NEAR(p99->points[1].value, 1000.0, 0.125 * 1000.0);
  // A span that never fired in a window contributes no point for it.
  EXPECT_EQ(find_series(snap, "transmit/total.count", ""), nullptr);
}

TEST(MetricsPlane, RecordCellAttributesSeriesToTheCellScope) {
  enable_in_memory();
  obs::CellSample s;
  s.cell_id = 3;
  s.goodput_bps = 1.0e4;
  s.frame_error_rate = 0.25;
  s.tags_served = 2;
  s.tags_total = 4;
  s.sent = 8;
  s.acked = 6;
  s.outcomes[static_cast<std::size_t>(rx::DecodeOutcome::kOk)] = 6;
  s.outcomes[static_cast<std::size_t>(rx::DecodeOutcome::kBadCrc)] = 2;
  rx::LinkQualityReport q;
  q.valid = true;
  q.snr_db = 10.0;
  q.evm = 0.1;
  q.soft_margin = 0.8;
  q.margin_ratio = 3.0;
  q.power_norm = 0.5;
  q.correlation = 0.9;
  s.quality.add(q);
  q.snr_db = 14.0;
  s.quality.add(q);
  obs::record_cell(s);

  // A cell with no decodes and no quality reports: the outcome and link
  // series must simply not appear for its scope.
  obs::CellSample quiet;
  quiet.cell_id = 4;
  obs::record_cell(quiet);
  const auto snap = metrics::snapshot();
  tear_down();

  const auto* goodput = find_series(snap, "net.cell.goodput_bps", "cell=3");
  ASSERT_NE(goodput, nullptr);
  EXPECT_DOUBLE_EQ(goodput->points.back().value, 1.0e4);
  EXPECT_EQ(goodput->unit, "bps");
  const auto* fer = find_series(snap, "net.cell.fer", "cell=3");
  ASSERT_NE(fer, nullptr);
  EXPECT_DOUBLE_EQ(fer->points.back().value, 0.25);
  // Decode outcomes chart under the human-readable rx labels, nonzero only.
  const auto* ok = find_series(snap, "rx.outcome.ok", "cell=3");
  ASSERT_NE(ok, nullptr);
  EXPECT_DOUBLE_EQ(ok->points.back().value, 6.0);
  const auto* bad = find_series(snap, "rx.outcome.bad-crc", "cell=3");
  ASSERT_NE(bad, nullptr);
  EXPECT_DOUBLE_EQ(bad->points.back().value, 2.0);
  EXPECT_EQ(find_series(snap, "rx.outcome.truncated", "cell=3"), nullptr);
  // Link quality rolls up as the mean over the cell's valid reports.
  const auto* snr = find_series(snap, "link.snr_db", "cell=3");
  ASSERT_NE(snr, nullptr);
  EXPECT_DOUBLE_EQ(snr->points.back().value, 12.0);
  EXPECT_EQ(snr->unit, "dB");
  // The quiet cell still charts its round counters, but nothing else.
  EXPECT_NE(find_series(snap, "net.cell.goodput_bps", "cell=4"), nullptr);
  EXPECT_EQ(find_series(snap, "link.snr_db", "cell=4"), nullptr);
  EXPECT_EQ(find_series(snap, "rx.outcome.ok", "cell=4"), nullptr);
}

TEST(MetricsPlane, JsonSectionParsesAndMatchesTheSchema) {
  enable_in_memory();
  metrics::push("net.goodput_bps", {}, 100.0, "bps");
  metrics::push("net.cell.fer", "cell=1", 0.5);
  metrics::push_event(metrics::Severity::kWarning,
                             "code_slice_overflow", "cell=1", 1.0,
                             "3 members for 2 served slots");
  obs::tick();
  util::JsonWriter w;
  w.begin_object();
  obs::write_json_sections(w);
  w.end_object();
  tear_down();

  const auto doc = util::json_parse(w.str());
  ASSERT_TRUE(doc.is_object());
  const auto& ts = doc.at("timeseries");
  ASSERT_TRUE(ts.is_object());
  EXPECT_EQ(ts.at("windows").number, 1.0);
  EXPECT_GT(ts.at("window_capacity").number, 0.0);
  for (const char* k : {"points", "series", "events"}) {
    EXPECT_EQ(ts.at("dropped").at(k).number, 0.0) << k;
  }
  ASSERT_TRUE(ts.at("series").is_array());
  ASSERT_FALSE(ts.at("series").array.empty());
  bool saw_scoped = false;
  for (const auto& s : ts.at("series").array) {
    EXPECT_FALSE(s.at("name").string.empty());
    if (s.at("scope").string == "cell=1") saw_scoped = true;
    ASSERT_TRUE(s.at("points").is_array());
    for (const auto& p : s.at("points").array) {
      ASSERT_TRUE(p.is_array());
      ASSERT_EQ(p.array.size(), 2u);  // [window, value]
    }
  }
  EXPECT_TRUE(saw_scoped);
  const auto& events = doc.at("events");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 1u);
  const auto& e = events.array[0];
  EXPECT_EQ(e.at("seq").number, 0.0);
  EXPECT_EQ(e.at("severity").string, "warning");
  EXPECT_EQ(e.at("type").string, "code_slice_overflow");
  EXPECT_EQ(e.at("scope").string, "cell=1");
  EXPECT_EQ(e.at("value").number, 1.0);
  EXPECT_EQ(e.at("detail").string, "3 members for 2 served slots");
}

TEST(MetricsPlane, PrometheusExportHonoursTheConfiguredPath) {
  enable_in_memory();
  metrics::push("net.goodput_bps", {}, 7.0, "bps");
  // No path configured: a successful no-op, no file appears.
  EXPECT_TRUE(obs::write_exports());

  const auto path = ::testing::TempDir() + "cbma_plane_export.prom";
  std::remove(path.c_str());
  obs::set_path(obs::kMetrics, path);
  // tick() itself rewrites the snapshot at every window boundary.
  obs::tick();
  tear_down();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("cbma_net_goodput_bps 7"), std::string::npos);
  EXPECT_NE(text.find("cbma_metrics_windows_total 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsPlane, ResetClearsSeriesEventsAndTelemetryBaselines) {
  enable_in_memory();
  telemetry::count(telemetry::Counter::kChannelSamples, 5);
  obs::tick();
  metrics::push_event(metrics::Severity::kInfo, "roam", {}, 0.0, {});
  ASSERT_FALSE(metrics::snapshot().series.empty());

  obs::reset();
  EXPECT_TRUE(metrics::snapshot().series.empty());
  EXPECT_TRUE(metrics::snapshot().events.empty());
  // Baselines were re-zeroed with the counters: a fresh total of 5 charts
  // as 5, not as the 0 a stale pre-reset baseline would leave.
  telemetry::count(telemetry::Counter::kChannelSamples, 5);
  obs::tick();
  const auto snap = metrics::snapshot();
  tear_down();
  const auto* s = find_series(snap, "channel.samples", "");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->points.back().value, 5.0);
}

}  // namespace
}  // namespace cbma::core
